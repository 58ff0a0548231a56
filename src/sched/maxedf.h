// MaxEDF (Section V-A): Earliest-Deadline-First job ordering with greedy
// maximum allocation — "apart from the EDF job ordering, the resource
// allocation per job is the same as under the FIFO policy."
#pragma once

#include "core/scheduler.h"

namespace simmr::sched {

/// MaxEDF takes the front of the engine's EDF-ordered ready set
/// (core::EdfOrderBefore).
class MaxEdfPolicy final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "MaxEDF"; }
  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override;
  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override;
};

}  // namespace simmr::sched
