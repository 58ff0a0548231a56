// FIFO scheduling policy (Section III-C): "finds the earliest arriving job
// that needs a map (or reduce) task to be executed next."
#pragma once

#include "core/scheduler.h"

namespace simmr::sched {

/// The first job of an ordered ready set, or kInvalidJob when it is empty:
/// FIFO's rule, which MaxEDF applies to the EDF order.
core::JobId FrontOf(core::JobSet ready);

class FifoPolicy final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "FIFO"; }
  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override;
  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override;
};

}  // namespace simmr::sched
