// Hadoop Fair Scheduler (HFS)-style policy.
//
// Section I lists HFS (Zaharia et al.) among the schedulers "broadly used
// for job processing" that SimMR exists to evaluate. This is the job-level
// max-min fair-sharing core of HFS: every active job continuously receives
// the slot share proportional to its weight, implemented greedily — each
// freed slot goes to the eligible job with the smallest
// running_tasks / weight ratio. (Delay scheduling's locality wait is not
// modeled: SimMR has no data placement, matching the paper's scope.)
#pragma once

#include <vector>

#include "core/scheduler.h"

namespace simmr::sched {

class FairPolicy final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "Fair"; }

  /// Sets a job's weight (default 1.0) until the job completes. Weights
  /// must be positive; calls for unknown jobs are allowed ahead of arrival.
  /// Throws std::invalid_argument for nonpositive weights or a negative
  /// job id.
  void SetWeight(core::JobId job, double weight);

  void OnJobCompletion(const core::JobState& job, SimTime now) override;
  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override;
  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override;

 private:
  /// The ready job with the smallest running / weight, ties to the
  /// earlier arrival, then the smaller id.
  template <typename Running>
  core::JobId Choose(core::JobSet ready, Running&& running) const;

  double WeightOf(core::JobId job) const;

  std::vector<double> weights_;  // by job id; 1.0 when unset
};

}  // namespace simmr::sched
