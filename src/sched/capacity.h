// Capacity Scheduler-style policy.
//
// Section I cites the Capacity scheduler as one of the three schedulers in
// broad production use. This is its core: jobs are mapped to named queues,
// each queue is guaranteed a fraction of the cluster's slots, scheduling
// inside a queue is FIFO, and unused guaranteed capacity is lent to other
// queues (work-conserving "elasticity") — reclaimed only as lent tasks
// finish, since tasks are never preempted.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/scheduler.h"

namespace simmr::sched {

struct QueueConfig {
  std::string name;
  /// Guaranteed share of each slot type, in (0, 1]. Shares across queues
  /// should sum to <= 1; the remainder is free-for-all capacity.
  double capacity = 1.0;
};

class CapacityPolicy final : public core::SchedulerPolicy {
 public:
  /// Maps an arriving job to a queue name. Unknown names fall into the
  /// first configured queue.
  using QueueClassifier = std::function<std::string(const core::JobState&)>;

  /// Throws std::invalid_argument on empty queue list, nonpositive slot
  /// totals, out-of-range capacities, or duplicate queue names.
  CapacityPolicy(int cluster_map_slots, int cluster_reduce_slots,
                 std::vector<QueueConfig> queues,
                 QueueClassifier classifier = nullptr);

  const char* Name() const override { return "Capacity"; }
  void OnJobArrival(const core::JobState& job, SimTime now) override;
  void OnJobCompletion(const core::JobState& job, SimTime now) override;
  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override;
  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override;

  /// The queue a seen job was assigned to (for tests/diagnostics).
  /// Throws std::out_of_range for unknown jobs.
  const std::string& QueueOf(core::JobId job) const;

 private:
  struct QueueState {
    QueueConfig config;
    int guaranteed_map_slots = 0;
    int guaranteed_reduce_slots = 0;
  };

  static constexpr std::size_t kNoQueue = static_cast<std::size_t>(-1);

  template <typename RunningFn>
  core::JobId Choose(core::JobQueue job_queue, core::JobSet ready,
                     RunningFn&& running, bool map_side);

  /// The queue of a job the policy saw arrive and not yet finish, else
  /// kNoQueue.
  std::size_t QueueIndex(core::JobId job) const;

  int cluster_map_slots_;
  int cluster_reduce_slots_;
  std::vector<QueueState> queues_;
  QueueClassifier classifier_;
  std::vector<std::size_t> queue_of_;  // by job id
  std::vector<int> jobs_in_;           // arrived, unfinished jobs per queue
  std::size_t queues_with_jobs_ = 0;   // queues with jobs_in_ > 0
  // Per-decision scratch, one entry per queue.
  std::vector<int> used_;
  std::vector<const core::JobState*> heads_;
};

}  // namespace simmr::sched
