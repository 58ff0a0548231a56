// The pluggable scheduling-policy interface.
//
// Section III-B: the engine "communicates with the scheduler policies using
// a very narrow interface consisting of the following functions:
// CHOOSENEXTMAPTASK(jobQ), CHOOSENEXTREDUCETASK(jobQ)" — each returns the
// jobId whose map (or reduce) task should be executed next. Lifecycle
// callbacks let stateful policies (MinEDF's wanted-slot tracking) maintain
// their bookkeeping without widening the decision interface.
#pragma once

#include "core/events.h"
#include "core/job_state.h"
#include "core/ready_sets.h"

namespace simmr::core {

/// The job queue as a policy sees it: a copyable view of the engine's
/// ReadySets. Iterating it (and size()) covers every arrived, unfinished
/// job in arrival order, as the paper's jobQ does; a decision reads the
/// ready sets instead, which hold only the jobs that can take the slot.
/// Policies read job state through the JobState pointers; the engine owns
/// all mutation.
class JobQueue {
 public:
  explicit JobQueue(const ReadySets& sets) : sets_(&sets) {}

  std::size_t size() const { return sets_->queued_.size(); }
  auto begin() const { return sets_->queued_.cbegin(); }
  auto end() const { return sets_->queued_.cend(); }

  /// Jobs with a pending map task, in queue order and in EDF order.
  JobSet MapReady() const { return ByQueue(sets_->map_ready_); }
  JobSet MapReadyByDeadline() const { return ByEdf(sets_->map_ready_edf_); }
  /// Jobs whose reduce gate is open and that have a pending reduce task.
  JobSet ReduceReady() const { return ByQueue(sets_->reduce_ready_); }
  JobSet ReduceReadyByDeadline() const {
    return ByEdf(sets_->reduce_ready_edf_);
  }
  /// Jobs running at least one task (a filler reduce counts), queue order.
  JobSet SlotHolders() const { return ByQueue(sets_->holders_); }

 private:
  JobSet ByQueue(const RankSet& set) const {
    return {set, sets_->by_queue_rank_.data()};
  }
  JobSet ByEdf(const RankSet& set) const {
    return {set, sets_->by_edf_rank_.data()};
  }

  const ReadySets* sets_;
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Human-readable policy name for reports.
  virtual const char* Name() const = 0;

  /// Called when a job joins the queue (before any task decisions for it).
  virtual void OnJobArrival(const JobState& job, SimTime now) {
    (void)job;
    (void)now;
  }

  /// Called when a job departs (its last task completed).
  virtual void OnJobCompletion(const JobState& job, SimTime now) {
    (void)job;
    (void)now;
  }

  /// Returns the job whose next map task should run, or kInvalidJob when no
  /// eligible job exists. The returned job must satisfy HasPendingMap().
  virtual JobId ChooseNextMapTask(JobQueue job_queue) = 0;

  /// Returns the job whose next reduce task should run, or kInvalidJob.
  /// The returned job must satisfy HasPendingReduce() and have its reduce
  /// gate open (reduce_gate_open).
  virtual JobId ChooseNextReduceTask(JobQueue job_queue) = 0;

  /// Only consulted when SimConfig::allow_filler_preemption is set: the
  /// engine found `claimant` eligible for a reduce slot but none is free,
  /// and asks which job's most recent *filler* reduce to kill to make room
  /// (the paper identifies non-preemptible early reduces as the cause of
  /// its Figure 7 "bump"; killing a filler loses only re-fetchable shuffle
  /// work, matching how Hadoop kills reduce attempts without losing map
  /// output). The returned job must have a pending filler and must not be
  /// the claimant; kInvalidJob declines to preempt. Default: never.
  virtual JobId ChooseReducePreemptionVictim(JobQueue job_queue,
                                             const JobState& claimant) {
    (void)job_queue;
    (void)claimant;
    return kInvalidJob;
  }
};

}  // namespace simmr::core
