#include "sched/preemptive_maxedf.h"

#include "prof/profiler.h"
#include "sched/maxedf.h"

namespace simmr::sched {

core::JobId PreemptiveMaxEdfPolicy::ChooseNextMapTask(
    core::JobQueue job_queue) {
  // Map-side behaviour is plain MaxEDF (map tasks are short; the paper's
  // bump comes from long-held reduce slots).
  MaxEdfPolicy maxedf;
  return maxedf.ChooseNextMapTask(job_queue);
}

core::JobId PreemptiveMaxEdfPolicy::ChooseNextReduceTask(
    core::JobQueue job_queue) {
  MaxEdfPolicy maxedf;
  return maxedf.ChooseNextReduceTask(job_queue);
}

core::JobId PreemptiveMaxEdfPolicy::ChooseReducePreemptionVictim(
    core::JobQueue job_queue, const core::JobState& claimant) {
  // Kill a filler of the job with the latest deadline — but only when that
  // job is strictly less urgent than the claimant (EDF order), so
  // preemption can never ping-pong between equally urgent jobs. A filler
  // holds a reduce slot, so only slot holders can be victims.
  const core::JobState* victim = nullptr;
  std::uint64_t visited = 0;
  for (const core::JobState* job : job_queue.SlotHolders()) {
    ++visited;
    if (job->id() == claimant.id()) continue;
    if (job->pending_fillers.empty()) continue;
    if (!core::EdfOrderBefore(claimant, *job)) continue;
    if (victim == nullptr || core::EdfOrderBefore(*victim, *job)) victim = job;
  }
  prof::Count(prof::Counter::kSchedJobsVisited, visited);
  return victim != nullptr ? victim->id() : core::kInvalidJob;
}

}  // namespace simmr::sched
