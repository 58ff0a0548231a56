#include "sched/fifo.h"

#include "prof/profiler.h"

namespace simmr::sched {

core::JobId FrontOf(core::JobSet ready) {
  const core::JobState* job = ready.front();
  prof::Count(prof::Counter::kSchedJobsVisited, job != nullptr ? 1 : 0);
  return job != nullptr ? job->id() : core::kInvalidJob;
}

core::JobId FifoPolicy::ChooseNextMapTask(core::JobQueue job_queue) {
  return FrontOf(job_queue.MapReady());
}

core::JobId FifoPolicy::ChooseNextReduceTask(core::JobQueue job_queue) {
  return FrontOf(job_queue.ReduceReady());
}

}  // namespace simmr::sched
