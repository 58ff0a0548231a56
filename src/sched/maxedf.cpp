#include "sched/maxedf.h"

#include "sched/fifo.h"

namespace simmr::sched {

core::JobId MaxEdfPolicy::ChooseNextMapTask(core::JobQueue job_queue) {
  return FrontOf(job_queue.MapReadyByDeadline());
}

core::JobId MaxEdfPolicy::ChooseNextReduceTask(core::JobQueue job_queue) {
  return FrontOf(job_queue.ReduceReadyByDeadline());
}

}  // namespace simmr::sched
