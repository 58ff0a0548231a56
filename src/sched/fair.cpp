#include "sched/fair.h"

#include <stdexcept>

#include "prof/profiler.h"

namespace simmr::sched {

void FairPolicy::SetWeight(core::JobId job, double weight) {
  if (weight <= 0.0)
    throw std::invalid_argument("FairPolicy::SetWeight: nonpositive weight");
  if (job < 0)
    throw std::invalid_argument("FairPolicy::SetWeight: negative job id");
  const auto id = static_cast<std::size_t>(job);
  if (weights_.size() <= id) weights_.resize(id + 1, 1.0);
  weights_[id] = weight;
}

void FairPolicy::OnJobCompletion(const core::JobState& job, SimTime) {
  const auto id = static_cast<std::size_t>(job.id());
  if (id < weights_.size()) weights_[id] = 1.0;
}

double FairPolicy::WeightOf(core::JobId job) const {
  const auto id = static_cast<std::size_t>(job);
  return id < weights_.size() ? weights_[id] : 1.0;
}

template <typename Running>
core::JobId FairPolicy::Choose(core::JobSet ready, Running&& running) const {
  const core::JobState* best = nullptr;
  double best_deficit = 0.0;
  std::uint64_t visited = 0;
  for (const core::JobState* job : ready) {
    // Queue order is arrival order. No deficit is below zero, so once a
    // zero-deficit job is held only an equal arrival with a smaller id can
    // still win — arrivals an oracle dispatched out of id order.
    if (best != nullptr && best_deficit == 0.0 &&
        job->arrival() > best->arrival())
      break;
    ++visited;
    const double deficit = running(*job) / WeightOf(job->id());
    const bool wins =
        best == nullptr || deficit < best_deficit ||
        (deficit == best_deficit &&
         (job->arrival() < best->arrival() ||
          (job->arrival() == best->arrival() && job->id() < best->id())));
    if (wins) {
      best = job;
      best_deficit = deficit;
    }
  }
  prof::Count(prof::Counter::kSchedJobsVisited, visited);
  return best != nullptr ? best->id() : core::kInvalidJob;
}

core::JobId FairPolicy::ChooseNextMapTask(core::JobQueue job_queue) {
  return Choose(job_queue.MapReady(),
                [](const core::JobState& job) { return job.RunningMaps(); });
}

core::JobId FairPolicy::ChooseNextReduceTask(core::JobQueue job_queue) {
  return Choose(job_queue.ReduceReady(), [](const core::JobState& job) {
    return job.RunningReduces();
  });
}

}  // namespace simmr::sched
