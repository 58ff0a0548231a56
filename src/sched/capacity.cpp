#include "sched/capacity.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "prof/profiler.h"

namespace simmr::sched {

CapacityPolicy::CapacityPolicy(int cluster_map_slots, int cluster_reduce_slots,
                               std::vector<QueueConfig> queues,
                               QueueClassifier classifier)
    : cluster_map_slots_(cluster_map_slots),
      cluster_reduce_slots_(cluster_reduce_slots),
      classifier_(std::move(classifier)) {
  if (cluster_map_slots <= 0 || cluster_reduce_slots <= 0)
    throw std::invalid_argument("CapacityPolicy: nonpositive cluster slots");
  if (queues.empty())
    throw std::invalid_argument("CapacityPolicy: no queues configured");
  std::set<std::string> names;
  for (auto& config : queues) {
    if (config.capacity <= 0.0 || config.capacity > 1.0)
      throw std::invalid_argument("CapacityPolicy: capacity outside (0,1]");
    if (!names.insert(config.name).second)
      throw std::invalid_argument("CapacityPolicy: duplicate queue '" +
                                  config.name + "'");
    QueueState state;
    state.config = std::move(config);
    state.guaranteed_map_slots = std::max(
        1, static_cast<int>(std::floor(state.config.capacity *
                                       cluster_map_slots)));
    state.guaranteed_reduce_slots = std::max(
        1, static_cast<int>(std::floor(state.config.capacity *
                                       cluster_reduce_slots)));
    queues_.push_back(std::move(state));
  }
  used_.resize(queues_.size());
  heads_.resize(queues_.size());
  jobs_in_.resize(queues_.size());
}

void CapacityPolicy::OnJobArrival(const core::JobState& job, SimTime) {
  std::size_t index = 0;
  if (classifier_) {
    const std::string name = classifier_(job);
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      if (queues_[q].config.name == name) {
        index = q;
        break;
      }
    }
  }
  const auto id = static_cast<std::size_t>(job.id());
  if (queue_of_.size() <= id) queue_of_.resize(id + 1, kNoQueue);
  queue_of_[id] = index;
  if (jobs_in_[index]++ == 0) ++queues_with_jobs_;
}

void CapacityPolicy::OnJobCompletion(const core::JobState& job, SimTime) {
  const std::size_t q = QueueIndex(job.id());
  if (q == kNoQueue) return;
  queue_of_[static_cast<std::size_t>(job.id())] = kNoQueue;
  if (--jobs_in_[q] == 0) --queues_with_jobs_;
}

std::size_t CapacityPolicy::QueueIndex(core::JobId job) const {
  const auto id = static_cast<std::size_t>(job);
  return id < queue_of_.size() ? queue_of_[id] : kNoQueue;
}

const std::string& CapacityPolicy::QueueOf(core::JobId job) const {
  const std::size_t q = QueueIndex(job);
  if (q == kNoQueue)
    throw std::out_of_range("CapacityPolicy::QueueOf: unknown job");
  return queues_[q].config.name;
}

template <typename RunningFn>
core::JobId CapacityPolicy::Choose(core::JobQueue job_queue,
                                   core::JobSet ready, RunningFn&& running,
                                   bool map_side) {
  std::uint64_t visited = 0;
  // Current usage per queue: only slot holders add to it.
  std::fill(used_.begin(), used_.end(), 0);
  for (const core::JobState* job : job_queue.SlotHolders()) {
    ++visited;
    const std::size_t q = QueueIndex(job->id());
    if (q != kNoQueue) used_[q] += running(*job);
  }
  // Each queue's FIFO head: its first ready job in queue order. Only a
  // queue holding jobs can have one, so the walk stops once each of those
  // has its head.
  std::fill(heads_.begin(), heads_.end(), nullptr);
  std::size_t headless = queues_with_jobs_;
  for (const core::JobState* job : ready) {
    if (headless == 0) break;
    ++visited;
    const std::size_t q = QueueIndex(job->id());
    if (q == kNoQueue || heads_[q] != nullptr) continue;
    heads_[q] = job;
    --headless;
  }
  prof::Count(prof::Counter::kSchedJobsVisited, visited);

  // Pass 1: the most underserved queue still inside its guarantee.
  // Pass 2 (elasticity): any queue with pending work, least-loaded
  // relative to its guarantee first.
  for (const bool enforce_guarantee : {true, false}) {
    std::size_t best_queue = queues_.size();
    double best_ratio = 0.0;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      const int guaranteed = map_side ? queues_[q].guaranteed_map_slots
                                      : queues_[q].guaranteed_reduce_slots;
      if (enforce_guarantee && used_[q] >= guaranteed) continue;
      if (heads_[q] == nullptr) continue;
      const double ratio = static_cast<double>(used_[q]) / guaranteed;
      if (best_queue == queues_.size() || ratio < best_ratio) {
        best_queue = q;
        best_ratio = ratio;
      }
    }
    if (best_queue != queues_.size()) return heads_[best_queue]->id();
  }
  return core::kInvalidJob;
}

core::JobId CapacityPolicy::ChooseNextMapTask(core::JobQueue job_queue) {
  return Choose(
      job_queue, job_queue.MapReady(),
      [](const core::JobState& j) { return j.RunningMaps(); },
      /*map_side=*/true);
}

core::JobId CapacityPolicy::ChooseNextReduceTask(core::JobQueue job_queue) {
  return Choose(
      job_queue, job_queue.ReduceReady(),
      [](const core::JobState& j) { return j.RunningReduces(); },
      /*map_side=*/false);
}

}  // namespace simmr::sched
