#include "sched/minedf.h"

#include <stdexcept>

#include "prof/profiler.h"

namespace simmr::sched {
namespace {

/// The first job in EDF order still below its wanted cap. A job at a cap
/// of at least one slot (every ARIA allocation is) holds that many slots,
/// so the walk passes at most one job per running task.
template <typename UnderCap>
core::JobId FirstUnderCap(core::JobSet ready_by_deadline,
                          UnderCap&& under_cap) {
  core::JobId chosen = core::kInvalidJob;
  std::uint64_t visited = 0;
  for (const core::JobState* job : ready_by_deadline) {
    ++visited;
    if (under_cap(*job)) {
      chosen = job->id();
      break;
    }
  }
  prof::Count(prof::Counter::kSchedJobsVisited, visited);
  return chosen;
}

}  // namespace

MinEdfPolicy::MinEdfPolicy(int cluster_map_slots, int cluster_reduce_slots)
    : cluster_map_slots_(cluster_map_slots),
      cluster_reduce_slots_(cluster_reduce_slots) {
  if (cluster_map_slots <= 0 || cluster_reduce_slots <= 0)
    throw std::invalid_argument("MinEdfPolicy: nonpositive cluster slots");
}

void MinEdfPolicy::PresetWantedSlots(core::JobId job,
                                     SlotAllocation allocation) {
  preset_[job] = allocation;
}

void MinEdfPolicy::OnJobArrival(const core::JobState& job, SimTime now) {
  const auto id = static_cast<std::size_t>(job.id());
  if (wanted_.size() <= id) wanted_.resize(id + 1);
  if (const auto it = preset_.find(job.id()); it != preset_.end()) {
    wanted_[id] = it->second;
    return;
  }
  SlotAllocation alloc;
  if (job.deadline() > 0.0 && job.deadline() > now) {
    alloc = MinimalSlotsForDeadline(
        ProfileSummary::FromProfile(job.profile()), job.deadline() - now,
        cluster_map_slots_, cluster_reduce_slots_);
  } else {
    // No deadline (or already past): want everything, like MaxEDF.
    alloc.map_slots = cluster_map_slots_;
    alloc.reduce_slots = cluster_reduce_slots_;
    alloc.feasible = job.deadline() <= 0.0;
  }
  wanted_[id] = alloc;
}

void MinEdfPolicy::OnJobCompletion(const core::JobState& job, SimTime) {
  const auto id = static_cast<std::size_t>(job.id());
  if (id < wanted_.size()) wanted_[id].reset();
}

const SlotAllocation* MinEdfPolicy::Wanted(core::JobId job) const {
  const auto id = static_cast<std::size_t>(job);
  return id < wanted_.size() && wanted_[id] ? &*wanted_[id] : nullptr;
}

core::JobId MinEdfPolicy::ChooseNextMapTask(core::JobQueue job_queue) {
  return FirstUnderCap(job_queue.MapReadyByDeadline(),
                       [this](const core::JobState& job) {
                         const SlotAllocation* wanted = Wanted(job.id());
                         return job.RunningMaps() <
                                (wanted != nullptr ? wanted->map_slots
                                                   : cluster_map_slots_);
                       });
}

core::JobId MinEdfPolicy::ChooseNextReduceTask(core::JobQueue job_queue) {
  return FirstUnderCap(job_queue.ReduceReadyByDeadline(),
                       [this](const core::JobState& job) {
                         const SlotAllocation* wanted = Wanted(job.id());
                         return job.RunningReduces() <
                                (wanted != nullptr ? wanted->reduce_slots
                                                   : cluster_reduce_slots_);
                       });
}

SlotAllocation MinEdfPolicy::WantedSlots(core::JobId job) const {
  const SlotAllocation* wanted = Wanted(job);
  if (wanted == nullptr)
    throw std::out_of_range("MinEdfPolicy::WantedSlots: unknown job");
  return *wanted;
}

}  // namespace simmr::sched
