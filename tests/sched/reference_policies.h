// Test oracle: the scheduling policies as they were before the engine kept
// ready sets, kept verbatim apart from their names (header-only) so the
// lockstep differential test can check that the indexed policies in
// src/sched choose the same job on every decision.
//
// Every policy here scans the whole job queue on every call: FIFO and
// MaxEDF walk to the first eligible job, MinEDF and Fair read every
// queued job, and Capacity recounts per-queue usage and searches each
// queue's head over the whole queue. A decision costs O(queued jobs). They
// never ship in src/; change one only together with a deliberate change to
// the policy it mirrors.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scheduler.h"
#include "sched/aria_model.h"
#include "sched/capacity.h"

namespace simmr::sched {

/// EDF order: earliest positive deadline first; jobs without deadlines
/// come after all deadlined jobs, by arrival; final tie break on id.
inline bool ReferenceEdfOrderBefore(const core::JobState& a,
                                    const core::JobState& b) {
  const bool a_has = a.deadline() > 0.0;
  const bool b_has = b.deadline() > 0.0;
  if (a_has != b_has) return a_has;
  if (a_has && a.deadline() != b.deadline())
    return a.deadline() < b.deadline();
  if (a.arrival() != b.arrival()) return a.arrival() < b.arrival();
  return a.id() < b.id();
}

class ReferenceFifo final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "FIFO"; }

  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override {
    // The engine keeps job_queue in arrival order.
    for (const core::JobState* job : job_queue) {
      if (job->HasPendingMap()) return job->id();
    }
    return core::kInvalidJob;
  }

  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override {
    for (const core::JobState* job : job_queue) {
      if (job->HasPendingReduce() && job->reduce_gate_open) return job->id();
    }
    return core::kInvalidJob;
  }
};

template <typename Eligible>
core::JobId ReferencePickEarliestDeadline(core::JobQueue job_queue,
                                          Eligible&& eligible) {
  const core::JobState* best = nullptr;
  for (const core::JobState* job : job_queue) {
    if (!eligible(*job)) continue;
    if (best == nullptr || ReferenceEdfOrderBefore(*job, *best)) best = job;
  }
  return best != nullptr ? best->id() : core::kInvalidJob;
}

class ReferenceMaxEdf final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "MaxEDF"; }

  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override {
    return ReferencePickEarliestDeadline(
        job_queue, [](const core::JobState& j) { return j.HasPendingMap(); });
  }

  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override {
    return ReferencePickEarliestDeadline(
        job_queue, [](const core::JobState& j) {
          return j.HasPendingReduce() && j.reduce_gate_open;
        });
  }
};

class ReferencePreemptiveMaxEdf final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "MaxEDF-P"; }

  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override {
    ReferenceMaxEdf maxedf;
    return maxedf.ChooseNextMapTask(job_queue);
  }

  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override {
    ReferenceMaxEdf maxedf;
    return maxedf.ChooseNextReduceTask(job_queue);
  }

  core::JobId ChooseReducePreemptionVictim(
      core::JobQueue job_queue, const core::JobState& claimant) override {
    const core::JobState* victim = nullptr;
    for (const core::JobState* job : job_queue) {
      if (job->id() == claimant.id()) continue;
      if (job->pending_fillers.empty()) continue;
      if (!ReferenceEdfOrderBefore(claimant, *job)) continue;
      if (victim == nullptr || ReferenceEdfOrderBefore(*victim, *job))
        victim = job;
    }
    return victim != nullptr ? victim->id() : core::kInvalidJob;
  }
};

class ReferenceMinEdf final : public core::SchedulerPolicy {
 public:
  ReferenceMinEdf(int cluster_map_slots, int cluster_reduce_slots)
      : cluster_map_slots_(cluster_map_slots),
        cluster_reduce_slots_(cluster_reduce_slots) {}

  const char* Name() const override { return "MinEDF"; }

  void PresetWantedSlots(core::JobId job, SlotAllocation allocation) {
    preset_[job] = allocation;
  }

  void OnJobArrival(const core::JobState& job, SimTime now) override {
    if (const auto it = preset_.find(job.id()); it != preset_.end()) {
      wanted_[job.id()] = it->second;
      return;
    }
    SlotAllocation alloc;
    if (job.deadline() > 0.0 && job.deadline() > now) {
      alloc = MinimalSlotsForDeadline(
          ProfileSummary::FromProfile(job.profile()), job.deadline() - now,
          cluster_map_slots_, cluster_reduce_slots_);
    } else {
      alloc.map_slots = cluster_map_slots_;
      alloc.reduce_slots = cluster_reduce_slots_;
      alloc.feasible = job.deadline() <= 0.0;
    }
    wanted_[job.id()] = alloc;
  }

  void OnJobCompletion(const core::JobState& job, SimTime) override {
    wanted_.erase(job.id());
  }

  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override {
    const core::JobState* best = nullptr;
    for (const core::JobState* job : job_queue) {
      if (!job->HasPendingMap()) continue;
      const auto it = wanted_.find(job->id());
      const int cap =
          it != wanted_.end() ? it->second.map_slots : cluster_map_slots_;
      if (job->RunningMaps() >= cap) continue;
      if (best == nullptr || ReferenceEdfOrderBefore(*job, *best)) best = job;
    }
    return best != nullptr ? best->id() : core::kInvalidJob;
  }

  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override {
    const core::JobState* best = nullptr;
    for (const core::JobState* job : job_queue) {
      if (!job->HasPendingReduce() || !job->reduce_gate_open) continue;
      const auto it = wanted_.find(job->id());
      const int cap = it != wanted_.end() ? it->second.reduce_slots
                                          : cluster_reduce_slots_;
      if (job->RunningReduces() >= cap) continue;
      if (best == nullptr || ReferenceEdfOrderBefore(*job, *best)) best = job;
    }
    return best != nullptr ? best->id() : core::kInvalidJob;
  }

 private:
  int cluster_map_slots_;
  int cluster_reduce_slots_;
  std::unordered_map<core::JobId, SlotAllocation> preset_;
  std::unordered_map<core::JobId, SlotAllocation> wanted_;
};

class ReferenceFair final : public core::SchedulerPolicy {
 public:
  const char* Name() const override { return "Fair"; }

  void SetWeight(core::JobId job, double weight) { weights_[job] = weight; }

  void OnJobCompletion(const core::JobState& job, SimTime) override {
    weights_.erase(job.id());
  }

  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override {
    const core::JobState* best = nullptr;
    double best_deficit = 0.0;
    for (const core::JobState* job : job_queue) {
      if (!job->HasPendingMap()) continue;
      const double deficit = job->RunningMaps() / WeightOf(job->id());
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
    return best != nullptr ? best->id() : core::kInvalidJob;
  }

  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override {
    const core::JobState* best = nullptr;
    double best_deficit = 0.0;
    for (const core::JobState* job : job_queue) {
      if (!job->HasPendingReduce() || !job->reduce_gate_open) continue;
      const double deficit = job->RunningReduces() / WeightOf(job->id());
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
    return best != nullptr ? best->id() : core::kInvalidJob;
  }

 private:
  double WeightOf(core::JobId job) const {
    const auto it = weights_.find(job);
    return it != weights_.end() ? it->second : 1.0;
  }

  std::unordered_map<core::JobId, double> weights_;
};

class ReferenceCapacity final : public core::SchedulerPolicy {
 public:
  ReferenceCapacity(int cluster_map_slots, int cluster_reduce_slots,
                    std::vector<QueueConfig> queues,
                    CapacityPolicy::QueueClassifier classifier = nullptr)
      : classifier_(std::move(classifier)) {
    for (auto& config : queues) {
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
  }

  const char* Name() const override { return "Capacity"; }

  void OnJobArrival(const core::JobState& job, SimTime) override {
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
    job_queue_index_[job.id()] = index;
  }

  void OnJobCompletion(const core::JobState& job, SimTime) override {
    job_queue_index_.erase(job.id());
  }

  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override {
    return Choose(
        job_queue, [](const core::JobState& j) { return j.HasPendingMap(); },
        [](const core::JobState& j) { return j.RunningMaps(); },
        /*map_side=*/true);
  }

  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override {
    return Choose(
        job_queue,
        [](const core::JobState& j) {
          return j.HasPendingReduce() && j.reduce_gate_open;
        },
        [](const core::JobState& j) { return j.RunningReduces(); },
        /*map_side=*/false);
  }

 private:
  struct QueueState {
    QueueConfig config;
    int guaranteed_map_slots = 0;
    int guaranteed_reduce_slots = 0;
  };

  template <typename Eligible, typename RunningFn>
  core::JobId Choose(core::JobQueue job_queue, Eligible&& eligible,
                     RunningFn&& running, bool map_side) {
    std::vector<int> used(queues_.size(), 0);
    for (const core::JobState* job : job_queue) {
      const auto it = job_queue_index_.find(job->id());
      if (it == job_queue_index_.end()) continue;
      used[it->second] += running(*job);
    }
    for (const bool enforce_guarantee : {true, false}) {
      std::size_t best_queue = queues_.size();
      double best_ratio = 0.0;
      for (std::size_t q = 0; q < queues_.size(); ++q) {
        const int guaranteed = map_side ? queues_[q].guaranteed_map_slots
                                        : queues_[q].guaranteed_reduce_slots;
        if (enforce_guarantee && used[q] >= guaranteed) continue;
        bool has_work = false;
        for (const core::JobState* job : job_queue) {
          const auto it = job_queue_index_.find(job->id());
          if (it == job_queue_index_.end() || it->second != q) continue;
          if (eligible(*job)) {
            has_work = true;
            break;
          }
        }
        if (!has_work) continue;
        const double ratio = static_cast<double>(used[q]) / guaranteed;
        if (best_queue == queues_.size() || ratio < best_ratio) {
          best_queue = q;
          best_ratio = ratio;
        }
      }
      if (best_queue == queues_.size()) continue;
      for (const core::JobState* job : job_queue) {
        const auto it = job_queue_index_.find(job->id());
        if (it == job_queue_index_.end() || it->second != best_queue)
          continue;
        if (eligible(*job)) return job->id();
      }
    }
    return core::kInvalidJob;
  }

  std::vector<QueueState> queues_;
  CapacityPolicy::QueueClassifier classifier_;
  std::unordered_map<core::JobId, std::size_t> job_queue_index_;
};

}  // namespace simmr::sched
