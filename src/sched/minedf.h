// MinEDF (Section V-A): EDF job ordering with *minimal sufficient* slot
// allocation.
//
// "The MinEDF scheduler allocates the minimal amount of map and reduce
// slots that would be required for meeting a given job deadline ... and
// leaves the remaining, spare resources to the next arriving job. It also
// keeps track of the number of running and scheduled map and reduce tasks
// so that they are always less than the 'wanted' number of slots."
//
// The wanted allocation is computed once at job arrival with the ARIA
// bounds model inverted via Lagrange multipliers (aria_model.h). Jobs
// without a deadline want the full cluster (FIFO-like greediness at the
// back of the EDF order).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/scheduler.h"
#include "sched/aria_model.h"

namespace simmr::sched {

class MinEdfPolicy final : public core::SchedulerPolicy {
 public:
  /// Cluster capacity bounds for the wanted-slot computation — normally the
  /// SimConfig slot totals.
  MinEdfPolicy(int cluster_map_slots, int cluster_reduce_slots);

  const char* Name() const override { return "MinEDF"; }
  void OnJobArrival(const core::JobState& job, SimTime now) override;
  void OnJobCompletion(const core::JobState& job, SimTime now) override;
  core::JobId ChooseNextMapTask(core::JobQueue job_queue) override;
  core::JobId ChooseNextReduceTask(core::JobQueue job_queue) override;

  /// The allocation computed for a job at arrival (for tests/diagnostics).
  /// Throws std::out_of_range for jobs this policy has not seen.
  SlotAllocation WantedSlots(core::JobId job) const;

  /// Presets a job's wanted allocation, e.g. one computed offline from a
  /// stored profile (ARIA keeps profiles of prior runs). OnJobArrival uses
  /// a preset instead of recomputing from the replayed trace's profile —
  /// needed when validating a replay against a testbed run whose scheduler
  /// was driven by that same stored profile.
  void PresetWantedSlots(core::JobId job, SlotAllocation allocation);

 private:
  /// The job's allocation while it is queued, else nullptr.
  const SlotAllocation* Wanted(core::JobId job) const;

  int cluster_map_slots_;
  int cluster_reduce_slots_;
  std::unordered_map<core::JobId, SlotAllocation> preset_;
  std::vector<std::optional<SlotAllocation>> wanted_;  // by job id
};

}  // namespace simmr::sched
