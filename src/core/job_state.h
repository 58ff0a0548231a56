// Per-job replay state inside the SimMR engine.
//
// A JobState owns cursors into the profile's duration pools and the
// bookkeeping for the filler-reduce mechanism: reduce tasks launched while
// the map stage is still running occupy a slot with (conceptually) infinite
// duration until MAP_STAGE_DONE patches their completion to
// map_stage_end + first_shuffle + reduce (Section III-B).
#pragma once

#include <cstdint>
#include <vector>

#include "core/events.h"
#include "simcore/time.h"
#include "trace/job_profile.h"

namespace simmr::core {

/// Duration pool with a cursor. When a replay needs more samples than the
/// pool holds (e.g. replaying under a larger allocation launches more
/// first-wave reduces than the recorded run had), the cursor wraps around —
/// the pool is treated as an empirical distribution.
class DurationPool {
 public:
  explicit DurationPool(const std::vector<double>* values = nullptr)
      : values_(values) {}

  bool HasSamples() const { return values_ != nullptr && !values_->empty(); }

  /// Next sample; wraps modulo pool size. Requires HasSamples().
  double Next();

  /// How many samples were taken past the pool's end (0 = no wrap).
  std::size_t overflow_count() const { return overflow_; }

 private:
  const std::vector<double>* values_;
  std::size_t cursor_ = 0;
  std::size_t overflow_ = 0;
};

/// A first-wave ("filler") reduce awaiting its map-stage-done patch.
struct PendingFiller {
  std::int32_t task_index = 0;
  SimTime start = 0.0;
  double first_shuffle = 0.0;  // non-overlapping portion, from the profile
  double reduce = 0.0;
};

class JobState {
 public:
  JobState(JobId id, const trace::JobProfile& profile, SimTime arrival,
           double deadline, double solo_completion);

  JobId id() const { return id_; }
  const trace::JobProfile& profile() const { return *profile_; }
  SimTime arrival() const { return arrival_; }
  double deadline() const { return deadline_; }
  double solo_completion() const { return solo_completion_; }

  int num_maps() const { return profile_->num_maps; }
  int num_reduces() const { return profile_->num_reduces; }

  // --- scheduling state (maintained by the engine) ---
  int maps_launched = 0;
  int maps_completed = 0;
  int reduces_launched = 0;
  int reduces_completed = 0;
  int reduce_gate_threshold = 0;  // ReduceGateThreshold at the run's fraction
  bool reduce_gate_open = false;  // minMapPercentCompleted reached
  bool map_stage_done_fired = false;

  SimTime first_launch = -1.0;
  SimTime map_stage_end = -1.0;
  SimTime completion = -1.0;

  std::vector<PendingFiller> pending_fillers;

  /// Task indexes returned to the pending pool by a fault kill (or a
  /// filler preemption). Relaunches pop from the back and draw a fresh
  /// duration sample; maps_launched/reduces_launched stay monotone
  /// fresh-index cursors.
  std::vector<std::int32_t> requeued_maps;
  std::vector<std::int32_t> requeued_reduces;

  bool HasPendingMap() const {
    return maps_launched < num_maps() || !requeued_maps.empty();
  }
  bool HasPendingReduce() const {
    return reduces_launched < num_reduces() || !requeued_reduces.empty();
  }
  bool MapsDone() const { return maps_completed == num_maps(); }
  bool Done() const {
    return MapsDone() && reduces_completed == num_reduces();
  }
  int RunningMaps() const {
    return maps_launched - maps_completed -
           static_cast<int>(requeued_maps.size());
  }
  int RunningReduces() const {
    return reduces_launched - reduces_completed -
           static_cast<int>(requeued_reduces.size());
  }

  /// Reduce slowstart threshold in completed-map count for a gate fraction.
  int ReduceGateThreshold(double min_map_fraction) const;

  // --- duration pools ---
  double NextMapDuration() { return map_pool_.Next(); }
  double NextReduceDuration() { return reduce_pool_.Next(); }

  /// First-wave shuffle sample; falls back to the typical pool when the
  /// recorded run had fewer first-wave reduces than this replay launches.
  double NextFirstShuffleDuration();

  /// Typical shuffle sample; falls back to the first-wave pool when the
  /// recorded run completed in a single reduce wave.
  double NextTypicalShuffleDuration();

 private:
  JobId id_;
  const trace::JobProfile* profile_;
  SimTime arrival_;
  double deadline_;
  double solo_completion_;
  DurationPool map_pool_;
  DurationPool first_shuffle_pool_;
  DurationPool typical_shuffle_pool_;
  DurationPool reduce_pool_;
};

}  // namespace simmr::core
