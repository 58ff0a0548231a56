// Fluid-flow shuffle transfer model for the testbed emulator.
//
// Each reduce task in its fetch phase is one "flow" pulling intermediate
// data that becomes available progressively as map tasks finish. A flow's
// instantaneous rate is min(per-flow cap, aggregate bandwidth / #active
// flows); a flow is active while it has fetched less than what is available.
// This produces exactly the asymmetry the paper's profile format captures:
// the first reduce wave's shuffle is stretched across the tail of the map
// stage (availability-limited), while later waves fetch everything at full
// rate (bandwidth-limited only).
//
// The model is advanced lazily: Advance(now) integrates all flows up to
// `now`, and NextEventTime() tells the simulator when the earliest flow
// state change (starvation or completion) will occur if nothing else
// happens first.
//
// Cost. Every active flow runs at the same rate, so the model keeps that
// one shared rate plus an index of the active flows, and recomputes the
// rate only when a flow joins or leaves the active set. AddFlow,
// AddAvailability, Retire, IsComplete and FetchedMb are O(1); Advance and
// NextEventTime visit only the active flows. Flows that finished or were
// retired cost nothing after they leave the set, so a call's cost does
// not grow with how long the run has gone on.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/time.h"

namespace simmr::cluster {

/// Opaque handle to a flow inside the ShuffleModel.
using FlowId = std::int32_t;

class ShuffleModel {
 public:
  /// aggregate_bw and per_flow_cap are in MB per simulated second.
  ShuffleModel(double aggregate_bw, double per_flow_cap);

  /// Registers a new flow needing total_mb in all, of which available_mb can
  /// be fetched immediately. Call Advance(now) first.
  FlowId AddFlow(double total_mb, double available_mb);

  /// Increases a flow's currently fetchable bytes (a map task finished).
  /// Call Advance(now) first. Availability is clamped to the flow total.
  void AddAvailability(FlowId flow, double mb);

  /// Integrates all active flows from the last update time to `now`.
  /// `now` must be nondecreasing across calls.
  void Advance(SimTime now);

  /// True once the flow has fetched all of its total_mb.
  bool IsComplete(FlowId flow) const;

  /// Bytes fetched so far (as of the last Advance).
  double FetchedMb(FlowId flow) const;

  /// Earliest future time at which some flow completes or starves, or
  /// kTimeInfinity when no flow is active. Valid after Advance.
  SimTime NextEventTime() const;

  /// Removes a flow from bookkeeping (its id stays valid for IsComplete
  /// queries but it no longer consumes bandwidth). Retiring a flow that is
  /// still fetching abandons its transfer.
  void Retire(FlowId flow);

  int ActiveFlowCount() const { return static_cast<int>(active_.size()); }

  /// Flows that are complete but not yet retired. While this is zero no
  /// flow awaits the caller's completion handling.
  int CompleteUnretiredCount() const { return complete_unretired_; }

 private:
  struct Flow {
    double total_mb = 0.0;
    double available_mb = 0.0;
    double fetched_mb = 0.0;
    bool retired = false;
    std::int32_t active_slot = -1;  // index into active_, -1 when inactive
  };

  bool FlowActive(const Flow& f) const;
  bool FlowComplete(const Flow& f) const;
  /// Brings flow `id`'s membership in the active set in line with its
  /// state, recomputing the shared rate when it changes.
  void SyncActive(FlowId id);
  /// Removes the flow at active_[slot]; the last active flow takes its slot.
  void RemoveActiveAt(std::size_t slot);
  void RecomputeRate();

  double aggregate_bw_;
  double per_flow_cap_;
  std::vector<Flow> flows_;
  std::vector<FlowId> active_;
  double rate_ = 0.0;  // MB/s of every active flow
  SimTime last_update_ = 0.0;
  int complete_unretired_ = 0;
};

}  // namespace simmr::cluster
