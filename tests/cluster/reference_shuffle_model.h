// Test oracle: the testbed's original all-flows shuffle model, kept
// verbatim (renamed, header-only) so the differential test can check that
// cluster::ShuffleModel's active-flow index reproduces it bit for bit.
//
// This model keeps every flow it ever created and walks all of them on
// every Advance, rate recompute and NextEventTime, so a call costs
// O(flows created so far). It never ships in src/; change it only together
// with a deliberate change to the shuffle arithmetic.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cluster/shuffle_model.h"
#include "simcore/time.h"

namespace simmr::cluster {

class ReferenceShuffleModel {
 public:
  /// aggregate_bw and per_flow_cap are in MB per simulated second.
  ReferenceShuffleModel(double aggregate_bw, double per_flow_cap)
      : aggregate_bw_(aggregate_bw), per_flow_cap_(per_flow_cap) {
    if (aggregate_bw <= 0 || per_flow_cap <= 0)
      throw std::invalid_argument("ShuffleModel: nonpositive bandwidth");
  }

  FlowId AddFlow(double total_mb, double available_mb) {
    Flow f;
    f.total_mb = std::max(total_mb, 0.0);
    f.available_mb = std::min(std::max(available_mb, 0.0), f.total_mb);
    flows_.push_back(f);
    RecomputeRates();
    return static_cast<FlowId>(flows_.size() - 1);
  }

  void AddAvailability(FlowId flow, double mb) {
    Flow& f = flows_.at(flow);
    f.available_mb = std::min(f.available_mb + mb, f.total_mb);
    RecomputeRates();
  }

  void Advance(SimTime now) {
    if (now < last_update_ - kTimeEpsilon)
      throw std::logic_error("ShuffleModel::Advance: time moved backwards");
    const double dt = std::max(0.0, now - last_update_);
    if (dt > 0.0) {
      for (Flow& f : flows_) {
        if (!FlowActive(f)) continue;
        const double fetchable = std::min(f.available_mb, f.total_mb);
        f.fetched_mb = std::min(f.fetched_mb + f.rate * dt, fetchable);
      }
    }
    last_update_ = now;
    RecomputeRates();
  }

  bool IsComplete(FlowId flow) const {
    const Flow& f = flows_.at(flow);
    return f.fetched_mb + 1e-9 >= f.total_mb;
  }

  double FetchedMb(FlowId flow) const { return flows_.at(flow).fetched_mb; }

  SimTime NextEventTime() const {
    SimTime next = kTimeInfinity;
    for (const Flow& f : flows_) {
      if (!FlowActive(f) || f.rate <= 0.0) continue;
      const double fetchable = std::min(f.available_mb, f.total_mb);
      const double remaining = fetchable - f.fetched_mb;
      next = std::min(next, last_update_ + remaining / f.rate);
    }
    return next;
  }

  void Retire(FlowId flow) {
    flows_.at(flow).retired = true;
    RecomputeRates();
  }

  int ActiveFlowCount() const { return active_count_; }

 private:
  struct Flow {
    double total_mb = 0.0;
    double available_mb = 0.0;
    double fetched_mb = 0.0;
    double rate = 0.0;  // MB/s as of the last recompute
    bool retired = false;
  };

  bool FlowActive(const Flow& f) const {
    if (f.retired) return false;
    const double fetchable = std::min(f.available_mb, f.total_mb);
    return f.fetched_mb + 1e-9 < fetchable;
  }

  void RecomputeRates() {
    active_count_ = 0;
    for (const Flow& f : flows_) {
      if (FlowActive(f)) ++active_count_;
    }
    const double shared =
        active_count_ > 0 ? aggregate_bw_ / active_count_ : 0.0;
    const double rate = std::min(per_flow_cap_, shared);
    for (Flow& f : flows_) {
      f.rate = FlowActive(f) ? rate : 0.0;
    }
  }

  double aggregate_bw_;
  double per_flow_cap_;
  std::vector<Flow> flows_;
  SimTime last_update_ = 0.0;
  int active_count_ = 0;
};

}  // namespace simmr::cluster
