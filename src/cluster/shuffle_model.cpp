#include "cluster/shuffle_model.h"

#include <algorithm>
#include <stdexcept>

#include "prof/profiler.h"

namespace simmr::cluster {

ShuffleModel::ShuffleModel(double aggregate_bw, double per_flow_cap)
    : aggregate_bw_(aggregate_bw), per_flow_cap_(per_flow_cap) {
  if (aggregate_bw <= 0 || per_flow_cap <= 0)
    throw std::invalid_argument("ShuffleModel: nonpositive bandwidth");
}

bool ShuffleModel::FlowActive(const Flow& f) const {
  if (f.retired) return false;
  const double fetchable = std::min(f.available_mb, f.total_mb);
  return f.fetched_mb + 1e-9 < fetchable;
}

bool ShuffleModel::FlowComplete(const Flow& f) const {
  return f.fetched_mb + 1e-9 >= f.total_mb;
}

FlowId ShuffleModel::AddFlow(double total_mb, double available_mb) {
  Flow f;
  f.total_mb = std::max(total_mb, 0.0);
  f.available_mb = std::min(std::max(available_mb, 0.0), f.total_mb);
  const auto id = static_cast<FlowId>(flows_.size());
  flows_.push_back(f);
  if (FlowComplete(f)) ++complete_unretired_;
  SyncActive(id);
  return id;
}

void ShuffleModel::AddAvailability(FlowId flow, double mb) {
  Flow& f = flows_.at(flow);
  f.available_mb = std::min(f.available_mb + mb, f.total_mb);
  SyncActive(flow);
}

void ShuffleModel::Advance(SimTime now) {
  if (now < last_update_ - kTimeEpsilon)
    throw std::logic_error("ShuffleModel::Advance: time moved backwards");
  const double dt = std::max(0.0, now - last_update_);
  const std::size_t visited = dt > 0.0 ? active_.size() : 0;
  if (dt > 0.0) {
    // Every active flow advances at the rate it had before this step; flows
    // that drain or starve leave the set, and the rate changes after.
    for (std::size_t i = 0; i < active_.size();) {
      Flow& f = flows_[active_[i]];
      const double fetchable = std::min(f.available_mb, f.total_mb);
      f.fetched_mb = std::min(f.fetched_mb + rate_ * dt, fetchable);
      if (FlowActive(f)) {
        ++i;
        continue;
      }
      if (FlowComplete(f)) ++complete_unretired_;
      RemoveActiveAt(i);
    }
    if (active_.size() != visited) RecomputeRate();
  }
  last_update_ = now;
  prof::Count(prof::Counter::kShuffleFlowVisits, visited);
}

void ShuffleModel::SyncActive(FlowId id) {
  Flow& f = flows_[id];
  const bool active = FlowActive(f);
  if (active == (f.active_slot >= 0)) return;
  if (active) {
    f.active_slot = static_cast<std::int32_t>(active_.size());
    active_.push_back(id);
  } else {
    RemoveActiveAt(static_cast<std::size_t>(f.active_slot));
  }
  RecomputeRate();
}

void ShuffleModel::RemoveActiveAt(std::size_t slot) {
  flows_[active_[slot]].active_slot = -1;
  const FlowId last = active_.back();
  active_.pop_back();
  if (slot < active_.size()) {
    active_[slot] = last;
    flows_[last].active_slot = static_cast<std::int32_t>(slot);
  }
}

void ShuffleModel::RecomputeRate() {
  const int active_count = static_cast<int>(active_.size());
  const double shared =
      active_count > 0 ? aggregate_bw_ / active_count : 0.0;
  rate_ = std::min(per_flow_cap_, shared);
}

bool ShuffleModel::IsComplete(FlowId flow) const {
  return FlowComplete(flows_.at(flow));
}

double ShuffleModel::FetchedMb(FlowId flow) const {
  return flows_.at(flow).fetched_mb;
}

SimTime ShuffleModel::NextEventTime() const {
  prof::Count(prof::Counter::kShuffleFlowVisits, active_.size());
  SimTime next = kTimeInfinity;
  if (rate_ <= 0.0) return next;
  for (const FlowId id : active_) {
    const Flow& f = flows_[id];
    const double fetchable = std::min(f.available_mb, f.total_mb);
    const double remaining = fetchable - f.fetched_mb;
    next = std::min(next, last_update_ + remaining / rate_);
  }
  return next;
}

void ShuffleModel::Retire(FlowId flow) {
  Flow& f = flows_.at(flow);
  if (f.retired) return;
  if (FlowComplete(f)) --complete_unretired_;
  f.retired = true;
  SyncActive(flow);
}

}  // namespace simmr::cluster
