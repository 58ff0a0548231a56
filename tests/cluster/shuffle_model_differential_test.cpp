// Differential test: cluster::ShuffleModel (active-flow index, one shared
// rate) against the original all-flows model kept in
// reference_shuffle_model.h. Seeded random operation sequences drive both
// models; after every step they must agree bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/shuffle_model.h"
#include "reference_shuffle_model.h"
#include "simcore/rng.h"

namespace simmr::cluster {
namespace {

class Differential {
 public:
  Differential(double aggregate_bw, double per_flow_cap)
      : model_(aggregate_bw, per_flow_cap),
        reference_(aggregate_bw, per_flow_cap) {}

  void AddFlow(double total_mb, double available_mb) {
    const FlowId id = model_.AddFlow(total_mb, available_mb);
    EXPECT_EQ(id, reference_.AddFlow(total_mb, available_mb));
    retired_.push_back(false);
  }
  void AddAvailability(FlowId id, double mb) {
    model_.AddAvailability(id, mb);
    reference_.AddAvailability(id, mb);
  }
  void Advance(SimTime now) {
    model_.Advance(now);
    reference_.Advance(now);
    now_ = now;
  }
  void Retire(FlowId id) {
    model_.Retire(id);
    reference_.Retire(id);
    retired_[static_cast<std::size_t>(id)] = true;
  }

  /// Both models agree on every observable, exactly.
  void ExpectAgree() const {
    int complete_unretired = 0;
    for (FlowId id = 0; id < flow_count(); ++id) {
      EXPECT_EQ(model_.FetchedMb(id), reference_.FetchedMb(id)) << "flow " << id;
      EXPECT_EQ(model_.IsComplete(id), reference_.IsComplete(id))
          << "flow " << id;
      if (reference_.IsComplete(id) && !retired_[static_cast<std::size_t>(id)])
        ++complete_unretired;
    }
    EXPECT_EQ(model_.NextEventTime(), reference_.NextEventTime());
    EXPECT_EQ(model_.ActiveFlowCount(), reference_.ActiveFlowCount());
    EXPECT_EQ(model_.CompleteUnretiredCount(), complete_unretired);
  }

  FlowId flow_count() const { return static_cast<FlowId>(retired_.size()); }
  bool retired(FlowId id) const {
    return retired_[static_cast<std::size_t>(id)];
  }
  bool complete(FlowId id) const { return reference_.IsComplete(id); }
  SimTime now() const { return now_; }
  SimTime next_event() const { return reference_.NextEventTime(); }

 private:
  ShuffleModel model_;
  ReferenceShuffleModel reference_;
  std::vector<bool> retired_;
  SimTime now_ = 0.0;
};

/// Picks a flow satisfying `pred`, or -1 when none does.
template <typename Pred>
FlowId PickFlow(const Differential& d, Rng& rng, Pred pred) {
  std::vector<FlowId> candidates;
  for (FlowId id = 0; id < d.flow_count(); ++id)
    if (pred(id)) candidates.push_back(id);
  if (candidates.empty()) return -1;
  return candidates[rng.NextBounded(candidates.size())];
}

/// One random operation. Sizes, amounts and steps are drawn so that flows
/// are often starved, often contended and often finish at the same instant.
void Step(Differential& d, Rng& rng) {
  const double op = rng.NextDouble();
  if (op < 0.25) {
    const double kind = rng.NextDouble();
    const double total = kind < 0.1 ? 0.0 : rng.NextDouble(0.0, 200.0);
    double available = rng.NextDouble(0.0, 1.2 * total);
    if (kind >= 0.1 && kind < 0.3) available = 0.0;
    d.AddFlow(total, available);
  } else if (op < 0.5) {
    if (d.flow_count() == 0) return;
    const FlowId id =
        static_cast<FlowId>(rng.NextBounded(static_cast<std::uint64_t>(
            d.flow_count())));
    // Sometimes far past the flow's total, which the models clamp.
    const double mb = rng.NextDouble() < 0.1 ? 1000.0
                                              : rng.NextDouble(0.0, 50.0);
    d.AddAvailability(id, mb);
  } else if (op < 0.85) {
    const double how = rng.NextDouble();
    const SimTime next = d.next_event();
    if (how < 0.15) {
      d.Advance(d.now());  // dt = 0
    } else if (how < 0.5 && next < kTimeInfinity) {
      d.Advance(next);  // exactly to the next starvation or completion
    } else {
      d.Advance(d.now() + rng.NextDouble(0.0, 20.0));
    }
  } else {
    // Retire a completed flow (the fetch-done path) or, less often, one
    // still fetching (the kill path).
    const bool kill = rng.NextDouble() < 0.3;
    const FlowId id = PickFlow(d, rng, [&d, kill](FlowId f) {
      return !d.retired(f) && d.complete(f) != kill;
    });
    if (id >= 0) d.Retire(id);
  }
}

TEST(ShuffleModelDifferential, AgreesWithAllFlowsReferenceBitForBit) {
  const Rng master(20111);
  for (std::uint64_t seq = 0; seq < 120; ++seq) {
    Rng rng = master.Split("sequence", seq);
    // Both regimes: a per-flow cap that binds alone, and an aggregate
    // that a handful of flows oversubscribe.
    const double aggregate = rng.NextDouble(5.0, 200.0);
    const double cap = rng.NextDouble(1.0, 50.0);
    Differential d(aggregate, cap);
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE(::testing::Message()
                   << "sequence " << seq << " step " << step);
      Step(d, rng);
      d.ExpectAgree();
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace simmr::cluster
