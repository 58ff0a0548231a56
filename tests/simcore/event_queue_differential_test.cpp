// Differential test: simmr::EventQueue (radix queue) against the binary
// heap kept in reference_event_queue.h. Seeded random call sequences drive
// both queues; every popped entry, peeked time and tie group must agree
// exactly: time bits, sequence and payload.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference_event_queue.h"
#include "simcore/event_queue.h"
#include "simcore/rng.h"

namespace simmr {
namespace {

using Queue = EventQueue<std::uint64_t>;
using Reference = ReferenceEventQueue<std::uint64_t>;

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

template <typename A, typename B>
void ExpectSameEntry(const A& got, const B& want) {
  EXPECT_EQ(Bits(got.time), Bits(want.time))
      << "time " << got.time << " vs " << want.time;
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.payload, want.payload);
}

class Differential {
 public:
  void Push(double time) {
    queue_.Push(time, next_payload_);
    reference_.Push(time, next_payload_);
    ++next_payload_;
    pushed_.push_back(time);
  }

  void Pop() {
    if (reference_.Empty()) {
      EXPECT_THROW(queue_.Pop(), std::logic_error);
      return;
    }
    const Reference::Entry want = reference_.Pop();
    const Queue::Entry got = queue_.Pop();
    ExpectSameEntry(got, want);
    last_pop_ = want.time;
  }

  void Peek() {
    if (reference_.Empty()) {
      EXPECT_THROW(queue_.PeekTime(), std::logic_error);
      return;
    }
    EXPECT_EQ(Bits(queue_.PeekTime()), Bits(reference_.PeekTime()));
  }

  void CompareTies() {
    EXPECT_EQ(queue_.EarliestCount(), reference_.EarliestCount());
    const auto got = queue_.EarliestEntries();
    const auto want = reference_.EarliestEntries();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ExpectSameEntry(*got[i], *want[i]);
  }

  void PopAmongEarliest(std::size_t k) {
    if (k > 0 && k >= reference_.EarliestCount()) {
      EXPECT_THROW(queue_.PopAmongEarliest(k), std::logic_error);
      EXPECT_THROW(reference_.PopAmongEarliest(k), std::logic_error);
      return;
    }
    if (reference_.Empty()) {
      EXPECT_THROW(queue_.PopAmongEarliest(k), std::logic_error);
      return;
    }
    const Reference::Entry want = reference_.PopAmongEarliest(k);
    const Queue::Entry got = queue_.PopAmongEarliest(k);
    ExpectSameEntry(got, want);
    last_pop_ = want.time;
  }

  void Clear() {
    queue_.Clear();
    reference_.Clear();
  }

  void ExpectSameSize() {
    EXPECT_EQ(queue_.Size(), reference_.Size());
    EXPECT_EQ(queue_.Empty(), reference_.Empty());
    EXPECT_EQ(queue_.TotalPushed(), reference_.TotalPushed());
  }

  std::size_t EarliestCount() { return reference_.EarliestCount(); }
  bool Empty() const { return reference_.Empty(); }
  double last_pop() const { return last_pop_; }
  const std::vector<double>& pushed() const { return pushed_; }

 private:
  Queue queue_;
  Reference reference_;
  std::uint64_t next_payload_ = 1000;
  double last_pop_ = 0.0;
  std::vector<double> pushed_;
};

/// A time drawn to stress the key: zeros of both signs, infinities,
/// negatives, subnormals, magnitudes from 1e-300 to 1e300, repeats of
/// earlier times (ties), and times at or after the last pop, as a simulator
/// schedules them. Many of them fall before the last pop.
double DrawTime(Rng& rng, const Differential& queues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng.NextBounded(14)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return kInf;
    case 3:
      return -kInf;
    case 4:
      return static_cast<double>(rng.NextBounded(4));
    case 5:
      return -static_cast<double>(rng.NextBounded(4)) - 0.5;
    case 6: {
      const double magnitude =
          rng.NextDouble(1.0, 10.0) *
          std::pow(10.0, static_cast<double>(rng.NextBounded(601)) - 300.0);
      return rng.NextBounded(2) == 0 ? magnitude : -magnitude;
    }
    case 7: {
      constexpr double kEdges[] = {
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max(),
          1e-300,
          1e300};
      return kEdges[rng.NextBounded(std::size(kEdges))];
    }
    case 8:
    case 9:
      if (!queues.pushed().empty())
        return queues.pushed()[rng.NextBounded(queues.pushed().size())];
      return 1.0;
    case 10:
      return queues.last_pop();
    default: {
      const double step = rng.NextBounded(3) == 0
                              ? 0.0
                              : std::ldexp(rng.NextDouble(),
                                           static_cast<int>(
                                               rng.NextBounded(40)) - 20);
      return queues.last_pop() + step;
    }
  }
}

void RunSequence(std::uint64_t seed) {
  Rng rng(seed);
  Differential queues;
  const int steps = 200 + static_cast<int>(rng.NextBounded(400));
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t op = rng.NextBounded(100);
    if (op < 40) {
      queues.Push(DrawTime(rng, queues));
    } else if (op < 46) {
      // A burst of ties at one time.
      const double time = DrawTime(rng, queues);
      for (std::uint64_t i = 1 + rng.NextBounded(5); i > 0; --i)
        queues.Push(time);
    } else if (op < 66) {
      queues.Pop();
    } else if (op < 71) {
      queues.Peek();
    } else if (op < 80) {
      queues.CompareTies();
    } else if (op < 99) {
      queues.PopAmongEarliest(rng.NextBounded(queues.EarliestCount() + 2));
    } else {
      queues.Clear();
    }
    queues.ExpectSameSize();
    if (::testing::Test::HasFailure()) return;
  }
  while (!queues.Empty()) {
    queues.CompareTies();
    queues.Pop();
    queues.ExpectSameSize();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EventQueueDifferential, MatchesTheHeapOnRandomCallSequences) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSequence(seed);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EventQueueDifferential, SimulatorLikeRunsMatchTheHeap) {
  // Monotone pushes, as the simulators make them: at the clock or after
  // it, with many same-time follow-ups, drained by Pop.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Differential queues;
    for (int i = 0; i < 200; ++i)
      queues.Push(static_cast<double>(rng.NextBounded(100000)));
    while (!queues.Empty()) {
      queues.Pop();
      for (std::uint64_t i = rng.NextBounded(3); i > 0; --i) {
        const double ahead =
            rng.NextBounded(2) == 0 ? 0.0 : rng.NextDouble(0.0, 500.0);
        if (queues.pushed().size() < 5000)
          queues.Push(queues.last_pop() + ahead);
      }
      queues.ExpectSameSize();
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(EventQueueDifferential, NaNTimeThrowsAndLeavesTheQueueUnchanged) {
  EventQueue<int> q;
  q.Push(1.0, 1);
  EXPECT_THROW(q.Push(std::numeric_limits<double>::quiet_NaN(), 2),
               std::logic_error);
  EXPECT_THROW(q.Push(-std::numeric_limits<double>::quiet_NaN(), 3),
               std::logic_error);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.TotalPushed(), 1u);
  const auto e = q.Pop();
  EXPECT_EQ(e.payload, 1);
  EXPECT_EQ(e.sequence, 0u);
  q.Push(2.0, 4);
  EXPECT_EQ(q.Pop().sequence, 1u);  // the failed pushes took no sequence
}

TEST(EventQueueDifferential, MoveOnlyPayloadsThroughEveryPath) {
  EventQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 8; ++i)
    q.Push(static_cast<double>(i % 4), std::make_unique<int>(i));
  // Refill, then a push before the base re-buckets the pending entries.
  EXPECT_EQ(*q.Pop().payload, 0);
  EXPECT_EQ(*q.Pop().payload, 4);
  q.Push(-1.0, std::make_unique<int>(8));
  EXPECT_EQ(q.EarliestCount(), 1u);
  EXPECT_EQ(*q.EarliestEntries()[0]->payload, 8);
  EXPECT_EQ(*q.Pop().payload, 8);
  ASSERT_EQ(q.EarliestCount(), 2u);
  EXPECT_EQ(*q.PopAmongEarliest(1).payload, 5);
  EXPECT_EQ(*q.Pop().payload, 1);
  std::vector<int> rest;
  while (!q.Empty()) rest.push_back(*q.Pop().payload);
  EXPECT_EQ(rest, (std::vector<int>{2, 6, 3, 7}));
}

}  // namespace
}  // namespace simmr
