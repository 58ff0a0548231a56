#include "core/ready_sets.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/scheduler.h"
#include "simcore/rng.h"

namespace simmr::core {
namespace {

/// Every member from NextFrom(0) on, in order.
std::vector<std::uint32_t> Members(const RankSet& set) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = set.NextFrom(0); r != RankSet::kEnd;
       r = set.NextFrom(r + 1))
    out.push_back(r);
  return out;
}

TEST(RankSet, EmptySetHasNoMembers) {
  RankSet set;
  set.Reset(0);
  EXPECT_EQ(set.NextFrom(0), RankSet::kEnd);
  set.Reset(100);
  EXPECT_EQ(set.NextFrom(0), RankSet::kEnd);
  EXPECT_EQ(set.NextFrom(99), RankSet::kEnd);
  EXPECT_EQ(set.NextFrom(100), RankSet::kEnd);
}

TEST(RankSet, MatchesAnOrderedSetUnderRandomInsertsAndErases) {
  // Capacities of one, two and three summary levels, with the last rank
  // in and out of a partial top word.
  for (const std::uint32_t capacity : {1u, 63u, 64u, 65u, 4096u, 4097u,
                                       20000u}) {
    Rng rng(capacity);
    RankSet set;
    set.Reset(capacity);
    std::set<std::uint32_t> reference;
    for (int step = 0; step < 4000; ++step) {
      const auto rank = static_cast<std::uint32_t>(rng.NextBounded(capacity));
      if (rng.NextBounded(3) == 0) {
        set.Erase(rank);
        reference.erase(rank);
      } else {
        set.Insert(rank);
        reference.insert(rank);
      }
      ASSERT_EQ(set.NextFrom(rank) == rank, reference.count(rank) == 1);
      const auto from = static_cast<std::uint32_t>(rng.NextBounded(capacity));
      const auto it = reference.lower_bound(from);
      ASSERT_EQ(set.NextFrom(from), it == reference.end() ? RankSet::kEnd : *it)
          << "capacity " << capacity << " step " << step;
    }
    EXPECT_EQ(Members(set),
              std::vector<std::uint32_t>(reference.begin(), reference.end()));
    for (const std::uint32_t rank : std::vector<std::uint32_t>(
             reference.begin(), reference.end()))
      set.Erase(rank);
    EXPECT_EQ(set.NextFrom(0), RankSet::kEnd) << "capacity " << capacity;
  }
}

TEST(ReadySets, TracksMembershipAndBothOrders) {
  trace::JobProfile p;
  p.app_name = "j";
  p.num_maps = 2;
  p.num_reduces = 1;
  p.map_durations = {1.0, 1.0};
  p.first_shuffle_durations = {1.0};
  p.reduce_durations = {1.0};
  // Job 0 has the later deadline, job 2 none: EDF order is 1, 0, 2.
  std::vector<std::unique_ptr<JobState>> jobs;
  jobs.push_back(std::make_unique<JobState>(0, p, 0.0, 50.0, 0.0));
  jobs.push_back(std::make_unique<JobState>(1, p, 1.0, 20.0, 0.0));
  jobs.push_back(std::make_unique<JobState>(2, p, 2.0, 0.0, 0.0));
  ReadySets ready;
  ready.Reset(jobs);
  const JobQueue queue(ready);
  const auto ids = [](JobSet set) {
    std::vector<JobId> out;
    for (const JobState* job : set) out.push_back(job->id());
    return out;
  };

  for (const auto& job : jobs) ready.Arrive(*job);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(ids(queue.MapReady()), (std::vector<JobId>{0, 1, 2}));
  EXPECT_EQ(ids(queue.MapReadyByDeadline()), (std::vector<JobId>{1, 0, 2}));
  EXPECT_EQ(queue.ReduceReady().front(), nullptr);
  EXPECT_EQ(queue.SlotHolders().front(), nullptr);

  // Job 1 launches both maps: it holds slots and leaves the map sets.
  jobs[1]->maps_launched = 2;
  ready.Update(*jobs[1]);
  EXPECT_EQ(ids(queue.MapReady()), (std::vector<JobId>{0, 2}));
  EXPECT_EQ(ids(queue.MapReadyByDeadline()), (std::vector<JobId>{0, 2}));
  EXPECT_EQ(ids(queue.SlotHolders()), (std::vector<JobId>{1}));

  // A kill requeues one map, and the gate opens.
  jobs[1]->requeued_maps.push_back(1);
  jobs[1]->reduce_gate_open = true;
  ready.Update(*jobs[1]);
  EXPECT_EQ(ids(queue.MapReady()), (std::vector<JobId>{0, 1, 2}));
  EXPECT_EQ(ids(queue.MapReadyByDeadline()), (std::vector<JobId>{1, 0, 2}));
  EXPECT_EQ(ids(queue.ReduceReadyByDeadline()), (std::vector<JobId>{1}));
  EXPECT_EQ(ids(queue.SlotHolders()), (std::vector<JobId>{1}));

  // The last running map of job 1 completes.
  jobs[1]->maps_completed = 1;
  ready.Update(*jobs[1]);
  EXPECT_EQ(queue.SlotHolders().front(), nullptr);
}

}  // namespace
}  // namespace simmr::core
