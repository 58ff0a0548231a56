// Scaling gates: work per event must not grow with the size of the run.
//
// Each gate runs one simulator on a workload N, 2N and 4N times over and
// compares an exact profiler work count per dispatched event. The counts
// are exact, so a gate has no timing and no host dependence. A bound is
// tightened, never loosened, as the paths it covers get cheaper.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster_sim.h"
#include "prof/profiler.h"

namespace simmr::prof {
namespace {

/// Flow visits per dispatched event when the validation suite runs
/// `copies` times back to back at the 1500 s gap (the `validate`
/// benchmark's spacing: every job starts on an idle cluster).
double ShuffleVisitsPerEvent(int copies) {
  std::vector<cluster::SubmittedJob> jobs;
  for (int c = 0; c < copies; ++c) {
    for (const cluster::JobSpec& spec : cluster::ValidationSuite())
      jobs.push_back({spec, 1500.0 * static_cast<double>(jobs.size()), 0.0});
  }
  Reset();
  Arm();
  const cluster::TestbedResult result =
      cluster::RunTestbed(jobs, cluster::TestbedOptions{});
  Disarm();
  const std::uint64_t events = Value(Counter::kEventsDispatched);
  const std::uint64_t visits = Value(Counter::kShuffleFlowVisits);
  Reset();
  EXPECT_EQ(events, result.events_processed);
  EXPECT_GT(visits, 0u);
  return static_cast<double>(visits) / static_cast<double>(events);
}

TEST(ScalingGate, TestbedShuffleVisitsPerEventStayFlat) {
  if (!SIMMR_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  // A shuffle model that walks every flow it ever created costs
  // O(reduces launched so far) per event; one that walks only the active
  // flows costs the same per event at 6, 12 and 24 jobs.
  const double base = ShuffleVisitsPerEvent(1);
  const double twice = ShuffleVisitsPerEvent(2);
  const double four_times = ShuffleVisitsPerEvent(4);
  EXPECT_LE(twice, 1.25 * base);
  EXPECT_LE(four_times, 1.25 * base)
      << "visits per event: 6 jobs " << base << ", 12 jobs " << twice
      << ", 24 jobs " << four_times;
}

}  // namespace
}  // namespace simmr::prof
