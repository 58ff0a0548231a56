// Scaling gates: work per event must not grow with the size of the run.
//
// Each gate runs one simulator on a workload N, 2N and 4N times over and
// compares an exact profiler work count per dispatched event (or per
// scheduler decision, or per event-queue push). The counts are exact, so a gate has no timing and
// no host dependence. A bound is tightened, never loosened, as the paths
// it covers get cheaper.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/session.h"
#include "cluster/cluster_sim.h"
#include "core/simmr.h"
#include "prof/profiler.h"
#include "sched/capacity.h"
#include "sched/fifo.h"
#include "trace/synthetic_tracegen.h"
#include "trace/workload.h"

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

/// Forwards every call and counts the decisions.
class DecisionCounter final : public core::SchedulerPolicy {
 public:
  explicit DecisionCounter(core::SchedulerPolicy& inner) : inner_(&inner) {}

  const char* Name() const override { return inner_->Name(); }
  void OnJobArrival(const core::JobState& job, SimTime now) override {
    inner_->OnJobArrival(job, now);
  }
  void OnJobCompletion(const core::JobState& job, SimTime now) override {
    inner_->OnJobCompletion(job, now);
  }
  core::JobId ChooseNextMapTask(core::JobQueue queue) override {
    ++decisions_;
    return inner_->ChooseNextMapTask(queue);
  }
  core::JobId ChooseNextReduceTask(core::JobQueue queue) override {
    ++decisions_;
    return inner_->ChooseNextReduceTask(queue);
  }

  std::uint64_t decisions() const { return decisions_; }

 private:
  core::SchedulerPolicy* inner_;
  std::uint64_t decisions_ = 0;
};

constexpr int kMapSlots = 16;
constexpr int kReduceSlots = 8;

core::SimConfig GateConfig() {
  core::SimConfig config;
  config.map_slots = kMapSlots;
  config.reduce_slots = kReduceSlots;
  return config;
}

/// `jobs` jobs drawn from six synthetic profiles, arriving every
/// `mean_interarrival_s` on average, with deadlines at 1.5x their solo
/// time on a 16+8-slot cluster. At 5 s arrivals outpace the cluster, so
/// the queue grows with the job count; at 1000 s each job runs alone.
trace::WorkloadTrace SyntheticWorkload(int jobs, double mean_interarrival_s) {
  Rng rng(7);
  std::vector<trace::JobProfile> pool;
  for (int i = 0; i < 6; ++i) {
    trace::SyntheticJobSpec spec;
    spec.app_name = "app" + std::to_string(i);
    spec.num_maps = 8 + 8 * i;
    spec.num_reduces = 2 + i;
    spec.first_wave_size = 2;
    spec.map_duration = std::make_shared<UniformDist>(5.0, 25.0);
    spec.first_shuffle_duration = std::make_shared<UniformDist>(1.0, 4.0);
    spec.typical_shuffle_duration = std::make_shared<UniformDist>(2.0, 8.0);
    spec.reduce_duration = std::make_shared<UniformDist>(2.0, 10.0);
    pool.push_back(trace::SynthesizeProfile(spec, rng));
  }
  const std::vector<double> solos =
      core::MeasureSoloCompletions(pool, GateConfig());
  trace::WorkloadParams params;
  params.num_jobs = jobs;
  params.mean_interarrival_s = mean_interarrival_s;
  params.deadline_factor = 1.5;
  return trace::MakeWorkload(pool, solos, params, rng);
}

/// Jobs `inner` visits per decision when it replays `jobs` backlogged jobs
/// (5 s mean inter-arrival).
double PolicyVisitsPerDecision(core::SchedulerPolicy& inner, int jobs) {
  const trace::WorkloadTrace workload = SyntheticWorkload(jobs, 5.0);
  DecisionCounter counter(inner);
  Reset();
  Arm();
  const core::SimResult result = core::Replay(workload, counter, GateConfig());
  Disarm();
  const std::uint64_t visits = Value(Counter::kSchedJobsVisited);
  Reset();
  EXPECT_EQ(result.jobs.size(), workload.size()) << inner.Name();
  EXPECT_GT(counter.decisions(), 0u) << inner.Name();
  return static_cast<double>(visits) /
         static_cast<double>(counter.decisions());
}

/// The same for the policy `backend::MakePolicy` builds under `policy`.
double PolicyVisitsPerDecision(const std::string& policy, int jobs) {
  const std::unique_ptr<core::SchedulerPolicy> inner =
      backend::MakePolicy(policy, kMapSlots, kReduceSlots);
  return PolicyVisitsPerDecision(*inner, jobs);
}

TEST(ScalingGate, PolicyJobsVisitedPerDecisionStayFlat) {
  if (!SIMMR_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  // A policy that scans the queue visits O(backlog) jobs per decision; one
  // that reads the engine's ready sets visits at most the jobs holding
  // slots plus one, whatever the backlog.
  for (const char* policy : {"fifo", "maxedf", "minedf", "fair", "capacity"}) {
    const double base = PolicyVisitsPerDecision(policy, 60);
    const double twice = PolicyVisitsPerDecision(policy, 120);
    const double four_times = PolicyVisitsPerDecision(policy, 240);
    EXPECT_GT(base, 0.0) << policy;
    EXPECT_LE(twice, 1.25 * base) << policy;
    EXPECT_LE(four_times, 1.25 * base)
        << policy << " visits per decision: 60 jobs " << base
        << ", 120 jobs " << twice << ", 240 jobs " << four_times;
  }
}

TEST(ScalingGate, CapacityWithAnEmptyQueueVisitsStayFlat) {
  if (!SIMMR_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  // Every job lands in the second of two queues. A head walk that waits
  // for the first queue's head, which never comes, visits the whole ready
  // set on every decision.
  const auto visits = [](int jobs) {
    sched::CapacityPolicy policy(
        kMapSlots, kReduceSlots, {{"idle", 0.5}, {"busy", 0.5}},
        [](const core::JobState&) { return std::string("busy"); });
    return PolicyVisitsPerDecision(policy, jobs);
  };
  const double base = visits(60);
  const double twice = visits(120);
  const double four_times = visits(240);
  EXPECT_GT(base, 0.0);
  EXPECT_LE(twice, 1.25 * base);
  EXPECT_LE(four_times, 1.25 * base)
      << "visits per decision: 60 jobs " << base << ", 120 jobs " << twice
      << ", 240 jobs " << four_times;
}

/// Entries the event queue moves between buckets per push when FIFO
/// replays `jobs` jobs arriving every `mean_interarrival_s` on average.
double QueueMovesPerPush(int jobs, double mean_interarrival_s) {
  const trace::WorkloadTrace workload =
      SyntheticWorkload(jobs, mean_interarrival_s);
  sched::FifoPolicy fifo;
  Reset();
  Arm();
  const core::SimResult result = core::Replay(workload, fifo, GateConfig());
  Disarm();
  const std::uint64_t pushes = Value(Counter::kHeapPushes);
  const std::uint64_t moves = Value(Counter::kQueueEntryMoves);
  Reset();
  EXPECT_EQ(pushes, result.events_processed);
  EXPECT_GT(moves, 0u);
  return static_cast<double>(moves) / static_cast<double>(pushes);
}

TEST(ScalingGate, QueueMovesPerPushStayFlat) {
  if (!SIMMR_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  // A radix queue moves each entry at most once per key bit it shares
  // with the base, whatever the queue's length; a backlogged replay keeps
  // hundreds of events pending, a paced one a few dozen.
  for (const double interarrival : {5.0, 1000.0}) {
    const double base = QueueMovesPerPush(60, interarrival);
    const double twice = QueueMovesPerPush(120, interarrival);
    const double four_times = QueueMovesPerPush(240, interarrival);
    EXPECT_LE(twice, 1.25 * base) << interarrival;
    EXPECT_LE(four_times, 1.25 * base)
        << "mean inter-arrival " << interarrival << " s, moves per push: 60 "
        << "jobs " << base << ", 120 jobs " << twice << ", 240 jobs "
        << four_times;
  }
}

}  // namespace
}  // namespace simmr::prof
