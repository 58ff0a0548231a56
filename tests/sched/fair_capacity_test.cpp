#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/simmr.h"
#include "sched/capacity.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "trace/synthetic_tracegen.h"
#include "trace/workload.h"

namespace simmr::sched {
namespace {

trace::JobProfile UniformProfile(const std::string& app, int num_maps,
                                 int num_reduces) {
  trace::JobProfile p;
  p.app_name = app;
  p.num_maps = num_maps;
  p.num_reduces = num_reduces;
  p.map_durations.assign(num_maps, 10.0);
  p.first_shuffle_durations.assign(1, 3.0);
  if (num_reduces > 1)
    p.typical_shuffle_durations.assign(num_reduces - 1, 5.0);
  p.reduce_durations.assign(num_reduces, 2.0);
  return p;
}

double CompletionOf(const core::SimResult& result, core::JobId id) {
  for (const auto& j : result.jobs) {
    if (j.job == id) return j.completion;
  }
  ADD_FAILURE() << "job " << id << " missing";
  return -1.0;
}

// ---------------------------------------------------------------- Fair ---

TEST(FairPolicyTest, EqualJobsShareTheClusterEqually) {
  // Two identical jobs arriving together: under fair sharing their
  // completion times should be (nearly) equal; under FIFO job 0 would
  // finish its map stage well before job 1 ramps.
  // Both must arrive at the same instant: a job arriving even epsilon
  // earlier legitimately wins a whole first wave (no preemption).
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile("a", 32, 4);
  w[1].profile = UniformProfile("b", 32, 4);
  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 8;
  FairPolicy fair;
  const auto result = core::Replay(w, fair, cfg);
  const double t0 = CompletionOf(result, 0);
  const double t1 = CompletionOf(result, 1);
  EXPECT_NEAR(t0, t1, 0.05 * std::max(t0, t1));
}

TEST(FairPolicyTest, WeightsSkewTheShare) {
  // Job 0 gets weight 3, job 1 weight 1: job 0 should finish much sooner.
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile("heavy", 32, 2);
  w[1].profile = UniformProfile("light", 32, 2);
  w[1].arrival = 0.001;
  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 4;
  FairPolicy fair;
  fair.SetWeight(0, 3.0);
  const auto result = core::Replay(w, fair, cfg);
  EXPECT_LT(CompletionOf(result, 0), CompletionOf(result, 1) * 0.85);
}

TEST(FairPolicyTest, LateArrivalGetsShareImmediately) {
  // A small job arriving mid-way through a big one should not wait for
  // the big job to drain (as it would under FIFO).
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile("big", 64, 2);
  w[1].profile = UniformProfile("small", 8, 2);
  w[1].arrival = 50.0;
  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 8;
  FairPolicy fair;
  const auto fair_result = core::Replay(w, fair, cfg);
  // Under fair share the small job gets ~half the slots on arrival:
  // 8 maps over 4 slots = 2 waves of 10 s + reduce ~ 30 s, well before
  // the big job's ~2x-stretched finish.
  EXPECT_LT(CompletionOf(fair_result, 1) - 50.0, 80.0);
}

TEST(FairPolicyTest, RejectsNonpositiveWeight) {
  FairPolicy fair;
  EXPECT_THROW(fair.SetWeight(0, 0.0), std::invalid_argument);
  EXPECT_THROW(fair.SetWeight(0, -1.0), std::invalid_argument);
  EXPECT_THROW(fair.SetWeight(-1, 1.0), std::invalid_argument);  // no job
}

TEST(FairPolicyTest, SingleJobRunsUnimpeded) {
  trace::WorkloadTrace w(1);
  w[0].profile = UniformProfile("solo", 16, 4);
  core::SimConfig cfg;
  cfg.map_slots = 16;
  cfg.reduce_slots = 4;
  FairPolicy fair;
  const auto result = core::Replay(w, fair, cfg);
  // One map wave (10 s); reduces launch after the map stage, so they use
  // the typical shuffle (5 s) + reduce (2 s).
  EXPECT_NEAR(result.jobs[0].completion, 17.0, 1e-9);
}

// ------------------------------------------------------------ Capacity ---

std::vector<QueueConfig> TwoQueues() {
  return {{"prod", 0.75}, {"adhoc", 0.25}};
}

CapacityPolicy::QueueClassifier ByAppName() {
  return [](const core::JobState& job) { return job.profile().app_name; };
}

TEST(CapacityPolicyTest, JobsLandInTheirQueues) {
  CapacityPolicy policy(8, 8, TwoQueues(), ByAppName());
  const trace::JobProfile prod = UniformProfile("prod", 4, 1);
  const trace::JobProfile adhoc = UniformProfile("adhoc", 4, 1);
  core::JobState j0(0, prod, 0.0, 0.0, 0.0);
  core::JobState j1(1, adhoc, 0.0, 0.0, 0.0);
  policy.OnJobArrival(j0, 0.0);
  policy.OnJobArrival(j1, 0.0);
  EXPECT_EQ(policy.QueueOf(0), "prod");
  EXPECT_EQ(policy.QueueOf(1), "adhoc");
}

TEST(CapacityPolicyTest, UnknownQueueFallsToFirst) {
  CapacityPolicy policy(8, 8, TwoQueues(), ByAppName());
  const trace::JobProfile other = UniformProfile("mystery", 4, 1);
  core::JobState j0(0, other, 0.0, 0.0, 0.0);
  policy.OnJobArrival(j0, 0.0);
  EXPECT_EQ(policy.QueueOf(0), "prod");
}

TEST(CapacityPolicyTest, GuaranteeProtectsSmallQueue) {
  // A big prod job floods the cluster; an adhoc job arriving later must
  // still finish quickly because 25% of slots are its guarantee as prod
  // tasks churn.
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile("prod", 128, 4);
  w[1].profile = UniformProfile("adhoc", 8, 2);
  w[1].arrival = 25.0;
  core::SimConfig cfg;
  cfg.map_slots = 16;
  cfg.reduce_slots = 8;
  CapacityPolicy policy(16, 8, TwoQueues(), ByAppName());
  const auto result = core::Replay(w, policy, cfg);
  // 4 guaranteed map slots => 2 waves of 10 s for its 8 maps, plus
  // reduce; far sooner than the prod job's ~80 s map stage end.
  EXPECT_LT(CompletionOf(result, 1), CompletionOf(result, 0));
  EXPECT_LT(CompletionOf(result, 1) - 25.0, 60.0);
}

TEST(CapacityPolicyTest, ElasticityLendsIdleCapacity) {
  // Only the adhoc queue has work: it should receive the whole cluster,
  // not just its 25%.
  trace::WorkloadTrace w(1);
  w[0].profile = UniformProfile("adhoc", 16, 2);
  core::SimConfig cfg;
  cfg.map_slots = 16;
  cfg.reduce_slots = 8;
  CapacityPolicy policy(16, 8, TwoQueues(), ByAppName());
  const auto result = core::Replay(w, policy, cfg);
  // All 16 maps in one wave (10 s) + typical shuffle (5 s) + reduce (2 s):
  // only possible if the queue borrowed beyond its 25% guarantee.
  EXPECT_NEAR(result.jobs[0].completion, 17.0, 1e-9);
}

TEST(CapacityPolicyTest, FifoWithinQueue) {
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile("prod", 16, 2);
  w[1].profile = UniformProfile("prod", 16, 2);
  w[1].arrival = 0.001;
  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 4;
  CapacityPolicy policy(8, 4, TwoQueues(), ByAppName());
  const auto result = core::Replay(w, policy, cfg);
  EXPECT_LT(CompletionOf(result, 0), CompletionOf(result, 1));
}

TEST(CapacityPolicyTest, RejectsBadConfiguration) {
  EXPECT_THROW(CapacityPolicy(0, 8, TwoQueues()), std::invalid_argument);
  EXPECT_THROW(CapacityPolicy(8, 8, {}), std::invalid_argument);
  EXPECT_THROW(CapacityPolicy(8, 8, {{"q", 0.0}}), std::invalid_argument);
  EXPECT_THROW(CapacityPolicy(8, 8, {{"q", 1.5}}), std::invalid_argument);
  EXPECT_THROW(CapacityPolicy(8, 8, {{"q", 0.5}, {"q", 0.5}}),
               std::invalid_argument);
}

TEST(CapacityPolicyTest, QueueOfUnknownJobThrows) {
  CapacityPolicy policy(8, 8, TwoQueues());
  EXPECT_THROW(policy.QueueOf(42), std::out_of_range);
}

TEST(CapacityPolicyTest, WorksWithoutClassifier) {
  trace::WorkloadTrace w(1);
  w[0].profile = UniformProfile("anything", 8, 2);
  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 4;
  CapacityPolicy policy(8, 4, TwoQueues());  // no classifier: first queue
  const auto result = core::Replay(w, policy, cfg);
  EXPECT_GT(result.jobs[0].completion, 0.0);
}

TEST(CapacityPolicyTest, OneUsedQueueOfTwoSchedulesAsFifo) {
  // Every job lands in the second queue, so the first never has a head:
  // its guarantee goes unused and the busy queue's head, the first ready
  // job, takes every slot, exactly as FIFO would give it.
  Rng rng(11);
  std::vector<trace::JobProfile> pool;
  for (int i = 0; i < 4; ++i) {
    trace::SyntheticJobSpec spec;
    spec.app_name = "app" + std::to_string(i);
    spec.num_maps = 6 + 10 * i;
    spec.num_reduces = 1 + i;
    spec.first_wave_size = 2;
    spec.map_duration = std::make_shared<UniformDist>(5.0, 25.0);
    spec.first_shuffle_duration = std::make_shared<UniformDist>(1.0, 4.0);
    spec.typical_shuffle_duration = std::make_shared<UniformDist>(2.0, 8.0);
    spec.reduce_duration = std::make_shared<UniformDist>(2.0, 10.0);
    pool.push_back(trace::SynthesizeProfile(spec, rng));
  }
  trace::WorkloadParams params;
  params.num_jobs = 80;
  params.mean_interarrival_s = 5.0;  // a backlog: the queue holds many jobs
  const trace::WorkloadTrace w = trace::MakeWorkload(
      pool, std::vector<double>(pool.size(), 0.0), params, rng);
  core::SimConfig cfg;
  cfg.map_slots = 16;
  cfg.reduce_slots = 8;
  FifoPolicy fifo;
  CapacityPolicy capacity(16, 8, TwoQueues(), [](const core::JobState&) {
    return std::string("adhoc");
  });
  const auto want = core::Replay(w, fifo, cfg);
  const auto got = core::Replay(w, capacity, cfg);
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t i = 0; i < want.jobs.size(); ++i) {
    EXPECT_EQ(got.jobs[i].job, want.jobs[i].job);
    EXPECT_EQ(got.jobs[i].first_launch, want.jobs[i].first_launch);
    EXPECT_EQ(got.jobs[i].completion, want.jobs[i].completion);
  }
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.makespan, want.makespan);
}

}  // namespace
}  // namespace simmr::sched
