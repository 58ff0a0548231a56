// Cross-simulator fault-injection behaviour: the same simmr.faultplan.v1
// actions must be deterministic in all three simulators, and each
// simulator's documented abstraction (engine = slot deltas, testbed =
// expiry + lost-map re-execution, Mumak = silenced heartbeats) must hold.
#include <gtest/gtest.h>

#include <set>

#include "cluster/app_model.h"
#include "cluster/cluster_sim.h"
#include "core/engine.h"
#include "core/simmr.h"
#include "fault/fault_gen.h"
#include "fault/fault_plan.h"
#include "mumak/mumak_sim.h"
#include "obs/observer.h"
#include "sched/fifo.h"

namespace simmr {
namespace {

/// Counts OnFaultEvent callbacks per kind.
class FaultRecorder final : public obs::SimObserver {
 public:
  void OnFaultEvent(SimTime /*now*/, obs::FaultEventKind kind,
                    std::int32_t /*node*/, std::int32_t /*job*/,
                    obs::TaskKind /*task_kind*/,
                    std::int32_t /*index*/) override {
    ++counts_[static_cast<std::size_t>(kind)];
  }
  int Count(obs::FaultEventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

 private:
  int counts_[4] = {0, 0, 0, 0};
};

fault::FaultAction NodeAction(fault::FaultActionKind kind, double time,
                              std::int32_t node) {
  fault::FaultAction a;
  a.kind = kind;
  a.time = time;
  a.node = node;
  return a;
}

fault::FaultAction KillAction(double time, std::int32_t job,
                              obs::TaskKind task_kind, std::int32_t index) {
  fault::FaultAction a;
  a.kind = fault::FaultActionKind::kKillAttempt;
  a.time = time;
  a.job = job;
  a.task_kind = task_kind;
  a.index = index;
  return a;
}

// --- generator ------------------------------------------------------------

TEST(FaultGen, SameSeedSamePlan) {
  const fault::FaultGenOptions opts;
  const fault::FaultPlan a = fault::GenerateFaultPlan(99, opts);
  const fault::FaultPlan b = fault::GenerateFaultPlan(99, opts);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.seed, 99u);
}

TEST(FaultGen, SeedsProduceDistinctPlans) {
  const fault::FaultGenOptions opts;
  bool any_differ = false;
  const fault::FaultPlan first = fault::GenerateFaultPlan(0, opts);
  for (std::uint64_t seed = 1; seed < 8 && !any_differ; ++seed)
    any_differ = !(fault::GenerateFaultPlan(seed, opts) == first);
  EXPECT_TRUE(any_differ);
}

TEST(FaultGen, EveryPlanValidatesAndSparesOneNode) {
  const fault::FaultGenOptions opts;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const fault::FaultPlan plan = fault::GenerateFaultPlan(seed, opts);
    EXPECT_EQ(fault::ValidateFaultPlan(plan), "") << "seed " << seed;
    std::set<std::int32_t> crashed;
    for (const auto& a : plan.actions)
      if (a.kind == fault::FaultActionKind::kNodeCrash) crashed.insert(a.node);
    EXPECT_LT(static_cast<std::int32_t>(crashed.size()), plan.num_nodes)
        << "seed " << seed;
  }
}

// --- engine (slot-level) --------------------------------------------------

/// 10 s maps, 5 s typical shuffles, 2 s reduces.
trace::JobProfile UniformProfile(int num_maps, int num_reduces) {
  trace::JobProfile p;
  p.app_name = "uniform";
  p.num_maps = num_maps;
  p.num_reduces = num_reduces;
  p.map_durations.assign(num_maps, 10.0);
  p.typical_shuffle_durations.assign(num_reduces, 5.0);
  p.reduce_durations.assign(num_reduces, 2.0);
  return p;
}

trace::WorkloadTrace SingleJob(int num_maps, int num_reduces) {
  trace::WorkloadTrace w(1);
  w[0].profile = UniformProfile(num_maps, num_reduces);
  return w;
}

/// Geometry matching a 4+2-slot engine: 2 nodes x (2 map + 1 reduce).
fault::FaultPlan EnginePlan() {
  fault::FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 2;
  plan.reduce_slots_per_node = 1;
  return plan;
}

core::SimConfig EngineConfig(const fault::FaultPlan* plan) {
  core::SimConfig cfg;
  cfg.map_slots = 4;
  cfg.reduce_slots = 2;
  cfg.fault_plan = plan;
  return cfg;
}

TEST(EngineFaults, CrashShrinksCapacityAndExtendsMakespan) {
  sched::FifoPolicy fifo;
  const double clean =
      core::Replay(SingleJob(16, 2), fifo, EngineConfig(nullptr))
          .jobs[0]
          .CompletionTime();

  fault::FaultPlan plan = EnginePlan();
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 15.0, 0)};
  FaultRecorder recorder;
  core::SimConfig cfg = EngineConfig(&plan);
  cfg.observer = &recorder;
  const auto faulted = core::Replay(SingleJob(16, 2), fifo, cfg);
  ASSERT_EQ(faulted.jobs.size(), 1u);
  EXPECT_GT(faulted.jobs[0].CompletionTime(), clean);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kNodeLost), 1);
  // The crashed node's 2 map slots plus its reduce slot (holding a
  // first-wave filler launched once slowstart crossed at t=10) were all
  // occupied at t=15; each lost slot kills its attempt.
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kAttemptKilled), 3);
}

TEST(EngineFaults, RestoreReturnsCapacity) {
  sched::FifoPolicy fifo;
  fault::FaultPlan crash_only = EnginePlan();
  crash_only.actions = {
      NodeAction(fault::FaultActionKind::kNodeCrash, 15.0, 0)};
  const double down_forever =
      core::Replay(SingleJob(16, 2), fifo, EngineConfig(&crash_only))
          .jobs[0]
          .CompletionTime();

  fault::FaultPlan plan = EnginePlan();
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 15.0, 0),
                  NodeAction(fault::FaultActionKind::kNodeRestore, 25.0, 0)};
  FaultRecorder recorder;
  core::SimConfig cfg = EngineConfig(&plan);
  cfg.observer = &recorder;
  const auto restored = core::Replay(SingleJob(16, 2), fifo, cfg);
  EXPECT_LT(restored.jobs[0].CompletionTime(), down_forever);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kNodeRestored), 1);
}

TEST(EngineFaults, KillAttemptRequeuesAndStillCompletes) {
  sched::FifoPolicy fifo;
  const double clean =
      core::Replay(SingleJob(8, 2), fifo, EngineConfig(nullptr))
          .jobs[0]
          .CompletionTime();

  fault::FaultPlan plan;  // geometry-free: kills only
  plan.actions = {KillAction(5.0, 0, obs::TaskKind::kMap, 0)};
  FaultRecorder recorder;
  core::SimConfig cfg = EngineConfig(&plan);
  cfg.observer = &recorder;
  const auto faulted = core::Replay(SingleJob(8, 2), fifo, cfg);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kAttemptKilled), 1);
  // The killed map's work is redone from scratch, so completion moves out.
  EXPECT_GT(faulted.jobs[0].CompletionTime(), clean);
}

TEST(EngineFaults, KillOfNeverRunningAttemptIsNoOp) {
  sched::FifoPolicy fifo;
  const double clean =
      core::Replay(SingleJob(8, 2), fifo, EngineConfig(nullptr))
          .jobs[0]
          .CompletionTime();
  fault::FaultPlan plan;
  plan.actions = {KillAction(5.0, 7, obs::TaskKind::kMap, 500)};
  FaultRecorder recorder;
  core::SimConfig cfg = EngineConfig(&plan);
  cfg.observer = &recorder;
  const auto faulted = core::Replay(SingleJob(8, 2), fifo, cfg);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kAttemptKilled), 0);
  EXPECT_DOUBLE_EQ(faulted.jobs[0].CompletionTime(), clean);
}

TEST(EngineFaults, LongHeartbeatLossActsAsCrashRestore) {
  sched::FifoPolicy fifo;
  fault::FaultPlan crash_restore = EnginePlan();
  crash_restore.actions = {
      NodeAction(fault::FaultActionKind::kNodeCrash, 15.0, 0),
      NodeAction(fault::FaultActionKind::kNodeRestore, 25.0, 0)};
  const double explicit_pair =
      core::Replay(SingleJob(16, 2), fifo, EngineConfig(&crash_restore))
          .jobs[0]
          .CompletionTime();

  fault::FaultPlan hb = EnginePlan();
  fault::FaultAction window =
      NodeAction(fault::FaultActionKind::kHeartbeatLoss, 15.0, 0);
  window.end_time = 25.0;
  hb.actions = {window};
  core::SimConfig cfg = EngineConfig(&hb);
  cfg.tasktracker_expiry_interval = 5.0;  // window (10 s) >= expiry
  const double via_window =
      core::Replay(SingleJob(16, 2), fifo, cfg).jobs[0].CompletionTime();
  EXPECT_DOUBLE_EQ(via_window, explicit_pair);
}

TEST(EngineFaults, ShortHeartbeatLossIsInvisible) {
  sched::FifoPolicy fifo;
  const double clean =
      core::Replay(SingleJob(16, 2), fifo, EngineConfig(nullptr))
          .jobs[0]
          .CompletionTime();
  fault::FaultPlan hb = EnginePlan();
  fault::FaultAction window =
      NodeAction(fault::FaultActionKind::kHeartbeatLoss, 15.0, 0);
  window.end_time = 16.0;  // 1 s << default 600 s expiry
  hb.actions = {window};
  const double faulted =
      core::Replay(SingleJob(16, 2), fifo, EngineConfig(&hb))
          .jobs[0]
          .CompletionTime();
  EXPECT_DOUBLE_EQ(faulted, clean);
}

TEST(EngineFaults, FaultedRunIsDeterministic) {
  sched::FifoPolicy fifo;
  fault::FaultPlan plan = EnginePlan();
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 15.0, 0),
                  NodeAction(fault::FaultActionKind::kNodeRestore, 25.0, 0),
                  KillAction(12.0, 0, obs::TaskKind::kMap, 5)};
  const auto a = core::Replay(SingleJob(16, 4), fifo, EngineConfig(&plan));
  const auto b = core::Replay(SingleJob(16, 4), fifo, EngineConfig(&plan));
  EXPECT_DOUBLE_EQ(a.jobs[0].completion, b.jobs[0].completion);
  EXPECT_EQ(a.events_processed, b.events_processed);
  // Observer presence must not perturb the trajectory either.
  FaultRecorder recorder;
  core::SimConfig observed = EngineConfig(&plan);
  observed.observer = &recorder;
  const auto c = core::Replay(SingleJob(16, 4), fifo, observed);
  EXPECT_DOUBLE_EQ(c.jobs[0].completion, a.jobs[0].completion);
  EXPECT_EQ(c.events_processed, a.events_processed);
}

TEST(EngineFaults, GeometryMismatchThrows) {
  sched::FifoPolicy fifo;
  fault::FaultPlan plan = EnginePlan();  // 4 map + 2 reduce slots
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 5.0, 0)};
  core::SimConfig cfg = EngineConfig(&plan);
  cfg.map_slots = 6;  // != 2 nodes x 2 slots
  EXPECT_THROW(core::Replay(SingleJob(8, 2), fifo, cfg),
               std::invalid_argument);
}

TEST(EngineFaults, GeometryFreeNodeActionThrows) {
  sched::FifoPolicy fifo;
  fault::FaultPlan plan;  // num_nodes == 0
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 5.0, 0)};
  EXPECT_THROW(core::Replay(SingleJob(8, 2), fifo, EngineConfig(&plan)),
               std::invalid_argument);
}

// --- testbed (node-level) -------------------------------------------------

cluster::JobSpec TestbedSpec(int blocks = 16, int reduces = 4) {
  cluster::JobSpec spec;
  spec.app = cluster::apps::WordCount();
  spec.dataset_label = "fault-test";
  spec.input_mb = blocks * 64.0;
  spec.num_reduces = reduces;
  return spec;
}

cluster::TestbedOptions TestbedFaultOptions(const fault::FaultPlan* plan,
                                            double expiry = 30.0) {
  cluster::TestbedOptions opts;
  opts.config.num_nodes = 4;
  opts.config.tasktracker_expiry_interval = expiry;
  opts.seed = 11;
  opts.fault_plan = plan;
  return opts;
}

fault::FaultPlan TestbedPlan() {
  fault::FaultPlan plan;
  plan.num_nodes = 4;
  plan.map_slots_per_node = 2;
  plan.reduce_slots_per_node = 2;
  return plan;
}

TEST(TestbedFaults, CrashExpiresTrackerAndReexecutesWork) {
  const std::vector<cluster::SubmittedJob> jobs{{TestbedSpec(), 0.0, 0.0}};
  const auto clean = cluster::RunTestbed(jobs, TestbedFaultOptions(nullptr));

  // Crash the node holding the earliest-finishing map, just after it
  // reports: its completed output is stranded on the dead node's disk, so
  // lost-map re-execution must fire when the tracker expires.
  const cluster::TaskAttemptRecord* first_map = nullptr;
  for (const auto& task : clean.log.tasks()) {
    if (task.kind != cluster::TaskKind::kMap || !task.succeeded) continue;
    if (first_map == nullptr || task.end < first_map->end) first_map = &task;
  }
  ASSERT_NE(first_map, nullptr);
  ASSERT_LT(first_map->end + 20.0, clean.makespan);

  fault::FaultPlan plan = TestbedPlan();
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash,
                             first_map->end + 1.0, first_map->node),
                  NodeAction(fault::FaultActionKind::kNodeRestore,
                             first_map->end + 15.0, first_map->node)};
  FaultRecorder recorder;
  cluster::TestbedOptions opts = TestbedFaultOptions(&plan, /*expiry=*/5.0);
  opts.observer = &recorder;
  const auto faulted = cluster::RunTestbed(jobs, opts);

  ASSERT_EQ(faulted.log.jobs().size(), 1u);
  EXPECT_GT(faulted.log.jobs()[0].finish_time, 0.0);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kNodeLost), 1);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kNodeRestored), 1);
  EXPECT_GE(recorder.Count(obs::FaultEventKind::kTaskReexecuted), 1);
  EXPECT_GT(faulted.makespan, clean.makespan);
}

TEST(TestbedFaults, SlowdownStretchesTheRun) {
  const std::vector<cluster::SubmittedJob> jobs{{TestbedSpec(), 0.0, 0.0}};
  const auto clean = cluster::RunTestbed(jobs, TestbedFaultOptions(nullptr));

  fault::FaultPlan plan = TestbedPlan();
  fault::FaultAction slow =
      NodeAction(fault::FaultActionKind::kNodeSlowdown, 0.0, 0);
  slow.factor = 0.25;
  plan.actions = {slow};
  const auto faulted =
      cluster::RunTestbed(jobs, TestbedFaultOptions(&plan));
  EXPECT_GT(faulted.makespan, clean.makespan);
}

TEST(TestbedFaults, ShortHeartbeatLossIsInvisible) {
  const std::vector<cluster::SubmittedJob> jobs{{TestbedSpec(), 0.0, 0.0}};
  const auto clean =
      cluster::RunTestbed(jobs, TestbedFaultOptions(nullptr, 600.0));
  fault::FaultPlan plan = TestbedPlan();
  fault::FaultAction window =
      NodeAction(fault::FaultActionKind::kHeartbeatLoss, 10.0, 1);
  window.end_time = 14.0;  // 4 s << 600 s expiry
  plan.actions = {window};
  const auto faulted =
      cluster::RunTestbed(jobs, TestbedFaultOptions(&plan, 600.0));
  EXPECT_DOUBLE_EQ(faulted.makespan, clean.makespan);
  // Only the fault-action queue event itself is extra; the trajectory is
  // untouched.
  EXPECT_EQ(faulted.events_processed, clean.events_processed + 1);
}

TEST(TestbedFaults, FaultedRunIsDeterministic) {
  const std::vector<cluster::SubmittedJob> jobs{{TestbedSpec(), 0.0, 0.0},
                                                {TestbedSpec(8, 2), 5.0, 0.0}};
  fault::FaultPlan plan = TestbedPlan();
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 10.0, 1),
                  NodeAction(fault::FaultActionKind::kNodeRestore, 120.0, 1),
                  KillAction(15.0, 0, obs::TaskKind::kMap, 1)};
  const auto a = cluster::RunTestbed(jobs, TestbedFaultOptions(&plan));
  const auto b = cluster::RunTestbed(jobs, TestbedFaultOptions(&plan));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.log.tasks().size(), b.log.tasks().size());
  for (std::size_t i = 0; i < a.log.tasks().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.log.tasks()[i].end, b.log.tasks()[i].end);
    EXPECT_EQ(a.log.tasks()[i].node, b.log.tasks()[i].node);
  }
}

TEST(TestbedFaults, GeometryFreeNodeActionThrows) {
  const std::vector<cluster::SubmittedJob> jobs{{TestbedSpec(), 0.0, 0.0}};
  fault::FaultPlan plan;  // num_nodes == 0
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 10.0, 1)};
  EXPECT_THROW(cluster::RunTestbed(jobs, TestbedFaultOptions(&plan)),
               std::invalid_argument);
}

TEST(TestbedFaults, InvalidPlanThrows) {
  const std::vector<cluster::SubmittedJob> jobs{{TestbedSpec(), 0.0, 0.0}};
  fault::FaultPlan plan = TestbedPlan();
  plan.num_nodes = 8;  // != config num_nodes (4)
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 10.0, 6)};
  EXPECT_THROW(cluster::RunTestbed(jobs, TestbedFaultOptions(&plan)),
               std::invalid_argument);
}

// --- Mumak ----------------------------------------------------------------

mumak::RumenTrace UniformTrace(int num_maps, int num_reduces) {
  trace::JobProfile p;
  p.app_name = "uniform";
  p.num_maps = num_maps;
  p.num_reduces = num_reduces;
  p.map_durations.assign(num_maps, 10.0);
  p.typical_shuffle_durations.assign(num_reduces, 5.0);
  p.reduce_durations.assign(num_reduces, 2.0);
  return mumak::RumenTrace::FromProfiles({p}, {0.0});
}

mumak::MumakConfig MumakFaultConfig(const fault::FaultPlan* plan) {
  mumak::MumakConfig cfg;
  cfg.num_nodes = 4;
  cfg.fault_plan = plan;
  return cfg;
}

fault::FaultPlan MumakPlan() {
  fault::FaultPlan plan;
  plan.num_nodes = 4;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  return plan;
}

TEST(MumakFaults, CrashSilencesNodeAndRequeuesAttempts) {
  const auto clean =
      mumak::RunMumak(UniformTrace(8, 2), MumakFaultConfig(nullptr));

  fault::FaultPlan plan = MumakPlan();
  // Restore while the map stage is still running (5 remaining maps on 3
  // surviving 1-slot nodes keep the stage busy past t=25), so the rejoin
  // is exercised before the run drains.
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 5.0, 1),
                  NodeAction(fault::FaultActionKind::kNodeRestore, 25.0, 1)};
  FaultRecorder recorder;
  mumak::MumakConfig cfg = MumakFaultConfig(&plan);
  cfg.observer = &recorder;
  const auto faulted = mumak::RunMumak(UniformTrace(8, 2), cfg);

  ASSERT_EQ(faulted.jobs.size(), 1u);
  EXPECT_GT(faulted.jobs[0].finish_time, 0.0);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kNodeLost), 1);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kNodeRestored), 1);
  EXPECT_GT(faulted.jobs[0].CompletionTime(), clean.jobs[0].CompletionTime());
}

TEST(MumakFaults, KillAttemptFromGeometryFreePlan) {
  const auto clean =
      mumak::RunMumak(UniformTrace(8, 2), MumakFaultConfig(nullptr));
  fault::FaultPlan plan;  // num_nodes == 0: kill-only plans are legal
  plan.actions = {KillAction(5.0, 0, obs::TaskKind::kMap, 0)};
  FaultRecorder recorder;
  mumak::MumakConfig cfg = MumakFaultConfig(&plan);
  cfg.observer = &recorder;
  const auto faulted = mumak::RunMumak(UniformTrace(8, 2), cfg);
  EXPECT_EQ(recorder.Count(obs::FaultEventKind::kAttemptKilled), 1);
  EXPECT_GT(faulted.jobs[0].CompletionTime(), clean.jobs[0].CompletionTime());
}

TEST(MumakFaults, FaultedRunIsDeterministic) {
  fault::FaultPlan plan = MumakPlan();
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 5.0, 1),
                  NodeAction(fault::FaultActionKind::kNodeRestore, 60.0, 1)};
  const auto a = mumak::RunMumak(UniformTrace(16, 4), MumakFaultConfig(&plan));
  const auto b = mumak::RunMumak(UniformTrace(16, 4), MumakFaultConfig(&plan));
  EXPECT_DOUBLE_EQ(a.jobs[0].finish_time, b.jobs[0].finish_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(MumakFaults, GeometryFreeNodeActionThrows) {
  fault::FaultPlan plan;  // num_nodes == 0
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 5.0, 1)};
  EXPECT_THROW(mumak::RunMumak(UniformTrace(8, 2), MumakFaultConfig(&plan)),
               std::invalid_argument);
}

TEST(MumakFaults, GeometryMismatchThrows) {
  fault::FaultPlan plan = MumakPlan();
  plan.num_nodes = 3;  // != config num_nodes (4)
  plan.actions = {NodeAction(fault::FaultActionKind::kNodeCrash, 5.0, 1)};
  EXPECT_THROW(mumak::RunMumak(UniformTrace(8, 2), MumakFaultConfig(&plan)),
               std::invalid_argument);
}

}  // namespace
}  // namespace simmr
