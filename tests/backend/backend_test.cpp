// SimBackend / RunResult / SimSession tests: lossless adaptation from all
// three simulators' native results, policy construction by name, and
// deterministic session replays independent of thread count.
#include "backend/backends.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "backend/run_result.h"
#include "backend/session.h"
#include "cluster/cluster_sim.h"
#include "core/simmr.h"
#include "mumak/mumak_sim.h"
#include "sched/fifo.h"
#include "simcore/parallel.h"
#include "simcore/rng.h"
#include "trace/synthetic_tracegen.h"

namespace simmr::backend {
namespace {

trace::JobProfile UniformProfile(int num_maps, int num_reduces) {
  trace::JobProfile p;
  p.app_name = "uniform";
  p.num_maps = num_maps;
  p.num_reduces = num_reduces;
  p.map_durations.assign(num_maps, 10.0);
  p.first_shuffle_durations.assign(1, 3.0);
  if (num_reduces > 1)
    p.typical_shuffle_durations.assign(num_reduces - 1, 5.0);
  p.reduce_durations.assign(num_reduces, 2.0);
  return p;
}

std::shared_ptr<std::vector<trace::JobProfile>> SmallPool() {
  auto pool = std::make_shared<std::vector<trace::JobProfile>>();
  Rng rng(7);
  trace::SyntheticJobSpec spec;
  spec.num_maps = 20;
  spec.num_reduces = 4;
  spec.map_duration = std::make_shared<UniformDist>(5.0, 15.0);
  spec.typical_shuffle_duration = std::make_shared<UniformDist>(3.0, 7.0);
  spec.reduce_duration = std::make_shared<UniformDist>(1.0, 3.0);
  for (int i = 0; i < 4; ++i)
    pool->push_back(trace::SynthesizeProfile(spec, rng));
  return pool;
}

// ---------------------------------------------------------------- adapters

TEST(RunResult, FromSimResultIsLossless) {
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile(6, 2);
  w[0].deadline = 300.0;
  w[1].profile = UniformProfile(4, 1);
  w[1].arrival = 50.0;
  core::SimConfig cfg;
  cfg.map_slots = 4;
  cfg.reduce_slots = 2;
  cfg.record_tasks = true;
  sched::FifoPolicy fifo;
  const core::SimResult native = core::Replay(w, fifo, cfg);

  trace::WorkloadTrace w2(2);
  w2[0] = w[0];
  w2[1] = w[1];
  const RunResult unified = SimmrBackend(cfg, fifo, std::move(w2)).Run();

  EXPECT_EQ(unified.simulator, "simmr");
  EXPECT_EQ(unified.events_processed, native.events_processed);
  EXPECT_DOUBLE_EQ(unified.makespan, native.makespan);
  EXPECT_EQ(unified.history, nullptr);
  ASSERT_EQ(unified.jobs.size(), native.jobs.size());
  for (std::size_t i = 0; i < native.jobs.size(); ++i) {
    EXPECT_EQ(unified.jobs[i].job, native.jobs[i].job);
    EXPECT_EQ(unified.jobs[i].name, native.jobs[i].name);
    EXPECT_DOUBLE_EQ(unified.jobs[i].submit, native.jobs[i].arrival);
    EXPECT_DOUBLE_EQ(unified.jobs[i].first_launch,
                     native.jobs[i].first_launch);
    EXPECT_DOUBLE_EQ(unified.jobs[i].map_stage_end,
                     native.jobs[i].map_stage_end);
    EXPECT_DOUBLE_EQ(unified.jobs[i].finish, native.jobs[i].completion);
    EXPECT_DOUBLE_EQ(unified.jobs[i].deadline, native.jobs[i].deadline);
    EXPECT_DOUBLE_EQ(unified.jobs[i].CompletionTime(),
                     native.jobs[i].CompletionTime());
    EXPECT_EQ(unified.jobs[i].MissedDeadline(),
              native.jobs[i].MissedDeadline());
  }
  ASSERT_EQ(unified.tasks.size(), native.tasks.size());

  // The round trip back to the engine's shape is exact.
  const core::SimResult back = ToSimResult(unified);
  ASSERT_EQ(back.jobs.size(), native.jobs.size());
  for (std::size_t i = 0; i < native.jobs.size(); ++i) {
    EXPECT_EQ(back.jobs[i].name, native.jobs[i].name);
    EXPECT_DOUBLE_EQ(back.jobs[i].arrival, native.jobs[i].arrival);
    EXPECT_DOUBLE_EQ(back.jobs[i].first_launch, native.jobs[i].first_launch);
    EXPECT_DOUBLE_EQ(back.jobs[i].map_stage_end,
                     native.jobs[i].map_stage_end);
    EXPECT_DOUBLE_EQ(back.jobs[i].completion, native.jobs[i].completion);
    EXPECT_DOUBLE_EQ(back.jobs[i].deadline, native.jobs[i].deadline);
  }
  EXPECT_EQ(back.tasks.size(), native.tasks.size());
  EXPECT_EQ(back.events_processed, native.events_processed);
  EXPECT_DOUBLE_EQ(back.makespan, native.makespan);
}

TEST(RunResult, FromTestbedResultRetainsTheFullHistory) {
  std::vector<cluster::SubmittedJob> jobs;
  for (const auto& spec : cluster::ValidationSuite()) {
    jobs.push_back({spec, 0.0, 0.0});
    break;  // one job is enough
  }
  cluster::TestbedOptions opts;
  opts.config.num_nodes = 8;
  opts.seed = 42;
  const cluster::TestbedResult native = cluster::RunTestbed(jobs, opts);
  const RunResult unified = TestbedBackend(jobs, opts).Run();

  EXPECT_EQ(unified.simulator, "testbed");
  EXPECT_EQ(unified.events_processed, native.events_processed);
  EXPECT_DOUBLE_EQ(unified.makespan, native.makespan);

  // Projection: per-job outcomes match the log's job records.
  ASSERT_EQ(unified.jobs.size(), native.log.jobs().size());
  for (std::size_t i = 0; i < unified.jobs.size(); ++i) {
    const cluster::JobRecord& rec = native.log.jobs()[i];
    EXPECT_DOUBLE_EQ(unified.jobs[i].submit, rec.submit_time);
    EXPECT_DOUBLE_EQ(unified.jobs[i].first_launch, rec.launch_time);
    EXPECT_DOUBLE_EQ(unified.jobs[i].map_stage_end, rec.maps_done_time);
    EXPECT_DOUBLE_EQ(unified.jobs[i].finish, rec.finish_time);
  }

  // Tasks: every successful attempt, projected.
  std::size_t succeeded = 0;
  for (const auto& task : native.log.tasks())
    if (task.succeeded) ++succeeded;
  EXPECT_EQ(unified.tasks.size(), succeeded);

  // Losslessness: the full history log rides along, bit-for-bit equal to
  // the native run's (node ids, attempts, input sizes included).
  ASSERT_NE(unified.history, nullptr);
  EXPECT_EQ(unified.history->jobs().size(), native.log.jobs().size());
  EXPECT_EQ(unified.history->tasks().size(), native.log.tasks().size());
  for (std::size_t i = 0; i < native.log.tasks().size(); ++i) {
    EXPECT_EQ(unified.history->tasks()[i].node,
              native.log.tasks()[i].node);
    EXPECT_DOUBLE_EQ(unified.history->tasks()[i].start,
                     native.log.tasks()[i].start);
  }
}

TEST(RunResult, FromMumakResultMarksUnknownTimesAsMinusOne) {
  cluster::TestbedOptions opts;
  opts.config.num_nodes = 8;
  std::vector<cluster::SubmittedJob> jobs;
  jobs.push_back({cluster::ValidationSuite().front(), 0.0, 0.0});
  const auto log = cluster::RunTestbed(jobs, opts).log;
  const auto rumen = mumak::RumenTrace::FromHistory(log);
  mumak::MumakConfig mcfg;
  mcfg.num_nodes = 8;
  const mumak::MumakResult native = mumak::RunMumak(rumen, mcfg);
  const RunResult unified = MumakBackend(rumen, mcfg).Run();

  EXPECT_EQ(unified.simulator, "mumak");
  EXPECT_EQ(unified.events_processed, native.events_processed);
  ASSERT_EQ(unified.jobs.size(), native.jobs.size());
  for (std::size_t i = 0; i < unified.jobs.size(); ++i) {
    EXPECT_EQ(unified.jobs[i].name, native.jobs[i].name);
    EXPECT_DOUBLE_EQ(unified.jobs[i].submit, native.jobs[i].submit_time);
    EXPECT_DOUBLE_EQ(unified.jobs[i].finish, native.jobs[i].finish_time);
    // Mumak models neither first launch nor the map-stage boundary.
    EXPECT_DOUBLE_EQ(unified.jobs[i].first_launch, -1.0);
    EXPECT_DOUBLE_EQ(unified.jobs[i].map_stage_end, -1.0);
  }
  EXPECT_TRUE(unified.tasks.empty());
  EXPECT_EQ(unified.history, nullptr);
}

TEST(RunResult, DeadlineHelpersMatchCoreDefinitions) {
  std::vector<JobOutcome> jobs(3);
  jobs[0].finish = 150.0;
  jobs[0].deadline = 100.0;  // missed by 50%
  jobs[1].finish = 90.0;
  jobs[1].deadline = 100.0;  // met
  jobs[2].finish = 500.0;
  jobs[2].deadline = 0.0;    // no deadline
  EXPECT_DOUBLE_EQ(RelativeDeadlineExceeded(jobs), 0.5);
  EXPECT_EQ(MissedDeadlineCount(jobs), 1);
}

// ----------------------------------------------------------------- policy

TEST(MakePolicy, BuildsEveryKnownPolicy) {
  for (const char* name : {"fifo", "maxedf", "minedf", "fair", "capacity"}) {
    const auto policy = MakePolicy(name, 16, 16);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_STRNE(policy->Name(), "") << name;
  }
}

TEST(MakePolicy, ThrowsOnUnknownName) {
  EXPECT_THROW(MakePolicy("lifo", 16, 16), std::invalid_argument);
  EXPECT_THROW(MakePolicy("", 16, 16), std::invalid_argument);
}

// ---------------------------------------------------------------- session

TEST(SimSession, RejectsEmptyPoolAndMisalignedSolos) {
  EXPECT_THROW(
      SimSession(std::make_shared<std::vector<trace::JobProfile>>(), nullptr),
      std::invalid_argument);
  auto pool = SmallPool();
  auto bad_solos = std::make_shared<std::vector<double>>(pool->size() + 1);
  EXPECT_THROW(SimSession(pool, bad_solos), std::invalid_argument);
}

TEST(SimSession, DeadlineFactorRequiresSoloCompletions) {
  const SimSession session(SmallPool(), nullptr);
  ReplaySpec spec;
  spec.deadline_factor = 1.5;
  EXPECT_THROW(session.Replay(spec), std::invalid_argument);
}

TEST(SimSession, SameSpecSameSeedGivesIdenticalResults) {
  auto pool = SmallPool();
  core::SimConfig solo_cfg;
  solo_cfg.map_slots = 16;
  solo_cfg.reduce_slots = 8;
  auto solos = std::make_shared<std::vector<double>>(
      core::MeasureSoloCompletions(*pool, solo_cfg));
  const SimSession session(pool, solos);

  ReplaySpec spec;
  spec.policy = "minedf";
  spec.map_slots = 16;
  spec.reduce_slots = 8;
  spec.deadline_factor = 1.5;
  spec.num_jobs = 8;
  spec.seed = 99;
  const RunResult a = session.Replay(spec);
  const RunResult b = session.Replay(spec);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish, b.jobs[i].finish);
    EXPECT_DOUBLE_EQ(a.jobs[i].deadline, b.jobs[i].deadline);
  }

  ReplaySpec other = spec;
  other.seed = 100;
  const RunResult c = session.Replay(other);
  bool any_difference = c.jobs.size() != a.jobs.size();
  for (std::size_t i = 0; !any_difference && i < a.jobs.size(); ++i)
    any_difference = c.jobs[i].finish != a.jobs[i].finish;
  EXPECT_TRUE(any_difference) << "different seeds should differ";
}

TEST(SimSession, ConcurrentReplaysMatchSerialReplays) {
  // The simmr_sweep contract: one shared session, per-index specs with
  // split seeds, bit-identical results at any thread count. The MinEDF
  // sessions also read the shared solo completions for their deadlines.
  auto pool = SmallPool();
  core::SimConfig solo_cfg;
  solo_cfg.map_slots = 8;
  solo_cfg.reduce_slots = 4;
  const SimSession session(
      pool, std::make_shared<std::vector<double>>(
                core::MeasureSoloCompletions(*pool, solo_cfg)));
  const Rng master(42);

  const auto outcome = [&](std::size_t i) {
    static constexpr const char* kPolicies[] = {"fifo", "fair", "minedf"};
    ReplaySpec spec;
    spec.policy = kPolicies[i % 3];
    spec.map_slots = 8;
    spec.reduce_slots = 4;
    spec.num_jobs = 6;
    if (spec.policy == "minedf") spec.deadline_factor = 1.5;
    spec.seed = master.Split("session", i)();
    const RunResult result = session.Replay(spec);
    std::vector<double> out = {result.makespan,
                               static_cast<double>(result.events_processed)};
    for (const auto& job : result.jobs) {
      out.push_back(job.finish);
      out.push_back(job.deadline);
    }
    return out;
  };

  constexpr std::size_t kRuns = 16;
  std::vector<std::vector<double>> serial(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) serial[i] = outcome(i);
  for (const unsigned threads : {2u, 4u, 8u}) {
    std::vector<std::vector<double>> parallel(kRuns);
    ParallelFor(
        kRuns, [&](std::size_t i) { parallel[i] = outcome(i); }, threads);
    for (std::size_t i = 0; i < kRuns; ++i)
      EXPECT_EQ(serial[i], parallel[i])
          << "session " << i << " at " << threads << " threads";
  }
}

TEST(SimBackend, NamesMatchTheResultSimulatorTag) {
  trace::WorkloadTrace w(1);
  w[0].profile = UniformProfile(4, 1);
  core::SimConfig cfg;
  sched::FifoPolicy fifo;
  SimmrBackend simmr_backend(cfg, fifo, std::move(w));
  EXPECT_STREQ(simmr_backend.name(), "simmr");
  EXPECT_EQ(simmr_backend.Run().simulator, simmr_backend.name());
}

}  // namespace
}  // namespace simmr::backend
