// SimBackend / RunResult / SimSession tests: lossless adaptation from all
// three simulators' native results, policy construction by name,
// deterministic session replays independent of thread count, and database
// sessions that read and measure only the profiles their replays sample.
#include "backend/backends.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/run_result.h"
#include "backend/session.h"
#include "cluster/cluster_sim.h"
#include "core/simmr.h"
#include "mumak/mumak_sim.h"
#include "prof/profiler.h"
#include "sched/fifo.h"
#include "simcore/parallel.h"
#include "simcore/rng.h"
#include "trace/synthetic_tracegen.h"
#include "trace/trace_database.h"

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

// ------------------------------------------------------ database session

namespace fs = std::filesystem;

constexpr const char* kAllPolicies[] = {"fifo", "maxedf", "minedf", "fair",
                                        "capacity"};

/// Every field of a SimMR run, doubles as bit patterns, names aside.
std::vector<std::uint64_t> RunBits(const RunResult& r) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<std::uint64_t> out = {r.events_processed, bits(r.makespan)};
  for (const JobOutcome& j : r.jobs) {
    out.push_back(static_cast<std::uint64_t>(j.job));
    for (const double v :
         {j.submit, j.first_launch, j.map_stage_end, j.finish, j.deadline})
      out.push_back(bits(v));
  }
  for (const core::SimTaskRecord& t : r.tasks) {
    out.push_back(static_cast<std::uint64_t>(t.job));
    out.push_back(static_cast<std::uint64_t>(t.kind));
    for (const double v : {t.start, t.shuffle_end, t.end})
      out.push_back(bits(v));
  }
  return out;
}

std::vector<std::string> RunNames(const RunResult& r) {
  std::vector<std::string> names;
  for (const JobOutcome& j : r.jobs) names.push_back(j.name);
  return names;
}

void ExpectSameWorkload(const trace::WorkloadTrace& a,
                        const trace::WorkloadTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].profile, b[k].profile) << "job " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].arrival),
              std::bit_cast<std::uint64_t>(b[k].arrival))
        << "job " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].deadline),
              std::bit_cast<std::uint64_t>(b[k].deadline))
        << "job " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].solo_completion),
              std::bit_cast<std::uint64_t>(b[k].solo_completion))
        << "job " << k;
  }
}

/// A saved ten-profile database in a per-test directory: ctest runs each
/// case as its own process, often in parallel, so a shared path would let
/// one case's SetUp wipe another's files.
class SessionDatabase : public ::testing::Test {
 protected:
  static constexpr std::size_t kPoolSize = 10;

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("simmr_session_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    Rng rng(11);
    trace::TraceDatabase db;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      // Sizes and shapes vary, map-only jobs included.
      trace::SyntheticJobSpec spec;
      spec.app_name = "app" + std::to_string(i % 3);
      spec.dataset = "set" + std::to_string(i);
      spec.num_maps = 3 + static_cast<int>(5 * (i % 4));
      spec.num_reduces = static_cast<int>(i % 3);
      spec.first_wave_size = 1;
      spec.map_duration = std::make_shared<UniformDist>(5.0, 15.0);
      spec.typical_shuffle_duration = std::make_shared<UniformDist>(3.0, 7.0);
      spec.reduce_duration = std::make_shared<UniformDist>(1.0, 3.0);
      db.Put(trace::SynthesizeProfile(spec, rng));
    }
    db.Save(dir_.string());
    solo_config_.map_slots = 8;
    solo_config_.reduce_slots = 4;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  /// Every slot filled up front, the way sessions were built before they
  /// read lazily: the whole database, then every T_J.
  SimSession Eager() const {
    const trace::TraceDatabase db = trace::TraceDatabase::Load(dir());
    auto pool = std::make_shared<std::vector<trace::JobProfile>>();
    for (const auto id : db.AllIds()) pool->push_back(db.Get(id));
    auto solos = std::make_shared<std::vector<double>>(
        core::MeasureSoloCompletions(*pool, solo_config_));
    return SimSession(std::move(pool), std::move(solos));
  }

  SimSession Lazy() const {
    return SimSession::FromDatabase(dir(), solo_config_);
  }

  static ReplaySpec Spec(const char* policy, int num_jobs,
                         double deadline_factor, std::uint64_t seed) {
    ReplaySpec spec;
    spec.policy = policy;
    spec.map_slots = 8;
    spec.reduce_slots = 4;
    spec.num_jobs = num_jobs;
    spec.mean_interarrival_s = 20.0;
    spec.deadline_factor = deadline_factor;
    spec.record_tasks = true;
    spec.seed = seed;
    return spec;
  }

  /// The pool entries a replay of `spec` samples, drawn independently of
  /// any session.
  static std::set<std::size_t> Sampled(const ReplaySpec& spec) {
    trace::WorkloadParams params;
    params.num_jobs = spec.num_jobs;
    params.mean_interarrival_s = spec.mean_interarrival_s;
    params.deadline_factor = spec.deadline_factor;
    Rng rng(spec.seed);
    const auto order = trace::DrawJobOrder(kPoolSize, params, rng);
    return {order.begin(), order.end()};
  }

  fs::path dir_;
  core::SimConfig solo_config_;
};

TEST_F(SessionDatabase, LazyReplaysMatchEagerOnesBitForBit) {
  // One lazy session serves every spec in turn, so its slots fill in an
  // order the eager session never sees; a fresh one per spec fills only
  // what that spec samples. Both must match the eager session exactly.
  const SimSession eager = Eager();
  const SimSession shared = Lazy();
  std::uint64_t seed = 1;
  for (const char* policy : kAllPolicies) {
    for (const double df : {0.0, 1.5}) {
      for (const int num_jobs : {0, 4, 25}) {
        const ReplaySpec spec = Spec(policy, num_jobs, df, ++seed);
        SCOPED_TRACE(std::string(policy) + " df=" + std::to_string(df) +
                     " jobs=" + std::to_string(num_jobs));
        const SimSession fresh = Lazy();
        ExpectSameWorkload(fresh.Workload(spec), eager.Workload(spec));
        ExpectSameWorkload(shared.Workload(spec), eager.Workload(spec));
        const RunResult want = eager.Replay(spec);
        for (const SimSession* lazy : {&fresh, &shared}) {
          const RunResult got = lazy->Replay(spec);
          EXPECT_EQ(RunBits(got), RunBits(want));
          EXPECT_EQ(RunNames(got), RunNames(want));
        }
      }
    }
  }
  // Filled on demand, the whole pool and every T_J equal the eager ones.
  const SimSession fresh = Lazy();
  EXPECT_EQ(fresh.solo_completions(), eager.solo_completions());
  EXPECT_EQ(fresh.pool(), eager.pool());
}

TEST_F(SessionDatabase, ParsesAndSoloReplaysEachSampledProfileOnce) {
  if (!SIMMR_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  using prof::Counter;
  prof::Reset();
  prof::Arm();
  const auto parsed = [] { return prof::Value(Counter::kProfilesParsed); };
  const auto solos = [] { return prof::Value(Counter::kSoloReplays); };

  const SimSession session = Lazy();
  EXPECT_EQ(parsed(), 0u) << "FromDatabase reads only the index";
  EXPECT_EQ(solos(), 0u);

  // Without a deadline: each sampled profile parsed, none measured.
  const ReplaySpec plain = Spec("fifo", 4, 0.0, 3);
  const std::set<std::size_t> first = Sampled(plain);
  ASSERT_LT(first.size(), kPoolSize);
  session.Replay(plain);
  EXPECT_EQ(parsed(), first.size());
  EXPECT_EQ(solos(), 0u);
  session.Replay(plain);
  EXPECT_EQ(parsed(), first.size()) << "a repeated replay parses nothing";

  // The same draw with a deadline measures each of them once.
  const ReplaySpec timed = Spec("minedf", 4, 1.5, 3);
  ASSERT_EQ(Sampled(timed), first);
  session.Replay(timed);
  EXPECT_EQ(parsed(), first.size());
  EXPECT_EQ(solos(), first.size());
  session.Replay(timed);
  EXPECT_EQ(solos(), first.size()) << "a repeated replay measures nothing";

  // A new draw adds only the profiles it samples for the first time.
  const ReplaySpec other = Spec("maxedf", 5, 1.5, 8);
  std::set<std::size_t> both = Sampled(other);
  both.insert(first.begin(), first.end());
  ASSERT_GT(both.size(), first.size());
  session.Replay(other);
  EXPECT_EQ(parsed(), both.size());
  EXPECT_EQ(solos(), both.size());

  // The eager load reads every file.
  const std::uint64_t before = parsed();
  trace::TraceDatabase::Load(dir());
  EXPECT_EQ(parsed() - before, kPoolSize);
  prof::Disarm();
  prof::Reset();
}

TEST_F(SessionDatabase, FreshLazySessionUnderParallelForMatchesSerial) {
  // Concurrent replays of a fresh session race to fill the same slots;
  // each slot must still fill once, and every result match the serial one.
  const auto outcome = [](const SimSession& session, std::size_t i) {
    const ReplaySpec spec =
        Spec(kAllPolicies[i % 5], static_cast<int>(2 + i % 9),
             i % 2 == 0 ? 1.5 : 0.0, 100 + i);
    return RunBits(session.Replay(spec));
  };
  constexpr std::size_t kRuns = 24;
  std::vector<std::vector<std::uint64_t>> serial(kRuns);
  {
    const SimSession session = Lazy();
    for (std::size_t i = 0; i < kRuns; ++i) serial[i] = outcome(session, i);
  }
  for (const unsigned threads : {2u, 4u, 8u}) {
    const SimSession session = Lazy();
    std::vector<std::vector<std::uint64_t>> parallel(kRuns);
    ParallelFor(
        kRuns, [&](std::size_t i) { parallel[i] = outcome(session, i); },
        threads);
    for (std::size_t i = 0; i < kRuns; ++i)
      EXPECT_EQ(serial[i], parallel[i])
          << "session " << i << " at " << threads << " threads";
  }
}

TEST_F(SessionDatabase, CorruptProfileFailsEveryReplayThatSamplesIt) {
  constexpr std::size_t kBad = 6;
  // Two-job draws: one that samples the bad profile, one that does not.
  ReplaySpec hit, miss;
  bool found_hit = false, found_miss = false;
  for (std::uint64_t seed = 1; !(found_hit && found_miss); ++seed) {
    ASSERT_LT(seed, 1000u);
    const ReplaySpec spec = Spec("fifo", 2, 1.5, seed);
    if (Sampled(spec).count(kBad) > 0) {
      if (!found_hit) hit = spec;
      found_hit = true;
    } else {
      if (!found_miss) miss = spec;
      found_miss = true;
    }
  }
  const std::vector<std::uint64_t> intact = RunBits(Eager().Replay(miss));

  const fs::path bad_file =
      dir_ / ("profile_" + std::to_string(kBad) + ".trace");
  {
    std::ifstream in(bad_file);
    std::string text(std::istreambuf_iterator<char>(in), {});
    const std::size_t at = text.find("num_maps ");
    ASSERT_NE(at, std::string::npos);
    text.insert(at + 9, "x");
    std::ofstream(bad_file) << text;
  }
  std::string load_error;
  try {
    trace::TraceDatabase::Load(dir());
  } catch (const std::runtime_error& e) {
    load_error = e.what();
  }
  ASSERT_NE(load_error.find("profile_6.trace: JobProfile: bad num_maps"),
            std::string::npos)
      << load_error;

  const SimSession session = Lazy();
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      session.Replay(hit);
      FAIL() << "a replay sampling the corrupt profile ran";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), load_error) << "attempt " << attempt;
    }
  }
  // Through ParallelFor the error reaches the calling thread.
  try {
    ParallelFor(
        8,
        [&](std::size_t i) { session.Replay(i % 2 == 0 ? miss : hit); },
        4);
    FAIL() << "ParallelFor swallowed the corrupt profile";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), load_error);
  }
  // A replay that never samples it runs as it did on the intact files.
  EXPECT_EQ(RunBits(session.Replay(miss)), intact);
  EXPECT_THROW(session.pool(), std::runtime_error);
}

TEST_F(SessionDatabase, FromDatabaseRejectsBadIndexAndEmptyDatabase) {
  {
    std::ofstream index(dir_ / "index.tsv");
    index << "id\tapp\tdataset\tfile\n0\tA\t1\t../profile_0.trace\n";
  }
  EXPECT_THROW(Lazy(), std::runtime_error);
  trace::TraceDatabase().Save(dir());
  EXPECT_THROW(Lazy(), std::invalid_argument);
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
