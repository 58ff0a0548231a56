// validate: paper fidelity next to host speed. Each op runs the testbed
// validation suite (6 applications, 64 nodes), writes and re-reads its
// history log, builds the job profiles, replays every job in SimMR and the
// log's Rumen trace in Mumak (Figure 5 accuracy), runs the suite again
// under a seeded fault plan with at least one node crash and reports its
// availability against the clean run, and replays the 1148-job database
// back to back in SimMR and in Mumak (Figure 6). Every op of a run repeats
// the same inputs, so accuracy and event counts must repeat exactly.
#include <algorithm>

#include "analysis/availability.h"
#include "analysis/result_stats.h"
#include "analysis/run_record.h"
#include "cluster/app_model.h"
#include "cluster/cluster_sim.h"
#include "common.h"
#include "core/simmr.h"
#include "fault/fault_gen.h"
#include "mumak/mumak_sim.h"
#include "obs/event_log.h"
#include "sched/fifo.h"
#include "spans.h"
#include "trace/mr_profiler.h"
#include "trace/trace_database.h"

namespace simmr::e2e {
namespace {

// Submission gap of the suite's jobs. The longest (WikiTrends) takes about
// 1290 s alone, so each job still runs on an idle cluster, and the testbed
// spends less time replaying idle heartbeats than at simmr_testbed's
// default 10000 s gap.
constexpr double kSuiteGapS = 1500.0;
// Paper bounds on SimMR's Figure 5 error (average, maximum).
constexpr double kMaxAvgErrPct = 2.7;
constexpr double kMaxErrPct = 6.6;

struct Fig6Inputs {
  trace::WorkloadTrace workload;
  mumak::RumenTrace rumen;
};

/// Database load plus the Rumen conversion, timed opt.setups times. Jobs
/// arrive back to back: each when the previous one's work would have
/// drained from the whole cluster, as the paper compacted its history.
Fig6Inputs TimedFig6Setups(const RunOptions& opt, RunOutcome& out,
                           const std::string& db_dir) {
  Fig6Inputs inputs;
  for (int k = 0; k < opt.setups; ++k) {
    const Clock::time_point start = Clock::now();
    const Span root("bench.setup", -1 - k, opt.trace);
    std::vector<trace::JobProfile> pool;
    {
      const Span span("trace.db_load");
      const auto db = trace::TraceDatabase::Load(db_dir);
      for (const auto id : db.AllIds()) pool.push_back(db.Get(id));
    }
    std::vector<SimTime> arrivals;
    trace::WorkloadTrace workload(pool.size());
    SimTime clock = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      arrivals.push_back(clock);
      double work = 0.0;
      for (const double d : pool[i].map_durations) work += d;
      for (const double d : pool[i].typical_shuffle_durations) work += d;
      for (const double d : pool[i].reduce_durations) work += d;
      clock += work / 64.0 + 20.0;
      workload[i].profile = pool[i];
      workload[i].arrival = arrivals.back();
    }
    {
      const Span span("mumak.rumen_from_profiles");
      inputs.rumen = mumak::RumenTrace::FromProfiles(pool, arrivals);
    }
    inputs.workload = std::move(workload);
    out.setup_s.push_back(SecondsSince(start));
  }
  return inputs;
}

/// The first plan drawn from the seed's stream with a node crash that the
/// JobTracker declares: the node stays down past the tracker expiry
/// interval. Crashes fall within 0.7 x horizon, well before the suite's
/// last job ends, so the loss is declared while the suite still runs.
fault::FaultPlan CrashPlan(std::uint64_t seed, std::size_t jobs) {
  fault::FaultGenOptions gen;
  gen.num_nodes = 64;
  gen.map_slots_per_node = 1;
  gen.reduce_slots_per_node = 1;
  gen.horizon = kSuiteGapS * static_cast<double>(jobs - 1);
  gen.kill_jobs = static_cast<std::int32_t>(jobs);
  const double expiry = cluster::ClusterConfig{}.tasktracker_expiry_interval;
  for (std::uint64_t k = 0;; ++k) {
    fault::FaultPlan plan = fault::GenerateFaultPlan(SubSeed(seed, "fault", k),
                                                     gen);
    for (const auto& crash : plan.actions) {
      if (crash.kind != fault::FaultActionKind::kNodeCrash) continue;
      const bool restored_early = std::any_of(
          plan.actions.begin(), plan.actions.end(), [&](const auto& a) {
            return a.kind == fault::FaultActionKind::kNodeRestore &&
                   a.node == crash.node && a.time < crash.time + expiry;
          });
      if (!restored_early) return plan;
    }
  }
}

analysis::RunRecord RecordOf(const obs::EventLogObserver& observer) {
  obs::EventLog log;
  log.events = observer.events();
  return analysis::RunRecord::FromLog(log);
}

std::string CheckHistory(const cluster::HistoryLog& log, std::size_t jobs,
                         const char* what) {
  if (log.jobs().size() != jobs) return std::string(what) + ": jobs missing";
  for (const auto& job : log.jobs())
    if (job.failed || !(job.finish_time >= job.submit_time))
      return std::string(what) + ": job " + job.app_name + " did not complete";
  return "";
}

}  // namespace

RunOutcome RunValidate(const RunOptions& opt) {
  RunOutcome out;
  const std::string db_dir = opt.work_dir + "/db";
  out.layer["trace.db_bytes"] =
      static_cast<double>(WriteDatabase(opt.seed, db_dir));
  const Fig6Inputs fig6 = TimedFig6Setups(opt, out, db_dir);

  std::vector<cluster::SubmittedJob> suite;
  for (const auto& spec : cluster::ValidationSuite())
    suite.push_back({spec, kSuiteGapS * static_cast<double>(suite.size()),
                     0.0});
  cluster::TestbedOptions testbed;
  testbed.seed = SubSeed(opt.seed, "testbed", 0);
  const fault::FaultPlan plan = CrashPlan(opt.seed, suite.size());
  const std::string history_path = opt.work_dir + "/history.log";

  // Simulated quantities repeat in every op, so each op writes them; the
  // Figure 6 host times are summed over the traced ops.
  double fig6_simmr_s = 0.0, fig6_mumak_s = 0.0;
  RunRounds(opt, out, [&](int round) {
    const bool traced = TracedRound(opt, round);
    const OpSample sample = RunOp("op.validate", round, traced, [&] {
      Digest digest;
      OpResult op;
      const auto fail = [&op](const std::string& why) {
        if (op.failure.empty()) op.failure = why;
      };

      // Ground truth: the suite on the testbed, with an event log kept as
      // the availability baseline.
      obs::EventLogObserver clean_log(
          obs::EventLogObserver::Options{/*record_dequeues=*/false});
      cluster::TestbedOptions clean_options = testbed;
      clean_options.observer = &clean_log;
      cluster::TestbedResult clean;
      {
        const Span span("cluster.testbed");
        clean = cluster::RunTestbed(suite, clean_options);
      }
      fail(CheckHistory(clean.log, suite.size(), "testbed"));
      {
        const Span span("cluster.history_write");
        clean.log.WriteFile(history_path);
      }
      cluster::HistoryLog history;
      {
        const Span span("cluster.history_read");
        history = cluster::HistoryLog::ReadFile(history_path);
      }
      std::vector<trace::JobProfile> profiles;
      {
        const Span span("trace.build_profiles");
        profiles = trace::BuildAllProfiles(history);
      }

      // Figure 5: each job alone in SimMR, the whole log in Mumak.
      mumak::RumenTrace rumen;
      {
        const Span span("mumak.rumen_from_history");
        rumen = mumak::RumenTrace::FromHistory(history);
      }
      mumak::MumakResult mumak_run;
      {
        const Span span("mumak.run");
        mumak_run = mumak::RunMumak(rumen, mumak::MumakConfig{});
      }
      analysis::AccuracyStats simmr_acc, mumak_acc;
      std::uint64_t simmr_events = 0;
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto& job = history.jobs()[i];
        trace::WorkloadTrace alone(1);
        alone[0].profile = profiles[i];
        core::SimResult sim;
        {
          const Span span("core.replay");
          sched::FifoPolicy fifo;
          sim = core::Replay(alone, fifo, core::SimConfig{});
        }
        simmr_events += sim.events_processed;
        const double actual = job.finish_time - job.submit_time;
        simmr_acc.Add(actual, sim.jobs[0].CompletionTime());
        mumak_acc.Add(actual, mumak_run.jobs[i].CompletionTime());
      }

      // The same suite under a fault plan, against the clean run.
      obs::EventLogObserver fault_log(
          obs::EventLogObserver::Options{/*record_dequeues=*/false});
      cluster::TestbedOptions fault_options = testbed;
      fault_options.observer = &fault_log;
      fault_options.fault_plan = &plan;
      cluster::TestbedResult faulted;
      {
        const Span span("cluster.faulted_testbed");
        faulted = cluster::RunTestbed(suite, fault_options);
      }
      fail(CheckHistory(faulted.log, suite.size(), "faulted testbed"));
      analysis::AvailabilityReport availability;
      {
        const Span span("analysis.availability");
        const analysis::RunRecord run = RecordOf(fault_log);
        const analysis::RunRecord baseline = RecordOf(clean_log);
        availability = analysis::BuildAvailabilityReport(run, &baseline);
        analysis::RenderAvailability(availability, analysis::AnalyzeOptions{});
      }
      double downtime = 0.0;
      for (const auto& node : availability.nodes) downtime += node.down_seconds;
      if (!(downtime > 0.0)) fail("faulted run shows no node downtime");

      // Figure 6: the whole database back to back in both simulators.
      core::SimResult fig6_simmr;
      Clock::time_point start = Clock::now();
      {
        const Span span("core.replay");
        sched::FifoPolicy fifo;
        fig6_simmr = core::Replay(fig6.workload, fifo, core::SimConfig{});
      }
      if (traced) fig6_simmr_s += SecondsSince(start);
      mumak::MumakResult fig6_mumak;
      start = Clock::now();
      {
        const Span span("mumak.run");
        fig6_mumak = mumak::RunMumak(fig6.rumen, mumak::MumakConfig{});
      }
      if (traced) fig6_mumak_s += SecondsSince(start);
      if (fig6_simmr.jobs.size() != fig6.workload.size() ||
          fig6_mumak.jobs.size() != fig6.workload.size())
        fail("figure 6 replay lost jobs");

      const Span span("bench.check");
      if (simmr_acc.AvgAbsError() > kMaxAvgErrPct ||
          simmr_acc.MaxAbsError() > kMaxErrPct)
        fail("SimMR error beyond the paper's bounds");
      out.accuracy_err_pct = simmr_acc.AvgAbsError();
      out.layer["fig5.accuracy_err_pct"] = simmr_acc.AvgAbsError();
      out.layer["fig5.max_err_pct"] = simmr_acc.MaxAbsError();
      out.layer["fig5.mumak_err_pct"] = mumak_acc.AvgAbsError();
      out.layer["cluster.node_downtime_s"] = downtime;
      out.layer["cluster.events"] =
          static_cast<double>(clean.events_processed);
      out.layer["mumak.events"] = static_cast<double>(
          mumak_run.events_processed + fig6_mumak.events_processed);
      out.layer["fig6.event_ratio"] =
          static_cast<double>(fig6_mumak.events_processed) /
          static_cast<double>(fig6_simmr.events_processed);
      for (const double e : simmr_acc.errors_pct) digest.Add(e);
      for (const double e : mumak_acc.errors_pct) digest.Add(e);
      digest.Add(clean.events_processed);
      digest.Add(faulted.events_processed);
      digest.Add(faulted.makespan);
      digest.Add(downtime);
      digest.Add(fig6_simmr.events_processed);
      digest.Add(fig6_simmr.makespan);
      digest.Add(fig6_mumak.events_processed);
      digest.Add(fig6_mumak.makespan);
      op.digest = digest.value();
      op.events = clean.events_processed + faulted.events_processed +
                  simmr_events + mumak_run.events_processed +
                  fig6_simmr.events_processed + fig6_mumak.events_processed;
      return op;
    });
    // Every op replays the same inputs: its result must match round 0's.
    if (round > 0 && sample.result.failure.empty() &&
        sample.result.digest != out.first_round_digests.front()) {
      OpSample mismatch = sample;
      mismatch.result.failure = "op result differs from round 0";
      Record(out, mismatch, false);
    } else {
      Record(out, sample, round == 0);
    }
  });
  if (fig6_simmr_s > 0.0)
    out.layer["fig6.wall_ratio"] = fig6_mumak_s / fig6_simmr_s;
  return out;
}

}  // namespace simmr::e2e
