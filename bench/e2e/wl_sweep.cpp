// sweep_paced: a Figures 7/8-style Monte-Carlo sweep. Each op is one
// 100-job session (mean inter-arrival 1000 s, deadline factor 1.5) under
// fifo, maxedf or minedf in rotation, plus its Summarize; a round is a
// batch of sessions spread over the worker threads with ParallelFor. Jobs
// arrive slower than they drain, so ready queues stay at a few jobs and
// the engine, event queue, workload assembly and result adaptation do most
// of the work. Policy calls still take about a quarter of a session: they
// are cheap but made for every task, and their cost here does not grow
// with a backlog as it does on whatif_backlog.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "analysis/result_stats.h"
#include "common.h"
#include "simcore/parallel.h"
#include "spans.h"

namespace simmr::e2e {

RunOutcome RunSweepPaced(const RunOptions& opt) {
  RunOutcome out;
  const std::string db_dir = opt.work_dir + "/db";
  out.layer["trace.db_bytes"] =
      static_cast<double>(WriteDatabase(opt.seed, db_dir));
  const backend::SimSession session = TimedSetups(opt, out, db_dir);

  constexpr std::size_t kBatch = 120;
  constexpr int kJobs = 100;
  constexpr std::uint64_t kRerunEvery = 50;
  static constexpr const char* kPolicies[] = {"fifo", "maxedf", "minedf"};
  const auto spec_for = [&](std::uint64_t session_index) {
    backend::ReplaySpec spec;
    spec.policy = kPolicies[session_index % 3];
    spec.num_jobs = kJobs;
    spec.mean_interarrival_s = 1000.0;
    spec.deadline_factor = 1.5;
    spec.record_tasks = true;
    spec.seed = SubSeed(opt.seed, "sweep", session_index);
    return spec;
  };

  std::mutex stats_mu;
  std::map<std::string, PolicyStats> stats;  // guarded by stats_mu
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rerun;
  std::uint64_t traced_events = 0, traced_ops = 0;
  double busy_s = 0.0, batch_wall_s = 0.0;
  RunRounds(opt, out, [&](int round) {
    const bool traced = TracedRound(opt, round);
    const std::uint64_t op0 = static_cast<std::uint64_t>(round) * kBatch;
    const std::uint64_t first = InputRound(opt, round) * kBatch;
    std::vector<OpSample> samples(kBatch);
    const Clock::time_point start = Clock::now();
    ParallelFor(
        kBatch,
        [&](std::size_t j) {
          const backend::ReplaySpec spec = spec_for(first + j);
          PolicyStats probe;
          samples[j] = RunOp("op.sweep", static_cast<std::int64_t>(op0 + j),
                             traced, [&] {
            const backend::RunResult result =
                traced ? ProbedReplay(session, spec, probe)
                       : session.Replay(spec);
            {
              const Span span("analysis.summarize");
              analysis::Summarize(result, spec.map_slots, spec.reduce_slots);
            }
            const Span span("bench.check");
            return OpResult{result.events_processed, DigestOf(result),
                            CheckAllFinished(result, kJobs)};
          });
          if (traced) {
            std::lock_guard<std::mutex> lock(stats_mu);
            stats[spec.policy].Merge(probe);
          }
        },
        opt.threads);
    batch_wall_s += SecondsSince(start);
    for (std::size_t j = 0; j < kBatch; ++j) {
      busy_s += samples[j].ms / 1e3;
      Record(out, samples[j], round == 0);
      if ((first + j) % kRerunEvery == 0)
        rerun.emplace_back(first + j, samples[j].result.digest);
      if (traced) {
        traced_events += samples[j].result.events;
        ++traced_ops;
      }
    }
  });

  // Every 50th session again, serially and untraced: it must reproduce
  // its parallel (and possibly traced) result bit for bit.
  for (const auto& [index, digest] : rerun) {
    if (DigestOf(session.Replay(spec_for(index))) != digest) {
      ++out.failed;
      std::fprintf(stderr, "op failed: session %llu differs when re-run\n",
                   static_cast<unsigned long long>(index));
    }
  }

  SetSchedLayers(out, stats);
  if (traced_ops > 0)
    out.layer["core.events"] = static_cast<double>(traced_events) /
                               static_cast<double>(traced_ops);
  const double workers =
      static_cast<double>(std::min<std::size_t>(opt.threads, kBatch));
  out.layer["simcore.parallel_busy_ratio"] =
      batch_wall_s > 0.0 ? busy_s / (workers * batch_wall_s) : 0.0;
  return out;
}

}  // namespace simmr::e2e
