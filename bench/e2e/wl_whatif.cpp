// whatif_backlog: a policy comparison over a backlogged cluster. Each
// round replays one 1148-job workload (mean inter-arrival 10 s, deadline
// factor 1.5) under all five policies; an op is one replay, its Summarize
// and its written per-job simulation log. Per-task records are off: the
// comparison needs completions and deadlines only. Jobs arrive faster than the
// cluster drains them, so the ready queue holds hundreds of jobs and the
// scheduler's per-decision scans dominate the replay.
#include <cstdio>

#include "analysis/result_stats.h"
#include "common.h"
#include "core/sim_log.h"
#include "spans.h"

namespace simmr::e2e {

RunOutcome RunWhatifBacklog(const RunOptions& opt) {
  RunOutcome out;
  const std::string db_dir = opt.work_dir + "/db";
  out.layer["trace.db_bytes"] =
      static_cast<double>(WriteDatabase(opt.seed, db_dir));
  const backend::SimSession session = TimedSetups(opt, out, db_dir);
  const std::string log_path = opt.work_dir + "/whatif.simlog";

  static constexpr const char* kPolicies[] = {"fifo", "maxedf", "minedf",
                                              "fair", "capacity"};
  std::map<std::string, PolicyStats> stats;
  std::uint64_t traced_events = 0;
  RunRounds(opt, out, [&](int round) {
    const bool traced = TracedRound(opt, round);
    backend::ReplaySpec spec;
    spec.num_jobs = kDatabaseJobs;
    spec.mean_interarrival_s = 10.0;
    spec.deadline_factor = 1.5;
    spec.seed = SubSeed(opt.seed, "whatif", InputRound(opt, round));
    std::vector<double> fifo_finish;
    for (int i = 0; i < 5; ++i) {
      spec.policy = kPolicies[i];
      const OpSample sample = RunOp("op.whatif", 5 * round + i, traced, [&] {
        const backend::RunResult result =
            traced ? ProbedReplay(session, spec, stats[spec.policy])
                   : session.Replay(spec);
        {
          const Span span("analysis.summarize");
          analysis::Summarize(result, spec.map_slots, spec.reduce_slots);
        }
        {
          const Span span("core.sim_log_write");
          core::WriteSimulationLogFile(log_path,
                                       backend::ToSimResult(result));
        }
        const Span span("bench.check");
        OpResult op{result.events_processed, DigestOf(result),
                    CheckAllFinished(result, kDatabaseJobs)};
        std::vector<double> finish;
        for (const auto& job : result.jobs) finish.push_back(job.finish);
        // FIFO and one-queue Capacity schedule identically.
        if (spec.policy == "fifo") fifo_finish = finish;
        if (spec.policy == "capacity" && finish != fifo_finish)
          op.failure = "capacity finishes differ from fifo";
        return op;
      });
      if (traced) traced_events += sample.result.events;
      Record(out, sample, round == 0);
    }
  });

  SetSchedLayers(out, stats);
  std::uint64_t traced_ops = 0;
  for (const auto& [policy, s] : stats) traced_ops += s.ops;
  if (traced_ops > 0)
    out.layer["core.events"] = static_cast<double>(traced_events) /
                               static_cast<double>(traced_ops);
  return out;
}

}  // namespace simmr::e2e
