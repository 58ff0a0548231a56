// simmr_replay: the SimMR engine as a command — assemble a workload from a
// trace database and replay it under a scheduling policy.
//
//   simmr_replay --db=traces/ --policy=minedf --deadline-factor=1.5
//   simmr_replay --db=traces/ --policy=fair --mean-interarrival=100
//                --out-log=replay.log
//   simmr_replay --db=traces/ --trace-out=t.json --metrics-out=m.txt
//                --telemetry-out=r.json --event-log-out=run.jsonl
#include <chrono>
#include <cstdio>
#include <memory>

#include "analysis/result_stats.h"
#include "backend/session.h"
#include "core/sim_log.h"
#include "fault/fault_plan.h"
#include "tool_common.h"

int main(int argc, char** argv) {
  using namespace simmr;
  std::vector<tools::FlagSpec> specs = {
          {"db", "traces", "trace-database directory"},
          {"policy", "fifo", "fifo | maxedf | minedf | fair | capacity"},
          {"map-slots", "64", "cluster map slots"},
          {"reduce-slots", "64", "cluster reduce slots"},
          {"mean-interarrival", "100", "exponential arrival mean, s (0 = all at t=0)"},
          {"deadline-factor", "0", "df >= 1 enables deadlines in [T, df*T]"},
          {"jobs", "0", "number of jobs (0 = one instance of each profile)"},
          {"slowstart", "0.05", "minMapPercentCompleted gate"},
          {"seed", "42", "workload randomization seed"},
          {"fault-plan", "",
           "optional simmr.faultplan.v1 file; node faults become "
           "slot-capacity deltas, so the plan's geometry must match "
           "--map-slots/--reduce-slots (or be geometry-free)"},
          {"out-log", "", "optional simulation output-log path"},
          tools::LogLevelFlag(),
      };
  for (auto& spec : tools::ObservabilityFlagSpecs()) specs.push_back(spec);
  const auto flags = tools::Flags::Parse(
      argc, argv,
      "Replays a trace-database workload in the SimMR engine under a\n"
      "pluggable scheduling policy and reports per-job completions, the\n"
      "deadline utility and slot utilization.",
      std::move(specs));
  if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
  if (!tools::ApplyLogLevel(*flags)) return 1;

  try {
    backend::ReplaySpec spec;
    spec.policy = flags->Get("policy");
    spec.map_slots = flags->GetInt("map-slots");
    spec.reduce_slots = flags->GetInt("reduce-slots");
    spec.slowstart = flags->GetDouble("slowstart");
    spec.record_tasks = true;
    spec.num_jobs = flags->GetInt("jobs");
    spec.mean_interarrival_s = flags->GetDouble("mean-interarrival");
    spec.deadline_factor = flags->GetDouble("deadline-factor");
    spec.seed = static_cast<std::uint64_t>(flags->GetInt("seed"));

    fault::FaultPlan fault_plan;
    if (!flags->Get("fault-plan").empty()) {
      fault_plan = fault::ReadFaultPlanFile(flags->Get("fault-plan"));
      spec.fault_plan = &fault_plan;
    }

    // Resolve the policy up front: its display name labels the report, and
    // an unknown --policy fails before the database is opened.
    const auto policy =
        backend::MakePolicy(spec.policy, spec.map_slots, spec.reduce_slots);

    // Reads only the index here. The replay reads the profiles it samples,
    // and measures their solo completions (T_J) only under a deadline.
    core::SimConfig solo_cfg;
    solo_cfg.map_slots = spec.map_slots;
    solo_cfg.reduce_slots = spec.reduce_slots;
    solo_cfg.min_map_percent_completed = spec.slowstart;
    const auto session =
        backend::SimSession::FromDatabase(flags->Get("db"), solo_cfg);

    // Observability sinks, attached only when requested so the default run
    // keeps the engine's no-observer fast path.
    tools::ObservabilitySinks sinks;
    sinks.Init(*flags);
    sinks.SetSlotConfig(spec.map_slots, spec.reduce_slots);
    sinks.live().sessions_total.store(1);
    spec.observer = sinks.observer();

    const auto wall_start = std::chrono::steady_clock::now();
    const backend::RunResult result = session.Replay(spec);
    sinks.live().sessions_completed.store(1);
    if (!sinks.serving())
      sinks.live().events_processed.store(result.events_processed);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    std::printf("%-20s %10s %10s %12s %10s %6s\n", "job", "arrival_s",
                "finish_s", "completion_s", "deadline_s", "met?");
    for (const auto& job : result.jobs) {
      std::printf("%-20s %10.1f %10.1f %12.1f %10.1f %6s\n",
                  job.name.c_str(), job.submit, job.finish,
                  job.CompletionTime(), job.deadline,
                  job.deadline <= 0.0 ? "-"
                  : job.MissedDeadline() ? "NO"
                                          : "yes");
    }

    const analysis::ResultSummary stats =
        analysis::Summarize(result, spec.map_slots, spec.reduce_slots);
    std::printf(
        "\npolicy=%s jobs=%zu makespan=%.1f s events=%llu\n"
        "deadline utility=%.3f missed=%d\n"
        "slot utilization: map %.1f%%, reduce %.1f%%\n",
        policy->Name(), stats.jobs, stats.makespan,
        static_cast<unsigned long long>(stats.events_processed),
        stats.deadline_utility, stats.missed_deadlines,
        100.0 * stats.utilization.map_utilization,
        100.0 * stats.utilization.reduce_utilization);

    if (!flags->Get("out-log").empty()) {
      core::WriteSimulationLogFile(flags->Get("out-log"),
                                   backend::ToSimResult(result));
      std::printf("simulation log written to %s\n",
                  flags->Get("out-log").c_str());
    }

    tools::RunSummary summary;
    summary.tool = "simmr_replay";
    summary.scenario = "policy=" + std::string(policy->Name()) +
                       " jobs=" + std::to_string(result.jobs.size());
    summary.simulator = "simmr";
    summary.wall_seconds = wall_seconds;
    summary.events_processed = result.events_processed;
    summary.jobs = result.jobs.size();
    summary.makespan = result.makespan;
    sinks.Write(summary);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
