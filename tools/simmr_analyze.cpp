// simmr_analyze: offline analysis of durable event logs
// (simmr.eventlog.v1, written by --event-log-out).
//
//   simmr_analyze report --log=run.jsonl
//   simmr_analyze critical-path --log=run.jsonl --job=2
//   simmr_analyze utilization --log=run.jsonl --map-slots=16
//   simmr_analyze diff --a=run.simmr.jsonl --b=run.mumak.jsonl --json
//   simmr_analyze availability --log=faulted.jsonl --baseline=clean.jsonl
//   simmr_analyze sweep-diff --baseline=sweep_a.json --candidate=sweep_b.json
//   simmr_analyze explore --summary=explore.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/availability.h"
#include "analysis/json_value.h"
#include "analysis/report.h"
#include "analysis/run_diff.h"
#include "analysis/run_record.h"
#include "analysis/sweep_diff.h"
#include "analysis/timeline.h"
#include "tool_common.h"

namespace {

void PrintTopUsage() {
  std::fprintf(
      stderr,
      "usage: simmr_analyze <subcommand> [flags]\n\n"
      "subcommands:\n"
      "  report         run summary, per-job phase breakdown and\n"
      "                 deadline-miss attribution\n"
      "  critical-path  the task chain that bounded each job's completion\n"
      "  utilization    slot utilization and a phase-occupancy timeline\n"
      "  diff           structural diff of two runs (first divergence,\n"
      "                 per-job completion deltas, dominant phase)\n"
      "  availability   fault-plan damage report: node downtime, killed\n"
      "                 and re-executed work, per-job completion penalty\n"
      "                 vs an optional fault-free --baseline log\n"
      "  timeline       per-window utilization / queue-depth / running-task\n"
      "                 tables and a straggler summary from a\n"
      "                 simmr.timeseries.v1 file (--timeseries-out)\n"
      "  sweep-diff     behaviour-drift gate over two simmr.sweep.v1\n"
      "                 documents; exits 4 on drift, 1 on grid mismatch\n"
      "  explore        summary of a simmr.explore.v1 document\n"
      "                 (simmr_explore --out)\n\n"
      "run 'simmr_analyze <subcommand> --help' for the subcommand's flags.\n");
}

simmr::tools::FlagSpec JsonFlag() {
  return {"json", "false", "emit JSON instead of the text report", true};
}

simmr::analysis::AnalyzeOptions OptionsFrom(const simmr::tools::Flags& flags,
                                            bool with_slots) {
  simmr::analysis::AnalyzeOptions opt;
  opt.json = flags.GetBool("json");
  if (with_slots) {
    opt.map_slots = flags.GetInt("map-slots");
    opt.reduce_slots = flags.GetInt("reduce-slots");
    opt.step = flags.GetDouble("step");
  } else {
    opt.job = flags.GetInt("job");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simmr;
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    PrintTopUsage();
    return argc < 2 ? 1 : 0;
  }
  const std::string sub = argv[1];
  // The subcommand becomes argv[0] of the shifted vector, so --help prints
  // it as the program name.
  argc -= 1;
  argv += 1;

  try {
    if (sub == "report" || sub == "critical-path") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          sub == "report"
              ? "Summarizes one event log: per-job phase breakdown, wave\n"
                "counts and deadline-miss attribution via the ARIA bounds."
              : "Extracts each job's critical path: the chain of task phase\n"
                "segments that bounded its completion.",
          {
              {"log", "run.jsonl", "input event-log path"},
              {"job", "-1", "restrict to this job id (-1 = all)"},
              JsonFlag(),
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      const auto record = analysis::RunRecord::Load(flags->Get("log"));
      const auto opt = OptionsFrom(*flags, /*with_slots=*/false);
      std::fputs(sub == "report"
                     ? analysis::RenderReport(record, opt).c_str()
                     : analysis::RenderCriticalPath(record, opt).c_str(),
                 stdout);
      if (opt.json) std::fputc('\n', stdout);
      return 0;
    }

    if (sub == "utilization") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          "Reports slot utilization and a phase-occupancy timeline for one\n"
          "event log. Slot counts default to the observed peak concurrency\n"
          "(the log does not record the cluster configuration).",
          {
              {"log", "run.jsonl", "input event-log path"},
              {"map-slots", "0", "map slots (0 = observed peak)"},
              {"reduce-slots", "0", "reduce slots (0 = observed peak)"},
              {"step", "0", "timeline sampling step, s (0 = makespan/20)"},
              JsonFlag(),
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      const auto record = analysis::RunRecord::Load(flags->Get("log"));
      const auto opt = OptionsFrom(*flags, /*with_slots=*/true);
      std::fputs(analysis::RenderUtilization(record, opt).c_str(), stdout);
      if (opt.json) std::fputc('\n', stdout);
      return 0;
    }

    if (sub == "availability") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          "Reports what a fault plan cost a run: per-node downtime from\n"
          "the NODE_LOST/NODE_RESTORED records, killed attempts and\n"
          "wasted attempt-seconds, re-executed map outputs, and — when a\n"
          "fault-free event log of the same workload is given via\n"
          "--baseline — each job's completion-time penalty and the\n"
          "makespan penalty.",
          {
              {"log", "run.jsonl", "faulted event-log path"},
              {"baseline", "",
               "optional fault-free event log of the same workload"},
              {"job", "-1", "restrict to this job id (-1 = all)"},
              JsonFlag(),
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      const auto record = analysis::RunRecord::Load(flags->Get("log"));
      analysis::RunRecord baseline;
      const bool with_baseline = !flags->Get("baseline").empty();
      if (with_baseline)
        baseline = analysis::RunRecord::Load(flags->Get("baseline"));
      const auto report = analysis::BuildAvailabilityReport(
          record, with_baseline ? &baseline : nullptr);
      const auto opt = OptionsFrom(*flags, /*with_slots=*/false);
      std::fputs(analysis::RenderAvailability(report, opt).c_str(), stdout);
      if (opt.json) std::fputc('\n', stdout);
      return 0;
    }

    if (sub == "diff") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          "Structurally diffs two event logs: aligns jobs, reports the\n"
          "first divergence and attributes per-job completion deltas to\n"
          "map/shuffle/reduce via per-attempt averages. Exits 0 when the\n"
          "runs are identical, 3 when they differ.",
          {
              {"a", "", "first event-log path (baseline)"},
              {"b", "", "second event-log path"},
              JsonFlag(),
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      if (flags->Get("a").empty() || flags->Get("b").empty()) {
        std::fprintf(stderr, "error: diff needs both --a and --b\n");
        return 1;
      }
      const auto record_a = analysis::RunRecord::Load(flags->Get("a"));
      const auto record_b = analysis::RunRecord::Load(flags->Get("b"));
      const auto diff = analysis::DiffRuns(record_a, record_b);
      analysis::AnalyzeOptions opt;
      opt.json = flags->GetBool("json");
      std::fputs(analysis::RenderDiff(diff, opt).c_str(), stdout);
      if (opt.json) std::fputc('\n', stdout);
      return diff.identical ? 0 : 3;
    }

    if (sub == "timeline") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          "Renders a simmr.timeseries.v1 file (--timeseries-out) as\n"
          "per-window utilization, queue-depth and running-task tables,\n"
          "plus a straggler summary: windows whose task-duration p99\n"
          "diverged from the median (a few tasks running far longer than\n"
          "their peers). --json emits one simmr.timeline.v1 document.",
          {
              {"timeseries", "timeseries.jsonl",
               "input simmr.timeseries.v1 path"},
              {"straggler-factor", "3",
               "flag windows where p99 >= factor * p50"},
              {"min-completions", "5",
               "ignore windows with fewer task completions than this"},
              JsonFlag(),
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      analysis::TimelineOptions opt;
      opt.json = flags->GetBool("json");
      opt.straggler_factor = flags->GetDouble("straggler-factor");
      opt.min_completions =
          static_cast<std::uint64_t>(flags->GetInt("min-completions"));
      if (!(opt.straggler_factor >= 1.0)) {
        std::fprintf(stderr, "error: --straggler-factor must be >= 1\n");
        return 1;
      }
      const auto timeline =
          analysis::LoadTimeline(flags->Get("timeseries"));
      std::fputs(analysis::RenderTimeline(timeline, opt).c_str(), stdout);
      if (opt.json) std::fputc('\n', stdout);
      return 0;
    }

    if (sub == "sweep-diff") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          "Compares two simmr.sweep.v1 documents cell-by-cell. Cell\n"
          "aggregates are deterministic sim-time quantities, so the\n"
          "default threshold is exact: any per-metric relative delta\n"
          "beyond --threshold is behaviour drift. Exits 0 when clean, 4 on\n"
          "drift, 1 on structural errors (mismatched grids, bad input).",
          {
              {"baseline", "", "baseline simmr.sweep.v1 path"},
              {"candidate", "", "candidate simmr.sweep.v1 path"},
              {"threshold", "0",
               "max relative per-metric delta that still passes (0 = exact)"},
              JsonFlag(),
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      if (flags->Get("baseline").empty() || flags->Get("candidate").empty()) {
        std::fprintf(stderr,
                     "error: sweep-diff needs both --baseline and "
                     "--candidate\n");
        return 1;
      }
      analysis::SweepDiffOptions opt;
      opt.threshold = flags->GetDouble("threshold");
      opt.json = flags->GetBool("json");
      if (opt.threshold < 0.0) {
        std::fprintf(stderr, "error: --threshold must be >= 0\n");
        return 1;
      }
      const auto baseline = analysis::LoadSweepDoc(flags->Get("baseline"));
      const auto candidate = analysis::LoadSweepDoc(flags->Get("candidate"));
      const auto result = analysis::DiffSweepDocs(baseline, candidate, opt);
      std::fputs(analysis::RenderSweepDiff(result, opt).c_str(), stdout);
      if (opt.json) std::fputc('\n', stdout);
      return analysis::SweepDiffExitCode(result);
    }

    if (sub == "explore") {
      const auto flags = tools::Flags::Parse(
          argc, argv,
          "Summarizes a simmr.explore.v1 document (simmr_explore --out):\n"
          "coverage, pruning effectiveness and any recorded violations.",
          {
              {"summary", "explore.json", "input simmr.explore.v1 path"},
              tools::LogLevelFlag(),
          });
      if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
      if (!tools::ApplyLogLevel(*flags)) return 1;
      std::ifstream in(flags->Get("summary"));
      if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n",
                     flags->Get("summary").c_str());
        return 1;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      const analysis::JsonValue doc =
          analysis::JsonValue::Parse(buffer.str());
      if (doc.StringOr("format_version", "") != "simmr.explore.v1") {
        std::fprintf(stderr, "error: %s is not a simmr.explore.v1 document\n",
                     flags->Get("summary").c_str());
        return 1;
      }
      const analysis::JsonValue* stats = doc.Find("stats");
      const analysis::JsonValue* options = doc.Find("options");
      if (stats == nullptr || options == nullptr) {
        std::fprintf(stderr, "error: explore document missing stats\n");
        return 1;
      }
      const double explored = stats->NumberOr("transitions_explored", 0);
      const double pruned = stats->NumberOr("transitions_pruned", 0);
      const double considered = explored + pruned;
      const analysis::JsonValue* exhausted = stats->Find("exhausted");
      std::printf("exploration of scenario '%s' (seed %.0f, depth %.0f, "
                  "budget %.0f)\n",
                  doc.StringOr("scenario", "?").c_str(),
                  options->NumberOr("seed", 0),
                  options->NumberOr("depth", 0),
                  options->NumberOr("budget", 0));
      std::printf("  executions:      %.0f (dfs %.0f, random %.0f), %s\n",
                  stats->NumberOr("executions", 0),
                  stats->NumberOr("dfs_executions", 0),
                  stats->NumberOr("random_executions", 0),
                  exhausted != nullptr && exhausted->IsBool() &&
                          exhausted->AsBool()
                      ? "exhausted"
                      : "budget reached");
      std::printf("  choice points:   %.0f (widest tie %.0f, frontier high "
                  "water %.0f)\n",
                  stats->NumberOr("choice_points", 0),
                  stats->NumberOr("deepest_tie", 0),
                  stats->NumberOr("frontier_high_water", 0));
      std::printf("  transitions:     %.0f explored, %.0f pruned (%.1f%%), "
                  "%.0f sleep-blocked\n",
                  explored, pruned,
                  considered > 0 ? 100.0 * pruned / considered : 0.0,
                  stats->NumberOr("sleep_blocked", 0));
      std::printf("  terminal states: %.0f distinct\n",
                  stats->NumberOr("distinct_terminals", 0));
      const analysis::JsonValue* violations = doc.Find("violations");
      const std::size_t violation_count =
          violations != nullptr && violations->IsArray()
              ? violations->AsArray().size()
              : 0;
      std::printf("  violations:      %zu\n", violation_count);
      if (violation_count != 0) {
        for (const analysis::JsonValue& v : violations->AsArray())
          std::printf("    [%s] %s\n", v.StringOr("property", "?").c_str(),
                      v.StringOr("detail", "?").c_str());
      }
      return 0;
    }

    std::fprintf(stderr, "error: unknown subcommand '%s'\n\n", sub.c_str());
    PrintTopUsage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
