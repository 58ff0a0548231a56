// simmr_sweep: parameter-grid sweeps over the SimMR engine, run in
// parallel across worker threads.
//
// The grid is the cross product of --policies x --slots x
// --arrival-scales x --replicates; every grid point becomes one
// SimSession replay with its own deterministically derived RNG stream, so
// the per-session results are bit-identical no matter how many threads
// run the sweep (--threads/-j, or the SIMMR_THREADS environment
// variable — an explicit flag wins over the environment, and 0 means
// hardware concurrency).
//
//   simmr_sweep --db=traces/ --policies=fifo,minedf --slots=64x64,32x32
//               --arrival-scales=0.5,1,2 --replicates=3 -j 8
//               --out=sweep.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/result_stats.h"
#include "backend/session.h"
#include "obs/json.h"
#include "simcore/parallel.h"
#include "simcore/rng.h"
#include "tool_common.h"

namespace {

using namespace simmr;

// One grid point: everything that varies between sessions.
struct SweepPoint {
  std::string policy;
  int map_slots = 0;
  int reduce_slots = 0;
  double arrival_scale = 1.0;
  int replicate = 0;
  std::uint64_t seed = 0;
};

// One grid point's outcome, reduced to reportable numbers.
struct SweepRecord {
  SweepPoint point;
  analysis::ResultSummary summary;
};

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Parses one "MxR" slot configuration, e.g. "64x64" or "32x8".
std::pair<int, int> ParseSlots(const std::string& text) {
  const std::size_t x = text.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= text.size())
    throw std::invalid_argument("flag --slots: want MxR, got '" + text + "'");
  try {
    std::size_t consumed = 0;
    const int maps = std::stoi(text.substr(0, x), &consumed);
    if (consumed != x) throw std::invalid_argument(text);
    const std::string reduces_text = text.substr(x + 1);
    const int reduces = std::stoi(reduces_text, &consumed);
    if (consumed != reduces_text.size()) throw std::invalid_argument(text);
    if (maps <= 0 || reduces <= 0) throw std::invalid_argument(text);
    return {maps, reduces};
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --slots: want MxR, got '" + text + "'");
  }
}

std::string FormatSlots(const SweepPoint& p) {
  return std::to_string(p.map_slots) + "x" + std::to_string(p.reduce_slots);
}

void WriteSweepJson(const std::string& path, const tools::Flags& flags,
                    const std::vector<std::string>& policies,
                    const std::vector<std::string>& slot_names,
                    const std::vector<double>& arrival_scales, int replicates,
                    unsigned threads, double wall_seconds,
                    const std::vector<SweepRecord>& records) {
  std::string out;
  out += "{\n  \"format_version\": \"simmr.sweep.v1\",\n";
  out += "  \"tool\": \"simmr_sweep\",\n";
  out += "  \"db\": \"" + obs::JsonEscape(flags.Get("db")) + "\",\n";
  out += "  \"grid\": {\n    \"policies\": [";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + obs::JsonEscape(policies[i]) + "\"";
  }
  out += "],\n    \"slots\": [";
  for (std::size_t i = 0; i < slot_names.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + obs::JsonEscape(slot_names[i]) + "\"";
  }
  out += "],\n    \"arrival_scales\": [";
  for (std::size_t i = 0; i < arrival_scales.size(); ++i) {
    if (i != 0) out += ", ";
    out += obs::JsonNumber(arrival_scales[i]);
  }
  out += "],\n";
  out += "    \"replicates\": " + std::to_string(replicates) + ",\n";
  out += "    \"jobs\": " + std::to_string(flags.GetInt("jobs")) + ",\n";
  out += "    \"mean_interarrival_s\": " +
         obs::JsonNumber(flags.GetDouble("mean-interarrival")) + ",\n";
  out += "    \"deadline_factor\": " +
         obs::JsonNumber(flags.GetDouble("deadline-factor")) + ",\n";
  out += "    \"slowstart\": " + obs::JsonNumber(flags.GetDouble("slowstart")) +
         ",\n";
  out += "    \"seed\": " + std::to_string(flags.GetInt("seed")) + "\n  },\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"wall_seconds\": " + obs::JsonNumber(wall_seconds) + ",\n";
  out += "  \"sessions\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SweepPoint& p = records[i].point;
    const analysis::ResultSummary& s = records[i].summary;
    out += "    {\"session\": " + std::to_string(i) + ", \"policy\": \"" +
           obs::JsonEscape(p.policy) + "\"";
    out += ", \"map_slots\": " + std::to_string(p.map_slots);
    out += ", \"reduce_slots\": " + std::to_string(p.reduce_slots);
    out += ", \"arrival_scale\": " + obs::JsonNumber(p.arrival_scale);
    out += ", \"replicate\": " + std::to_string(p.replicate);
    out += ", \"seed\": " + std::to_string(p.seed);
    out += ", \"jobs\": " + std::to_string(s.jobs);
    out += ", \"events\": " + std::to_string(s.events_processed);
    out += ", \"makespan_s\": " + obs::JsonNumber(s.makespan);
    out += ", \"mean_completion_s\": " + obs::JsonNumber(s.mean_completion_s);
    out += ", \"max_completion_s\": " + obs::JsonNumber(s.max_completion_s);
    out += ", \"deadline_utility\": " + obs::JsonNumber(s.deadline_utility);
    out += ", \"missed_deadlines\": " + std::to_string(s.missed_deadlines);
    out += ", \"map_utilization\": " +
           obs::JsonNumber(s.utilization.map_utilization);
    out += ", \"reduce_utilization\": " +
           obs::JsonNumber(s.utilization.reduce_utilization);
    out += i + 1 < records.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"cells\": [\n";
  // Aggregate replicates per grid cell, in session order (replicate is the
  // innermost grid dimension, so each cell is a contiguous run).
  std::string cells;
  for (std::size_t i = 0; i < records.size();
       i += static_cast<std::size_t>(replicates)) {
    const SweepPoint& p = records[i].point;
    double makespan = 0.0, utility = 0.0, completion = 0.0, missed = 0.0;
    for (int r = 0; r < replicates; ++r) {
      const analysis::ResultSummary& s =
          records[i + static_cast<std::size_t>(r)].summary;
      makespan += s.makespan;
      utility += s.deadline_utility;
      completion += s.mean_completion_s;
      missed += s.missed_deadlines;
    }
    const double n = static_cast<double>(replicates);
    if (!cells.empty()) cells += ",\n";
    cells += "    {\"policy\": \"" + obs::JsonEscape(p.policy) + "\"";
    cells += ", \"slots\": \"" + FormatSlots(p) + "\"";
    cells += ", \"arrival_scale\": " + obs::JsonNumber(p.arrival_scale);
    cells += ", \"replicates\": " + std::to_string(replicates);
    cells += ", \"mean_makespan_s\": " + obs::JsonNumber(makespan / n);
    cells += ", \"mean_completion_s\": " + obs::JsonNumber(completion / n);
    cells += ", \"mean_deadline_utility\": " + obs::JsonNumber(utility / n);
    cells += ", \"mean_missed_deadlines\": " + obs::JsonNumber(missed / n);
    cells += "}";
  }
  out += cells + "\n  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("simmr_sweep: cannot open " + path);
  std::fwrite(out.data(), 1, out.size(), f);
  if (std::fclose(f) != 0)
    throw std::runtime_error("simmr_sweep: write failed for " + path);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<tools::FlagSpec> specs = {
      {"db", "traces", "trace-database directory"},
      {"policies", "fifo",
       "comma list of policies (fifo | maxedf | minedf | fair | capacity)"},
      {"slots", "64x64", "comma list of MxR slot configurations"},
      {"arrival-scales", "1",
       "comma list of inter-arrival multipliers (scales --mean-interarrival)"},
      {"replicates", "1", "randomized replays per grid cell"},
      {"jobs", "0", "jobs per session (0 = one instance of each profile)"},
      {"mean-interarrival", "100",
       "exponential arrival mean, s (0 = all at t=0)"},
      {"deadline-factor", "0", "df >= 1 enables deadlines in [T, df*T]"},
      {"slowstart", "0.05", "minMapPercentCompleted gate"},
      {"seed", "42", "master seed; per-session streams are split from it"},
      {"out", "", "optional simmr.sweep.v1 JSON output path"},
      tools::ThreadsFlag(),
      tools::LogLevelFlag(),
  };
  for (auto& spec : tools::ObservabilityFlagSpecs()) specs.push_back(spec);
  const auto flags = tools::Flags::Parse(
      argc, argv,
      "Runs a parameter-grid sweep (policies x slots x arrival scales x\n"
      "replicates) of SimMR replays over a trace database, parallelized\n"
      "across worker threads with deterministic per-session RNG streams,\n"
      "and reports per-cell aggregates (simmr.sweep.v1 JSON via --out).",
      std::move(specs));
  if (!flags) return tools::Flags::LastParseFailed() ? 1 : 0;
  if (!tools::ApplyLogLevel(*flags)) return 1;

  try {
    const std::vector<std::string> policies =
        SplitList(flags->Get("policies"));
    const std::vector<std::string> slot_names = SplitList(flags->Get("slots"));
    const std::vector<std::string> scale_names =
        SplitList(flags->Get("arrival-scales"));
    const int replicates = flags->GetInt("replicates");
    if (policies.empty() || slot_names.empty() || scale_names.empty() ||
        replicates <= 0) {
      std::fprintf(stderr,
                   "error: --policies, --slots, --arrival-scales must be "
                   "non-empty and --replicates positive\n");
      return 1;
    }
    std::vector<std::pair<int, int>> slot_configs;
    for (const std::string& name : slot_names)
      slot_configs.push_back(ParseSlots(name));
    std::vector<double> arrival_scales;
    for (const std::string& name : scale_names) {
      std::size_t consumed = 0;
      const double scale = std::stod(name, &consumed);
      if (consumed != name.size() || scale <= 0.0)
        throw std::invalid_argument(
            "flag --arrival-scales: bad multiplier '" + name + "'");
      arrival_scales.push_back(scale);
    }

    // Solo completion times (T_J) are measured on the first slot
    // configuration, once per profile, by the first session that samples
    // the profile under a deadline; deadlines scale with T_J per Section
    // V-B either way. The shared session reads each profile file once.
    core::SimConfig solo_cfg;
    solo_cfg.map_slots = slot_configs.front().first;
    solo_cfg.reduce_slots = slot_configs.front().second;
    solo_cfg.min_map_percent_completed = flags->GetDouble("slowstart");
    const backend::SimSession session =
        backend::SimSession::FromDatabase(flags->Get("db"), solo_cfg);

    // The full grid, replicate innermost so each cell is contiguous.
    // Session seeds are split from the master seed by session index:
    // identical for every thread count.
    const Rng master(static_cast<std::uint64_t>(flags->GetInt("seed")));
    std::vector<SweepPoint> points;
    for (const std::string& policy : policies) {
      for (const auto& [map_slots, reduce_slots] : slot_configs) {
        for (const double scale : arrival_scales) {
          for (int r = 0; r < replicates; ++r) {
            SweepPoint p;
            p.policy = policy;
            p.map_slots = map_slots;
            p.reduce_slots = reduce_slots;
            p.arrival_scale = scale;
            p.replicate = r;
            p.seed = master.Split("sweep/session", points.size())();
            points.push_back(std::move(p));
          }
        }
      }
    }

    const unsigned threads =
        static_cast<unsigned>(tools::ResolveThreads(*flags));

    // Observability sinks attach to session 0 only (one observer cannot be
    // shared across concurrently running engines); telemetry still
    // aggregates the whole sweep.
    tools::ObservabilitySinks sinks;
    sinks.Init(*flags);
    sinks.SetSlotConfig(points.front().map_slots, points.front().reduce_slots);
    sinks.live().sessions_total.store(points.size());

    std::vector<SweepRecord> records(points.size());
    const auto wall_start = std::chrono::steady_clock::now();
    ParallelFor(
        points.size(),
        [&](std::size_t i) {
          const SweepPoint& p = points[i];
          backend::ReplaySpec spec;
          spec.policy = p.policy;
          spec.map_slots = p.map_slots;
          spec.reduce_slots = p.reduce_slots;
          spec.slowstart = flags->GetDouble("slowstart");
          spec.num_jobs = flags->GetInt("jobs");
          spec.mean_interarrival_s = flags->GetDouble("mean-interarrival");
          spec.arrival_scale = p.arrival_scale;
          spec.deadline_factor = flags->GetDouble("deadline-factor");
          spec.seed = p.seed;
          spec.record_tasks = true;
          if (i == 0) spec.observer = sinks.observer();
          const backend::RunResult result = session.Replay(spec);
          records[i].point = p;
          records[i].summary =
              analysis::Summarize(result, p.map_slots, p.reduce_slots);
          // Live /progress: session 0's events are already counted by the
          // serving observer; the others are added as they finish.
          if (i != 0 || !sinks.serving()) {
            sinks.live().events_processed.fetch_add(
                result.events_processed, std::memory_order_relaxed);
          }
          sinks.live().sessions_completed.fetch_add(
              1, std::memory_order_relaxed);
        },
        threads);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    std::printf("%-10s %-9s %8s %5s %12s %12s %8s %7s\n", "policy", "slots",
                "xarrival", "reps", "makespan_s", "mean_cmpl_s", "utility",
                "missed");
    for (std::size_t i = 0; i < records.size();
         i += static_cast<std::size_t>(replicates)) {
      const SweepPoint& p = records[i].point;
      double makespan = 0.0, utility = 0.0, completion = 0.0;
      int missed = 0;
      for (int r = 0; r < replicates; ++r) {
        const analysis::ResultSummary& s =
            records[i + static_cast<std::size_t>(r)].summary;
        makespan += s.makespan;
        utility += s.deadline_utility;
        completion += s.mean_completion_s;
        missed += s.missed_deadlines;
      }
      const double n = static_cast<double>(replicates);
      std::printf("%-10s %-9s %8.2f %5d %12.1f %12.1f %8.3f %7.1f\n",
                  p.policy.c_str(), FormatSlots(p).c_str(), p.arrival_scale,
                  replicates, makespan / n, completion / n, utility / n,
                  static_cast<double>(missed) / n);
    }

    std::uint64_t total_events = 0, total_jobs = 0;
    double max_makespan = 0.0;
    for (const SweepRecord& record : records) {
      total_events += record.summary.events_processed;
      total_jobs += record.summary.jobs;
      max_makespan = std::max(max_makespan, record.summary.makespan);
    }
    std::printf(
        "\nsweep: %zu sessions (%zu cells x %d replicates) on %u threads "
        "in %.2f s (%.1f sessions/s)\n",
        records.size(), records.size() / static_cast<std::size_t>(replicates),
        replicates, threads, wall_seconds,
        wall_seconds > 0.0 ? static_cast<double>(records.size()) / wall_seconds
                           : 0.0);

    if (!flags->Get("out").empty()) {
      WriteSweepJson(flags->Get("out"), *flags, policies, slot_names,
                     arrival_scales, replicates, threads, wall_seconds,
                     records);
      std::printf("sweep results written to %s\n", flags->Get("out").c_str());
    }

    tools::RunSummary summary;
    summary.tool = "simmr_sweep";
    summary.scenario =
        "sessions=" + std::to_string(records.size()) +
        " policies=" + flags->Get("policies") + " threads=" +
        std::to_string(threads);
    summary.simulator = "simmr";
    summary.wall_seconds = wall_seconds;
    summary.events_processed = total_events;
    summary.jobs = total_jobs;
    summary.makespan = max_makespan;
    sinks.Write(summary);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
