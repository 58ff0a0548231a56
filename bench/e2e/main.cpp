// simmr_bench_e2e: the end-to-end benchmark binary. One process runs one
// workload as a closed loop (the next op starts when the previous one
// ends) and prints its end-to-end metrics, or with --trace 1 its per-layer
// metrics from the spans, as `name workload value unit` lines followed by
// one JSON line.
//
//   simmr_bench_e2e --workload whatif_backlog --seed 42 --seconds 15
//   simmr_bench_e2e --workload sweep_paced --trace 1 --trace-out spans.json
//
// Workloads: whatif_backlog, sweep_paced, record_paced, validate. See
// README.md beside this file for what each exercises and which layer
// metric should move which end-to-end metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"
#include "simcore/stats.h"
#include "spans.h"

namespace simmr::e2e {
namespace {

struct Workload {
  const char* name;
  RunOutcome (*run)(const RunOptions&);
  /// op_tail_ms percentile: the highest with at least ten ops beyond it
  /// at the benchmark's run length (README.md lists the op counts).
  double tail_percentile;
};

constexpr Workload kWorkloads[] = {
    {"whatif_backlog", RunWhatifBacklog, 70.0},
    {"sweep_paced", RunSweepPaced, 99.0},
    {"record_paced", RunRecordPaced, 70.0},
    {"validate", RunValidate, 50.0},
};

// Every per-layer metric, in report order. A `<span>_s` name without an
// explicit rule below is the mean self time of span <span> per op (per
// set-up for set-up spans).
const char* const kLayerMetrics[] = {
    "trace.db_load_s", "trace.db_bytes", "core.solo_s",
    "mumak.rumen_from_profiles_s",
    "sched.fifo.decide_s", "sched.fifo.decisions",
    "sched.fifo.ns_per_decision", "sched.fifo.useful_ratio",
    "sched.fifo.lifecycle_s",
    "sched.maxedf.decide_s", "sched.maxedf.decisions",
    "sched.maxedf.ns_per_decision", "sched.maxedf.useful_ratio",
    "sched.maxedf.lifecycle_s",
    "sched.minedf.decide_s", "sched.minedf.decisions",
    "sched.minedf.ns_per_decision", "sched.minedf.useful_ratio",
    "sched.minedf.lifecycle_s",
    "sched.fair.decide_s", "sched.fair.decisions",
    "sched.fair.ns_per_decision", "sched.fair.useful_ratio",
    "sched.fair.lifecycle_s",
    "sched.capacity.decide_s", "sched.capacity.decisions",
    "sched.capacity.ns_per_decision", "sched.capacity.useful_ratio",
    "sched.capacity.lifecycle_s",
    "sched.queue_len_mean", "sched.queue_len_max",
    "core.engine_self_s", "core.events", "core.ns_per_event",
    "trace.make_workload_s", "backend.adapt_s", "analysis.summarize_s",
    "core.sim_log_write_s", "simcore.parallel_busy_ratio",
    "backend.replay_bare_s", "backend.replay_recorded_s", "obs.hook_s",
    "obs.eventlog_write_s", "obs.timeseries_write_s", "obs.perfetto_write_s",
    "obs.metrics_write_s", "obs.eventlog_bytes", "obs.timeseries_bytes",
    "obs.perfetto_bytes", "obs.metrics_bytes",
    "analysis.eventlog_read_s", "analysis.run_record_s", "analysis.report_s",
    "analysis.critical_path_s", "analysis.utilization_s",
    "analysis.timeline_s",
    "cluster.testbed_s", "cluster.faulted_testbed_s", "cluster.events",
    "cluster.ns_per_event", "cluster.history_write_s",
    "cluster.history_read_s", "cluster.node_downtime_s",
    "trace.build_profiles_s", "core.replay_s", "mumak.rumen_from_history_s",
    "mumak.run_s", "mumak.events", "mumak.ns_per_event",
    "analysis.availability_s",
    "fig5.accuracy_err_pct", "fig5.max_err_pct", "fig5.mumak_err_pct",
    "fig6.event_ratio", "fig6.wall_ratio",
    "share.trace", "share.core", "share.sched", "share.backend",
    "share.analysis", "share.obs", "share.cluster", "share.mumak",
    "share.bench",
    "bench.check_s", "bench.unattributed_ratio", "bench.trace_overhead_pct",
    "bench.ops_traced",
};

const char* LayerUnit(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with("_bytes")) return "bytes";
  if (ends_with("_pct")) return "%";
  if (ends_with("ns_per_decision") || ends_with("ns_per_event")) return "ns";
  if (ends_with("_ratio") || name.rfind("share.", 0) == 0) return "ratio";
  return "count";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Percentile(v, 50.0);
}

std::map<std::string, double> LayerMetrics(const RunOutcome& out) {
  const SpanSummary spans = Summarize(RecordedSpans());
  std::map<std::string, double> m = out.layer;
  for (const char* name : kLayerMetrics) {
    const std::string n = name;
    if (m.count(n) || n.size() < 2 || n.compare(n.size() - 2, 2, "_s") != 0)
      continue;
    m[n] = spans.PerOp(n.substr(0, n.size() - 2));
  }
  const auto get = [&m](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  m["core.engine_self_s"] = spans.PerOp("core.engine");
  m["core.ns_per_event"] =
      Ratio(1e9 * m["core.engine_self_s"], get("core.events"));
  m["cluster.ns_per_event"] =
      Ratio(1e9 * get("cluster.testbed_s"), get("cluster.events"));
  m["mumak.ns_per_event"] = Ratio(1e9 * get("mumak.run_s"),
                                  get("mumak.events"));
  m["obs.hook_s"] =
      get("backend.replay_recorded_s") - get("backend.replay_bare_s");
  for (const char* module : {"trace", "core", "sched", "backend", "analysis",
                             "obs", "cluster", "mumak", "bench"}) {
    const auto it = spans.module_self_s.find(module);
    m[std::string("share.") + module] =
        Ratio(it == spans.module_self_s.end() ? 0.0 : it->second, spans.op_s);
  }
  m["bench.unattributed_ratio"] = Ratio(spans.unattributed_s, spans.op_s);
  m["bench.trace_overhead_pct"] =
      out.untraced_op_ms.empty() || out.traced_op_ms.empty()
          ? 0.0
          : 100.0 * (Median(out.traced_op_ms) / Median(out.untraced_op_ms) -
                     1.0);
  m["bench.ops_traced"] = static_cast<double>(out.traced_op_ms.size());
  return m;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Prints the usage (after `error`, when given) and exits: 0 for --help,
/// 2 for a bad command line.
[[noreturn]] void Usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
  std::fprintf(error.empty() ? stdout : stderr,
               "usage: simmr_bench_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "       [--trace-out PATH] [--work-dir DIR] "
               "[--max-rounds N] [--setups N] [--commit ID]\n"
               "workloads: whatif_backlog sweep_paced record_paced "
               "validate\n");
  std::exit(error.empty() ? 0 : 2);
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string trace_out, commit = "unknown";
  opt.work_dir = "simmr_bench_e2e.work";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i], value;
    if (flag == "--help" || flag == "-h") Usage("");
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("flag " + flag + " needs a value");
    }
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") trace_out = value;
      else if (flag == "--work-dir") opt.work_dir = value;
      else if (flag == "--max-rounds") opt.max_rounds = std::stoi(value);
      else if (flag == "--setups") opt.setups = std::stoi(value);
      else if (flag == "--commit") commit = value;
      else Usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      Usage("bad value '" + value + "' for " + flag);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) workload = &w;
  if (workload == nullptr) Usage("unknown workload '" + opt.workload + "'");
  if (opt.setups < 1 || opt.max_rounds < 0 || !(opt.seconds >= 0.0))
    Usage("--setups must be >= 1, --max-rounds >= 0, --seconds >= 0");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = std::min(2u, nproc);
  if (opt.trace) EnableSpans();

  std::printf(
      "fingerprint build_type=%s compiler=%s profiler=%d nproc=%u "
      "threads=%u commit=%s\n",
      SIMMR_E2E_BUILD_TYPE, SIMMR_E2E_COMPILER, SIMMR_E2E_PROFILER, nproc,
      opt.threads, commit.c_str());

  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  RunOutcome out;
  try {
    out = workload->run(opt);
  } catch (...) {
    std::filesystem::remove_all(opt.work_dir);
    throw;
  }
  std::filesystem::remove_all(opt.work_dir);

  Digest digest;
  for (const std::uint64_t d : out.first_round_digests) digest.Add(d);
  std::printf("digest %s %s\n", workload->name, Hex(digest.value()).c_str());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", Median(out.setup_s), "s"},
        {"events_per_s", Median(out.round_events_per_s), "events/s"},
        {"op_p50_ms", Median(out.op_ms), "ms"},
        {"op_tail_ms",
         out.op_ms.empty() ? 0.0
                           : Percentile(out.op_ms, workload->tail_percentile),
         "ms"},
        {"peak_rss_mb", static_cast<double>(obs::QueryMaxRssKb()) / 1024.0,
         "MB"},
    };
  } else {
    const auto layers = LayerMetrics(out);
    for (const char* name : kLayerMetrics) {
      const auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : it->second,
                         LayerUnit(name)});
    }
    if (!trace_out.empty()) WriteChromeTrace(trace_out, RecordedSpans());
  }
  for (const Metric& m : metrics)
    std::printf("%s %s %s %s\n", m.name.c_str(), workload->name,
                obs::ExactJsonNumber(m.value).c_str(), m.unit.c_str());
  std::printf("ops %s %llu\n", workload->name,
              static_cast<unsigned long long>(out.attempted));
  std::printf("fail_ratio %s %s ratio\n", workload->name,
              obs::ExactJsonNumber(Ratio(static_cast<double>(out.failed),
                                         static_cast<double>(out.attempted)))
                  .c_str());
  if (out.accuracy_err_pct)
    std::printf("accuracy_err_pct %s %s %%\n", workload->name,
                obs::ExactJsonNumber(*out.accuracy_err_pct).c_str());

  std::string json = "{\"correct\":";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":{\"value\":" +
            obs::ExactJsonNumber(std::isfinite(metrics[i].value)
                                     ? metrics[i].value
                                     : 0.0) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace simmr::e2e

int main(int argc, char** argv) {
  try {
    return simmr::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
