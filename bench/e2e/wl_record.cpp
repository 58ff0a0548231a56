// record_paced: the run-record round trip. Each op replays one paced FIFO
// workload bare, then again with the event log, time series, Perfetto
// trace and metrics observers attached, writes all four files, and reads
// them back into the report, critical-path, utilization and timeline
// outputs. The recorded replay minus the bare one is the observer hooks'
// cost, measured without wrapping the observers, so the engine keeps its
// own observer dispatch.
#include <cmath>
#include <filesystem>

#include "analysis/json_value.h"
#include "analysis/report.h"
#include "analysis/run_record.h"
#include "analysis/timeline.h"
#include "common.h"
#include "obs/event_log.h"
#include "obs/metrics_observer.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "spans.h"

namespace simmr::e2e {
namespace {

constexpr int kJobs = 100;
constexpr double kWindowS = 60.0;  // the tools' --timeseries-window default

std::string CheckReadBack(const obs::EventLog& parsed,
                          const obs::EventLogObserver& recorded,
                          const std::string& report_json,
                          const backend::RunResult& result) {
  if (parsed.events != recorded.events())
    return "event log read back differs from the recorded one";
  const analysis::JsonValue report = analysis::JsonValue::Parse(report_json);
  if (report.NumberOr("jobs", -1) != static_cast<double>(result.jobs.size()) ||
      report.NumberOr("completed", -1) !=
          static_cast<double>(result.jobs.size()))
    return "report job count differs from the replay";
  // The report prints the makespan rounded to a few decimals.
  if (std::fabs(report.NumberOr("makespan", -1) - result.makespan) >
      1e-9 * result.makespan)
    return "report makespan differs from the replay";
  return "";
}

}  // namespace

RunOutcome RunRecordPaced(const RunOptions& opt) {
  RunOutcome out;
  const std::string db_dir = opt.work_dir + "/db";
  out.layer["trace.db_bytes"] =
      static_cast<double>(WriteDatabase(opt.seed, db_dir));
  const backend::SimSession session = TimedSetups(opt, out, db_dir);

  const std::string dir = opt.work_dir + "/record";
  std::filesystem::create_directories(dir);
  const std::string eventlog_path = dir + "/run.jsonl";
  const std::string timeseries_path = dir + "/timeseries.jsonl";
  const std::string perfetto_path = dir + "/trace.json";
  const std::string metrics_path = dir + "/metrics.json";
  const std::pair<const char*, std::string> outputs[] = {
      {"obs.eventlog_bytes", eventlog_path},
      {"obs.timeseries_bytes", timeseries_path},
      {"obs.perfetto_bytes", perfetto_path},
      {"obs.metrics_bytes", metrics_path},
  };
  const obs::EventLogHeader header{"simmr_bench_e2e", "record_paced",
                                   "simmr"};

  std::map<std::string, double> bytes;
  std::uint64_t traced_ops = 0;
  RunRounds(opt, out, [&](int round) {
    const bool traced = TracedRound(opt, round);
    backend::ReplaySpec spec;
    spec.policy = "fifo";
    spec.num_jobs = kJobs;
    spec.mean_interarrival_s = 1000.0;
    spec.record_tasks = true;
    spec.seed = SubSeed(opt.seed, "record", InputRound(opt, round));
    const OpSample sample = RunOp("op.record", round, traced, [&] {
      backend::RunResult bare;
      {
        const Span span("backend.replay_bare");
        bare = session.Replay(spec);
      }

      // The sinks and fan-out order of the tools' observability flags.
      obs::MetricsRegistry registry;
      obs::MetricsObserver metrics(registry);
      obs::TimeSeriesSampler::Options ts_options;
      ts_options.window_s = kWindowS;
      ts_options.registry = &registry;
      ts_options.map_slots = spec.map_slots;
      ts_options.reduce_slots = spec.reduce_slots;
      obs::TimeSeriesSampler timeseries(ts_options);
      obs::TraceExporter::Options trace_options;
      trace_options.queue_depth_window_s = kWindowS;
      obs::TraceExporter perfetto(trace_options);
      obs::EventLogObserver eventlog;
      obs::MulticastObserver multicast;
      multicast.Add(&timeseries);
      multicast.Add(&metrics);
      multicast.Add(&perfetto);
      multicast.Add(&eventlog);

      backend::ReplaySpec recorded_spec = spec;
      recorded_spec.observer = &multicast;
      backend::RunResult result;
      {
        const Span span("backend.replay_recorded");
        const Clock::time_point start = Clock::now();
        result = session.Replay(recorded_spec);
        metrics.SetWallStats(SecondsSince(start));
      }
      {
        const Span span("obs.eventlog_write");
        eventlog.WriteFile(eventlog_path, header);
      }
      {
        const Span span("obs.timeseries_write");
        timeseries.WriteFile(timeseries_path,
                             {header.tool, header.scenario, header.simulator});
      }
      {
        const Span span("obs.perfetto_write");
        perfetto.WriteFile(perfetto_path);
      }
      {
        const Span span("obs.metrics_write");
        registry.WriteFile(metrics_path, /*as_json=*/true);
      }

      obs::EventLog parsed;
      {
        const Span span("analysis.eventlog_read");
        parsed = obs::ReadEventLogFile(eventlog_path);
      }
      analysis::RunRecord record;
      {
        const Span span("analysis.run_record");
        record = analysis::RunRecord::FromLog(parsed);
      }
      analysis::AnalyzeOptions json;
      json.json = true;
      std::string report;
      {
        const Span span("analysis.report");
        report = analysis::RenderReport(record, json);
      }
      {
        const Span span("analysis.critical_path");
        analysis::RenderCriticalPath(record, analysis::AnalyzeOptions{});
      }
      {
        const Span span("analysis.utilization");
        analysis::AnalyzeOptions utilization;
        utilization.map_slots = spec.map_slots;
        utilization.reduce_slots = spec.reduce_slots;
        analysis::RenderUtilization(record, utilization);
      }
      {
        const Span span("analysis.timeline");
        analysis::RenderTimeline(analysis::LoadTimeline(timeseries_path),
                                 analysis::TimelineOptions{});
      }

      const Span span("bench.check");
      OpResult op{bare.events_processed + result.events_processed,
                  DigestOf(result), CheckAllFinished(result, kJobs)};
      if (op.failure.empty() && DigestOf(bare) != op.digest)
        op.failure = "attaching observers changed the replay";
      if (op.failure.empty())
        op.failure = CheckReadBack(parsed, eventlog, report, result);
      if (traced) {
        for (const auto& [name, path] : outputs)
          bytes[name] += static_cast<double>(std::filesystem::file_size(path));
        ++traced_ops;
      }
      return op;
    });
    Record(out, sample, round == 0);
  });

  for (const auto& [name, total] : bytes)
    out.layer[name] = total / static_cast<double>(traced_ops);
  return out;
}

}  // namespace simmr::e2e
