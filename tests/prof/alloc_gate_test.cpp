// Allocation gates for the run-record path: recording, writing and reading
// back a run allocate per run, not per record.
//
// This binary links prof_alloc_hook, so the profiler's kAllocations counts
// every global operator new while it is armed. Each gate records paced
// FIFO replays of N, 2N and 4N jobs through the four sinks (event log,
// time series, Perfetto trace, metrics) as the tools wire them, writes the
// four files and reads the event log and the time series back, counting
// the allocations of each phase. The counts are exact, so a gate has no
// timing and no host dependence; a bound is tightened, never loosened, as
// the paths it covers get cheaper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/timeline.h"
#include "core/simmr.h"
#include "obs/event_log.h"
#include "obs/metrics_observer.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "prof/profiler.h"
#include "sched/fifo.h"
#include "trace/synthetic_tracegen.h"
#include "trace/workload.h"

namespace simmr::prof {
namespace {

constexpr int kMapSlots = 32;
constexpr int kReduceSlots = 16;

/// Allocations per unit of work in each phase of one recorded run.
struct RecordingAllocations {
  double per_callback = 0.0;       // recording, beyond the bare replay
  double per_written_record = 0.0;  // the four WriteFile calls
  double per_log_line_read = 0.0;   // ReadEventLogFile
  double per_series_line_read = 0.0;  // LoadTimeline (reported only)
  std::uint64_t bare = 0;  // the bare replay's own allocations
};

std::uint64_t Allocations() { return Value(Counter::kAllocations); }

RecordingAllocations MeasureRecording(int jobs) {
  Rng rng(5);
  std::vector<trace::JobProfile> pool;
  for (int i = 0; i < 6; ++i) {
    trace::SyntheticJobSpec spec;
    spec.app_name = "app" + std::to_string(i);
    spec.num_maps = 10 + 12 * i;
    spec.num_reduces = 2 + i;
    spec.first_wave_size = 2;
    spec.map_duration = std::make_shared<UniformDist>(5.0, 60.0);
    spec.first_shuffle_duration = std::make_shared<UniformDist>(1.0, 10.0);
    spec.typical_shuffle_duration = std::make_shared<UniformDist>(2.0, 20.0);
    spec.reduce_duration = std::make_shared<UniformDist>(5.0, 40.0);
    pool.push_back(trace::SynthesizeProfile(spec, rng));
  }
  core::SimConfig config;
  config.map_slots = kMapSlots;
  config.reduce_slots = kReduceSlots;
  config.record_tasks = true;
  trace::WorkloadParams params;
  params.num_jobs = jobs;
  params.mean_interarrival_s = 300.0;
  const trace::WorkloadTrace workload =
      trace::MakeWorkload(pool, std::vector<double>(pool.size(), 0.0), params,
                          rng);

  RecordingAllocations out;
  Reset();
  {
    sched::FifoPolicy fifo;
    Arm();
    core::Replay(workload, fifo, config);
    Disarm();
    out.bare = Allocations();
  }

  // The sinks and fan-out order of the tools' observability flags.
  obs::MetricsRegistry registry;
  obs::MetricsObserver metrics(registry);
  obs::TimeSeriesSampler::Options ts_options;
  ts_options.window_s = 60.0;
  ts_options.registry = &registry;
  ts_options.map_slots = kMapSlots;
  ts_options.reduce_slots = kReduceSlots;
  obs::TimeSeriesSampler timeseries(ts_options);
  obs::TraceExporter::Options trace_options;
  trace_options.queue_depth_window_s = 60.0;
  obs::TraceExporter perfetto(trace_options);
  obs::EventLogObserver eventlog;
  obs::MulticastObserver multicast;
  multicast.Add(&timeseries);
  multicast.Add(&metrics);
  multicast.Add(&perfetto);
  multicast.Add(&eventlog);
  config.observer = &multicast;
  {
    sched::FifoPolicy fifo;
    Reset();
    Arm();
    core::Replay(workload, fifo, config);
    timeseries.Finish();
    Disarm();
  }
  const std::uint64_t recorded = Allocations();
  const double callbacks = static_cast<double>(eventlog.event_count());
  out.per_callback =
      static_cast<double>(recorded - std::min(recorded, out.bare)) / callbacks;

  const std::string dir = testing::TempDir();
  const std::string stem = dir + "alloc_gate_" + std::to_string(jobs);
  const std::string log_path = stem + ".jsonl";
  const std::string series_path = stem + ".timeseries.jsonl";
  const std::string trace_path = stem + ".trace.json";
  const std::string metrics_path = stem + ".metrics.json";
  Reset();
  Arm();
  eventlog.WriteFile(log_path, {"alloc_gate_test", "fifo", "simmr"});
  timeseries.WriteFile(series_path, {"alloc_gate_test", "fifo", "simmr"});
  perfetto.WriteFile(trace_path);
  registry.WriteFile(metrics_path, /*as_json=*/true);
  Disarm();
  // Records: event-log and time-series lines, trace events, instruments.
  const double records =
      callbacks + 1.0 + static_cast<double>(timeseries.window_count()) + 1.0 +
      static_cast<double>(perfetto.event_count()) +
      static_cast<double>(registry.size());
  out.per_written_record = static_cast<double>(Allocations()) / records;

  Reset();
  Arm();
  const obs::EventLog parsed = obs::ReadEventLogFile(log_path);
  Disarm();
  out.per_log_line_read =
      static_cast<double>(Allocations()) / (callbacks + 1.0);
  EXPECT_EQ(parsed.events.size(), eventlog.event_count());

  Reset();
  Arm();
  const analysis::Timeline timeline = analysis::LoadTimeline(series_path);
  Disarm();
  out.per_series_line_read =
      static_cast<double>(Allocations()) /
      (static_cast<double>(timeline.windows.size()) + 1.0);
  EXPECT_EQ(timeline.windows.size(), timeseries.window_count());
  Reset();

  for (const std::string& path :
       {log_path, series_path, trace_path, metrics_path})
    std::remove(path.c_str());
  return out;
}

TEST(AllocationGate, RecordingWritingAndReadingAllocatePerRun) {
  if (!SIMMR_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  const RecordingAllocations n = MeasureRecording(25);
  if (n.bare == 0)
    GTEST_SKIP() << "allocation hook inactive (sanitizer build)";
  const RecordingAllocations twice = MeasureRecording(50);
  const RecordingAllocations four_times = MeasureRecording(100);
  const RecordingAllocations* runs[] = {&n, &twice, &four_times};
  for (const RecordingAllocations* r : runs) {
    std::printf(
        "allocations: %.4f per recorded callback, %.5f per written record, "
        "%.4f per event-log line read, %.3f per time-series line read\n",
        r->per_callback, r->per_written_record, r->per_log_line_read,
        r->per_series_line_read);
    EXPECT_LE(r->per_callback, 0.1);
    EXPECT_LE(r->per_written_record, 0.01);
    EXPECT_LE(r->per_log_line_read, 0.1);
  }
  for (const RecordingAllocations* r : {&twice, &four_times}) {
    EXPECT_LE(r->per_callback, 1.25 * n.per_callback);
    EXPECT_LE(r->per_written_record, 1.25 * n.per_written_record);
    EXPECT_LE(r->per_log_line_read, 1.25 * n.per_log_line_read);
  }
}

}  // namespace
}  // namespace simmr::prof
