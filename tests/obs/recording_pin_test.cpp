// Byte-identity pins for the four run-record sinks.
//
// Each test records one run through the event log, the time series, the
// Perfetto trace and the metrics registry, wired and fanned out in the
// order the tools' observability flags use, and compares an FNV-1a digest
// of each serialized document with a constant. The constants pin the
// writers' exact bytes, so a faster writer, a different buffer or a
// reworked hook must leave every one of them unchanged. Host wall-clock
// metrics (MetricsObserver::SetWallStats) are left out, so every document
// is a pure function of the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "backend/session.h"
#include "cluster/cluster_sim.h"
#include "core/simmr.h"
#include "fault/fault_gen.h"
#include "obs/event_log.h"
#include "obs/metrics_observer.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "simcore/rng.h"
#include "trace/synthetic_tracegen.h"
#include "trace/workload.h"

namespace simmr::obs {
namespace {

constexpr double kWindowS = 60.0;

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string Digest(const std::string& bytes) { return Hex(HashName(bytes)); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The four sinks, fanned out as the tools and the record_paced benchmark
/// wire them: time series first (its window closes snapshot the registry
/// before the metrics observer counts the same callback), then metrics,
/// the Perfetto trace and the event log.
struct Sinks {
  Sinks(int map_slots, int reduce_slots)
      : metrics(registry),
        timeseries(TimeSeriesOptions(map_slots, reduce_slots, registry)),
        perfetto(TraceOptions()) {
    multicast.Add(&timeseries);
    multicast.Add(&metrics);
    multicast.Add(&perfetto);
    multicast.Add(&eventlog);
  }

  static TimeSeriesSampler::Options TimeSeriesOptions(
      int map_slots, int reduce_slots, const MetricsRegistry& registry) {
    TimeSeriesSampler::Options options;
    options.window_s = kWindowS;
    options.registry = &registry;
    options.map_slots = map_slots;
    options.reduce_slots = reduce_slots;
    return options;
  }

  static TraceExporter::Options TraceOptions() {
    TraceExporter::Options options;
    options.queue_depth_window_s = kWindowS;
    return options;
  }

  struct Documents {
    std::string eventlog, timeseries, perfetto, metrics_json, metrics_text;
  };

  Documents Serialize() {
    timeseries.Finish();
    return {eventlog.ToJsonl(header),
            timeseries.ToJsonl({header.tool, header.scenario,
                                header.simulator}),
            perfetto.ToJson(), registry.Json(), registry.PrometheusText()};
  }

  /// WriteFile streams the same bytes ToJsonl/ToJson return (the trace
  /// and the metrics snapshot with a trailing newline).
  void ExpectFilesMatch(const Documents& docs, const std::string& stem) {
    const std::string dir = testing::TempDir();
    const std::string paths[] = {dir + stem + ".jsonl", dir + stem + ".ts",
                                 dir + stem + ".trace", dir + stem + ".json",
                                 dir + stem + ".prom"};
    eventlog.WriteFile(paths[0], header);
    EXPECT_TRUE(ReadFile(paths[0]) == docs.eventlog) << paths[0];
    timeseries.WriteFile(paths[1],
                         {header.tool, header.scenario, header.simulator});
    EXPECT_TRUE(ReadFile(paths[1]) == docs.timeseries) << paths[1];
    perfetto.WriteFile(paths[2]);
    EXPECT_TRUE(ReadFile(paths[2]) == docs.perfetto + "\n") << paths[2];
    registry.WriteFile(paths[3], /*as_json=*/true);
    EXPECT_TRUE(ReadFile(paths[3]) == docs.metrics_json + "\n") << paths[3];
    registry.WriteFile(paths[4], /*as_json=*/false);
    EXPECT_TRUE(ReadFile(paths[4]) == docs.metrics_text) << paths[4];
    for (const std::string& path : paths) std::remove(path.c_str());
  }

  EventLogHeader header;
  MetricsRegistry registry;
  MetricsObserver metrics;
  TimeSeriesSampler timeseries;
  TraceExporter perfetto;
  EventLogObserver eventlog;
  MulticastObserver multicast;
};

TEST(RecordingPin, MinEdfReplayWithDeadlines) {
  constexpr int kMapSlots = 16;
  constexpr int kReduceSlots = 8;
  Rng rng(11);
  std::vector<trace::JobProfile> pool;
  for (int i = 0; i < 5; ++i) {
    trace::SyntheticJobSpec spec;
    spec.app_name = "app \"" + std::to_string(i) + "\"";
    spec.num_maps = 6 + 7 * i;
    spec.num_reduces = 1 + i;
    spec.first_wave_size = 2;
    spec.map_duration = std::make_shared<UniformDist>(3.0, 40.0);
    spec.first_shuffle_duration = std::make_shared<UniformDist>(1.0, 9.0);
    spec.typical_shuffle_duration = std::make_shared<UniformDist>(2.0, 15.0);
    spec.reduce_duration = std::make_shared<UniformDist>(2.0, 30.0);
    pool.push_back(trace::SynthesizeProfile(spec, rng));
  }
  core::SimConfig config;
  config.map_slots = kMapSlots;
  config.reduce_slots = kReduceSlots;
  const std::vector<double> solos = core::MeasureSoloCompletions(pool, config);
  trace::WorkloadParams params;
  params.num_jobs = 40;
  params.mean_interarrival_s = 45.0;
  params.deadline_factor = 1.5;
  const trace::WorkloadTrace workload =
      trace::MakeWorkload(pool, solos, params, rng);

  Sinks sinks(kMapSlots, kReduceSlots);
  config.observer = &sinks.multicast;
  config.record_tasks = true;
  const std::unique_ptr<core::SchedulerPolicy> policy =
      backend::MakePolicy("minedf", kMapSlots, kReduceSlots);
  const core::SimResult result = core::Replay(workload, *policy, config);
  ASSERT_EQ(result.jobs.size(), workload.size());

  sinks.header = {"recording_pin_test", "minedf jobs=40", "simmr"};
  const Sinks::Documents docs = sinks.Serialize();
  EXPECT_EQ(Digest(docs.eventlog), "8134ac9a94e1d3c8");
  EXPECT_EQ(Digest(docs.timeseries), "6bc12f6aec08f80f");
  EXPECT_EQ(Digest(docs.perfetto), "308a07c2a19360d5");
  EXPECT_EQ(Digest(docs.metrics_json), "12c78a9bed7d8848");
  EXPECT_EQ(Digest(docs.metrics_text), "24b8745fb2efdd17");
  sinks.ExpectFilesMatch(docs, "recording_pin_minedf");
}

TEST(RecordingPin, TestbedUnderGeneratedFaultPlan) {
  // TestbedPin.ValidationUnderGeneratedFaultPlan's run, with the other
  // three sinks beside its event log.
  const std::vector<cluster::JobSpec> specs = cluster::ValidationSuite();
  cluster::TestbedOptions opts;
  opts.config.num_nodes = 16;
  opts.config.map_slots_per_node = 1;
  opts.config.reduce_slots_per_node = 1;
  fault::FaultGenOptions gen;
  gen.num_nodes = opts.config.num_nodes;
  gen.map_slots_per_node = opts.config.map_slots_per_node;
  gen.reduce_slots_per_node = opts.config.reduce_slots_per_node;
  gen.kill_jobs = static_cast<std::int32_t>(specs.size());
  const fault::FaultPlan plan = fault::GenerateFaultPlan(7, gen);
  opts.fault_plan = &plan;
  Sinks sinks(16, 16);
  opts.observer = &sinks.multicast;
  std::vector<cluster::SubmittedJob> jobs;
  for (const cluster::JobSpec& spec : specs) jobs.push_back({spec, 0.0, 0.0});
  const cluster::TestbedResult r = cluster::RunTestbed(jobs, opts);
  EXPECT_EQ(r.events_processed, 86457u);

  sinks.header = {"testbed_pin_test", "fault-seed=7", "testbed"};
  const Sinks::Documents docs = sinks.Serialize();
  EXPECT_EQ(Digest(docs.eventlog), "7c94d040b0f4269c");
  EXPECT_EQ(Digest(docs.timeseries), "9aed0064d7c9f1d7");
  EXPECT_EQ(Digest(docs.perfetto), "6fa3b76c0172b112");
  EXPECT_EQ(Digest(docs.metrics_json), "4a110e64484f2435");
  EXPECT_EQ(Digest(docs.metrics_text), "e7bb335402a15ad4");
  sinks.ExpectFilesMatch(docs, "recording_pin_testbed");
}

}  // namespace
}  // namespace simmr::obs
