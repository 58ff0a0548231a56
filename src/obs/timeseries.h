// Sim-time time-series sampler: the live-observability substrate.
//
// TimeSeriesSampler is a SimObserver that folds the callback stream into
// fixed sim-time windows ([k*w, (k+1)*w)) and emits one JSONL line per
// window: event throughput, queue depth, running map/reduce counts,
// integrated slot-seconds (utilization when the slot counts are known),
// job arrivals/completions, and windowed task-duration percentiles from
// the Histogram windowed-quantile mode. An optional MetricsRegistry
// snapshot embeds every counter/gauge value per window.
//
// Determinism: windows close only when a simulation callback carries a
// `now` at or past the boundary — no wall clock, no timers — so enabling
// sampling cannot perturb a run, and two identical runs produce identical
// time series. The output format is simmr.timeseries.v1 (docs/FORMATS.md),
// consumed by `simmr_analyze timeline`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/observer.h"

namespace simmr::obs {

class JsonWriter;

/// Sim-time window arithmetic, shared by TimeSeriesSampler and
/// TraceExporter's windowed queue-depth counter so both emit samples at
/// identical boundaries. Windows are [k*w, (k+1)*w); an event at exactly
/// (k+1)*w belongs to window k+1 and closes window k.
class WindowClock {
 public:
  explicit WindowClock(double window_s) : window_s_(window_s) {}

  double window_s() const { return window_s_; }
  std::int64_t index() const { return index_; }
  double WindowStart() const {
    return static_cast<double>(index_) * window_s_;
  }
  double WindowEnd() const {
    return static_cast<double>(index_ + 1) * window_s_;
  }
  /// True when `now` lies at or past the current window's end, i.e. the
  /// window must close. Call AdvanceOne() once per closed window.
  bool CrossesBoundary(SimTime now) const { return now >= WindowEnd(); }
  void AdvanceOne() { ++index_; }

 private:
  double window_s_;
  std::int64_t index_ = 0;
};

/// Fixed-bound task-duration histogram for the sampler hot path: the
/// same bucket layout as the MetricsObserver task-duration histogram
/// (so windowed percentiles line up with the run-aggregate exposition)
/// and the same interpolation semantics as Histogram::WindowQuantile,
/// but with compile-time bounds — the Observe compare loop unrolls and
/// vectorizes instead of walking a heap vector.
class DurationHistogram {
 public:
  static constexpr std::size_t kBuckets = 12;
  static constexpr double kBounds[kBuckets] = {0.5, 1,   2,   5,    10,  30,
                                               60,  120, 300, 600, 1800, 3600};

  void Observe(double value) {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < kBuckets; ++i)
      idx += static_cast<std::size_t>(kBounds[i] < value);
    if (idx == kBuckets) {
      ++overflow_;
    } else {
      ++counts_[idx];
    }
    ++total_;
  }

  /// Starts a new window: WindowCount()/WindowQuantile() then cover only
  /// observations made after this point.
  void Checkpoint() {
    for (std::size_t i = 0; i < kBuckets; ++i) mark_counts_[i] = counts_[i];
    mark_total_ = total_;
  }

  std::uint64_t WindowCount() const { return total_ - mark_total_; }

  /// Histogram::WindowQuantile semantics: linear interpolation within
  /// the containing bucket, overflow clamps to the last finite bound, an
  /// empty window reports 0.
  double WindowQuantile(double q) const {
    q = std::min(1.0, std::max(0.0, q));
    const std::uint64_t total = WindowCount();
    if (total == 0) return 0.0;
    const double rank = q * static_cast<double>(total);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t in_bucket = counts_[i] - mark_counts_[i];
      if (in_bucket == 0) continue;
      const double next = cumulative + static_cast<double>(in_bucket);
      if (next >= rank) {
        const double lower = i == 0 ? std::min(0.0, kBounds[0]) : kBounds[i - 1];
        const double upper = kBounds[i];
        const double frac =
            (rank - cumulative) / static_cast<double>(in_bucket);
        return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
      }
      cumulative = next;
    }
    return kBounds[kBuckets - 1];
  }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t mark_counts_[kBuckets] = {};
  std::uint64_t mark_total_ = 0;
};

/// Provenance stamped into the simmr.timeseries.v1 header line.
struct TimeSeriesHeader {
  std::string tool;
  std::string scenario;
  std::string simulator;
};

class TimeSeriesSampler final : public SimObserver {
 public:
  struct Options {
    /// Sampling window, simulated seconds. Must be positive.
    double window_s = 60.0;
    /// Configured slot counts; when positive, per-window utilization
    /// (busy slot-seconds / slots / window span) is emitted.
    int map_slots = 0;
    int reduce_slots = 0;
    /// When set, each window line embeds a "metrics" object with every
    /// counter/gauge value of this registry at window close. Borrowed;
    /// must outlive the sampler's run and its ToJsonl()/WriteFile() calls
    /// (the keys are rendered from it when the series is written).
    const MetricsRegistry* registry = nullptr;
  };

  TimeSeriesSampler();
  /// Throws std::invalid_argument when options.window_s is not positive.
  explicit TimeSeriesSampler(Options options);

  /// Configures slot counts after construction (tools learn them from
  /// their own flags after the sinks are built). Affects windows closed
  /// from now on.
  void set_slots(int map_slots, int reduce_slots) {
    options_.map_slots = map_slots;
    options_.reduce_slots = reduce_slots;
  }

  /// Closed windows so far (after Finish(): including the final partial).
  std::size_t window_count() const { return records_.size(); }
  std::uint64_t events_seen() const { return events_total_; }
  double window_s() const { return options_.window_s; }

  /// Closes the trailing partial window at the last observed sim time.
  /// Idempotent; called automatically by WriteFile().
  void Finish();

  /// Serializes the header line plus one line per closed window.
  std::string ToJsonl(const TimeSeriesHeader& header) const;

  /// Finish(), then streams ToJsonl() to `path` through one fixed-size
  /// buffer. Throws std::runtime_error on I/O failure.
  void WriteFile(const std::string& path, const TimeSeriesHeader& header);

  // The hooks are defined inline so the devirtualized engine path
  // (EngineImpl<TimeSeriesSampler>, see src/core/engine.cpp) compiles
  // them straight into the hook sites: the common case is a cached
  // boundary compare plus a couple of increments, which keeps default-window
  // sampling cheap (most of what remains is plumbing any attached observer
  // pays).
  void OnEventDequeue(SimTime now, const char* /*event_type*/,
                      std::size_t queue_depth) override {
    AdvanceTo(now);
    ++events_in_window_;
    ++events_total_;
    queue_depth_last_ = queue_depth;
    queue_depth_max_ = std::max(queue_depth_max_, queue_depth);
  }
  void OnJobArrival(SimTime now, std::int32_t /*job*/,
                    std::string_view /*name*/, double /*deadline*/) override {
    AdvanceTo(now);
    ++jobs_arrived_w_;
    ++jobs_arrived_total_;
  }
  void OnJobCompletion(SimTime now, std::int32_t /*job*/) override {
    AdvanceTo(now);
    ++jobs_completed_w_;
    ++jobs_completed_total_;
  }
  void OnTaskLaunch(SimTime now, std::int32_t /*job*/, TaskKind kind,
                    std::int32_t /*index*/) override {
    AdvanceTo(now);  // first: may close windows and move window_start_
    const std::size_t k = KindIndex(kind);
    busy_ledger_[k] -= now - window_start_;
    ++running_[k];
    running_max_[k] = std::max(running_max_[k], running_[k]);
  }
  // Phase transitions and scheduler decisions carry nothing the sampler
  // aggregates, and in the engine every dispatch is preceded by an
  // OnEventDequeue at the same `now` — so these skip even the window
  // advance. Deliberate no-ops, not omissions.
  void OnTaskPhaseTransition(SimTime /*now*/, std::int32_t /*job*/,
                             TaskKind /*kind*/, std::int32_t /*index*/,
                             const char* /*phase*/) override {}
  void OnTaskCompletion(SimTime now, std::int32_t job, TaskKind kind,
                        std::int32_t index, const TaskTiming& timing,
                        bool succeeded) override;
  void OnSchedulerDecision(SimTime /*now*/, TaskKind /*kind*/,
                           std::int32_t /*chosen_job*/) override {}

 private:
  static constexpr std::size_t KindIndex(TaskKind kind) {
    return kind == TaskKind::kMap ? 0 : 1;
  }

  /// Hot path of every hook: note the time, close windows only when the
  /// cached boundary is actually crossed.
  void AdvanceTo(SimTime now) {
    observed_ = true;
    if (now >= window_end_) CloseWindowsThrough(now);  // no-op once finished
    // Unconditional store: the observer contract guarantees `now` is
    // nondecreasing, so no comparison is needed.
    last_now_ = now;
  }
  /// Cold path: closes every window whose end lies at or before `now`
  /// and refreshes the cached boundaries.
  void CloseWindowsThrough(SimTime now);
  void CloseWindow(double t1, bool partial);

  /// One closed window, captured as plain data at close time. JSON
  /// serialization happens when the series is written — after the run in
  /// every tool — so window closes cost a struct push, not a string build.
  struct WindowRecord {
    std::int64_t index = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    bool partial = false;
    std::uint64_t events = 0;
    std::size_t queue_depth = 0;
    std::size_t queue_depth_max = 0;
    std::uint64_t jobs_arrived = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_active = 0;
    std::size_t running[2] = {0, 0};
    std::size_t running_max[2] = {0, 0};
    std::uint64_t completed[2] = {0, 0};
    std::uint64_t failures = 0;
    double busy_seconds[2] = {0.0, 0.0};
    /// Slot config at close time (set_slots applies to later windows).
    int slots[2] = {0, 0};
    /// p50/p95/p99 per kind; meaningful only when completed[k] > 0.
    double quantiles[2][3] = {{0, 0, 0}, {0, 0, 0}};
    /// Registry scalar values at close, metrics_count of them from
    /// metric_values_[metrics_begin]; taken only when a registry is
    /// attached (has_metrics distinguishes "no registry" from "empty").
    bool has_metrics = false;
    std::uint32_t metrics_count = 0;
    std::size_t metrics_begin = 0;
  };
  /// The registry's keys, each rendered as `"key":`, back to back: key i
  /// spans [ends[i-1], ends[i]) of text.
  struct MetricKeys {
    std::string text;
    std::vector<std::size_t> ends;
  };
  void Write(JsonWriter& out, const TimeSeriesHeader& header) const;
  void WriteWindow(JsonWriter& out, const WindowRecord& r,
                   const MetricKeys& keys) const;

  Options options_;
  WindowClock clock_;
  /// Cached clock_.WindowEnd()/WindowStart(), so the per-callback
  /// boundary test is one compare instead of an index multiply.
  double window_end_ = 0.0;
  double window_start_ = 0.0;
  double last_now_ = 0.0;
  bool finished_ = false;
  /// Any callback seen at all — an untouched sampler writes header only.
  bool observed_ = false;

  // Per-window accumulators, reset at every window close.
  std::uint64_t events_in_window_ = 0;
  std::size_t queue_depth_last_ = 0;
  std::size_t queue_depth_max_ = 0;
  std::size_t running_[2] = {0, 0};  // [map, reduce] in flight
  std::size_t running_max_[2] = {0, 0};
  /// Busy slot-seconds, interval-ledger form: each task contributes
  /// (end - t0) - (start - t0) clipped to the window, so a launch
  /// subtracts (now - window_start_), a completion adds it back, and the
  /// window total is busy_ledger_ + running × (t1 - t0) at close — one
  /// FP add per running-count change instead of a dt integration chain.
  double busy_ledger_[2] = {0.0, 0.0};
  std::uint64_t jobs_arrived_w_ = 0;
  std::uint64_t jobs_completed_w_ = 0;
  std::uint64_t failures_w_ = 0;

  // Run cumulatives.
  std::uint64_t events_total_ = 0;
  std::uint64_t jobs_arrived_total_ = 0;
  std::uint64_t jobs_completed_total_ = 0;

  // Windowed task-duration percentiles; Checkpoint()ed at window close.
  DurationHistogram durations_[2];

  std::vector<WindowRecord> records_;  // closed windows, serialized lazily
  /// Every window's registry values, back to back.
  std::vector<double> metric_values_;
};

}  // namespace simmr::obs
