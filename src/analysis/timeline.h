// `simmr_analyze timeline`: consume a simmr.timeseries.v1 document (one
// header line plus one JSON object per closed sampling window, written by
// --timeseries-out) and render the run's time-resolved shape — per-window
// utilization, queue depth and running-task tables — plus a straggler
// summary: the windows whose task-duration p99 diverges from the median,
// the signature of a few tasks running far longer than their peers.
//
// The loader reads each window line directly (obs/json_line.h). Every
// field is optional — percentiles appear only in windows that completed
// tasks, utilization only when the writer knew the slot configuration —
// but a field that is present must be one the writer emits, once, with
// the right type: counts and the window index are integers in [0, 2^53].
// The "metrics" registry snapshot is checked for syntax and skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace simmr::analysis {

/// One closed sampling window of a simmr.timeseries.v1 document.
struct TimelineWindow {
  std::int64_t index = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  bool partial = false;
  std::uint64_t events = 0;
  double queue_depth = 0.0;
  double queue_depth_max = 0.0;
  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_active = 0;
  double running_maps = 0.0;
  double running_maps_max = 0.0;
  double running_reduces = 0.0;
  double running_reduces_max = 0.0;
  std::uint64_t maps_completed = 0;
  std::uint64_t reduces_completed = 0;
  std::uint64_t task_failures = 0;
  /// Present only when the writer knew the slot configuration.
  bool has_utilization = false;
  double map_utilization = 0.0;
  double reduce_utilization = 0.0;
  /// Present only in windows where tasks of the kind completed.
  bool has_map_durations = false;
  double map_p50 = 0.0, map_p95 = 0.0, map_p99 = 0.0;
  bool has_reduce_durations = false;
  double reduce_p50 = 0.0, reduce_p95 = 0.0, reduce_p99 = 0.0;
};

/// A parsed simmr.timeseries.v1 document: the header line's provenance
/// plus every window line in file order.
struct Timeline {
  std::string tool;
  std::string scenario;
  std::string simulator;
  double window_s = 0.0;
  std::vector<TimelineWindow> windows;
};

/// A window whose task-duration tail diverged from its median: p99 >=
/// factor * p50 with at least `min_completions` completions backing the
/// percentiles.
struct StragglerWindow {
  std::int64_t window = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  /// "map" or "reduce".
  std::string kind;
  std::uint64_t completed = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// p99 / p50 (p50 floored at a tiny epsilon so the ratio is finite).
  double ratio = 0.0;
};

struct TimelineOptions {
  /// Emit the machine-readable simmr.timeline.v1 document instead of the
  /// fixed-width tables.
  bool json = false;
  /// A window is a straggler window when p99 >= factor * p50.
  double straggler_factor = 3.0;
  /// Percentiles from fewer completions than this are too noisy to call
  /// stragglers.
  std::uint64_t min_completions = 5;
};

/// Parses a simmr.timeseries.v1 file. Throws std::runtime_error on a
/// missing file, a bad schema tag, or a malformed line, naming
/// "<path>:<line>:<offset>".
Timeline LoadTimeline(const std::string& path);

/// The straggler windows of a timeline under the options' thresholds, in
/// window order (map windows before reduce windows at the same index).
std::vector<StragglerWindow> FindStragglerWindows(
    const Timeline& timeline, const TimelineOptions& opt);

/// Renders the per-window tables and straggler summary (text), or one
/// simmr.timeline.v1 JSON document.
std::string RenderTimeline(const Timeline& timeline,
                           const TimelineOptions& opt);

}  // namespace simmr::analysis
