#include "obs/timeseries.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace simmr::obs {

TimeSeriesSampler::TimeSeriesSampler() : TimeSeriesSampler(Options{}) {}

TimeSeriesSampler::TimeSeriesSampler(Options options)
    : options_(options), clock_(options.window_s) {
  if (!(options_.window_s > 0.0))
    throw std::invalid_argument(
        "TimeSeriesSampler: window_s must be positive");
  window_end_ = clock_.WindowEnd();
}

void TimeSeriesSampler::CloseWindowsThrough(SimTime now) {
  while (!finished_ && clock_.CrossesBoundary(now)) {
    CloseWindow(clock_.WindowEnd(), /*partial=*/false);
    clock_.AdvanceOne();
  }
  window_end_ = clock_.WindowEnd();
  window_start_ = clock_.WindowStart();
}

void TimeSeriesSampler::CloseWindow(double t1, bool partial) {
  WindowRecord r;
  r.index = clock_.index();
  r.t0 = clock_.WindowStart();
  r.t1 = t1;
  r.partial = partial;
  r.events = events_in_window_;
  r.queue_depth = queue_depth_last_;
  r.queue_depth_max = queue_depth_max_;
  r.jobs_arrived = jobs_arrived_w_;
  r.jobs_completed = jobs_completed_w_;
  r.jobs_active = jobs_arrived_total_ - jobs_completed_total_;
  r.failures = failures_w_;
  r.slots[0] = options_.map_slots;
  r.slots[1] = options_.reduce_slots;
  const double span = t1 - clock_.WindowStart();
  for (std::size_t k = 0; k < 2; ++k) {
    r.running[k] = running_[k];
    r.running_max[k] = running_max_[k];
    r.completed[k] = durations_[k].WindowCount();
    // Settle the ledger: still-running tasks are credited through t1.
    // The max() guards against a -0.0 / -epsilon from rounding the
    // per-task +/- pairs; the exact value is always >= 0.
    r.busy_seconds[k] = std::max(
        0.0, busy_ledger_[k] + static_cast<double>(running_[k]) * span);
    if (r.completed[k] > 0) {
      // Quantiles must be read here: Checkpoint() below resets the
      // window deltas they are computed from.
      r.quantiles[k][0] = durations_[k].WindowQuantile(0.50);
      r.quantiles[k][1] = durations_[k].WindowQuantile(0.95);
      r.quantiles[k][2] = durations_[k].WindowQuantile(0.99);
    }
  }
  if (options_.registry != nullptr) {
    r.has_metrics = true;
    r.metrics_begin = metric_values_.size();
    r.metrics_count = static_cast<std::uint32_t>(
        options_.registry->AppendScalarValues(metric_values_));
  }
  records_.push_back(std::move(r));

  events_in_window_ = 0;
  queue_depth_max_ = queue_depth_last_;
  running_max_[0] = running_[0];
  running_max_[1] = running_[1];
  busy_ledger_[0] = busy_ledger_[1] = 0.0;
  jobs_arrived_w_ = jobs_completed_w_ = 0;
  failures_w_ = 0;
  durations_[0].Checkpoint();
  durations_[1].Checkpoint();
}

void TimeSeriesSampler::WriteWindow(JsonWriter& out, const WindowRecord& r,
                                    const MetricKeys& keys) const {
  const double span = r.t1 - r.t0;
  out.Raw("{\"window\":");
  out.Int(r.index);
  out.Raw(",\"t0\":");
  out.Number(r.t0);
  out.Raw(",\"t1\":");
  out.Number(r.t1);
  if (r.partial) out.Raw(",\"partial\":true");
  out.Raw(",\"events\":");
  out.UInt(r.events);
  out.Raw(",\"events_per_sim_s\":");
  out.Number(span > 0.0 ? static_cast<double>(r.events) / span : 0.0);
  const std::pair<std::string_view, std::uint64_t> counts[] = {
      {",\"queue_depth\":", r.queue_depth},
      {",\"queue_depth_max\":", r.queue_depth_max},
      {",\"jobs_arrived\":", r.jobs_arrived},
      {",\"jobs_completed\":", r.jobs_completed},
      {",\"jobs_active\":", r.jobs_active},
      {",\"running_maps\":", r.running[0]},
      {",\"running_maps_max\":", r.running_max[0]},
      {",\"running_reduces\":", r.running[1]},
      {",\"running_reduces_max\":", r.running_max[1]},
      {",\"maps_completed\":", r.completed[0]},
      {",\"reduces_completed\":", r.completed[1]},
      {",\"task_failures\":", r.failures},
  };
  for (const auto& [key, value] : counts) {
    out.Raw(key);
    out.UInt(value);
  }
  out.Raw(",\"map_slot_seconds\":");
  out.Number(r.busy_seconds[0]);
  out.Raw(",\"reduce_slot_seconds\":");
  out.Number(r.busy_seconds[1]);
  if (r.slots[0] > 0 && span > 0.0) {
    out.Raw(",\"map_utilization\":");
    out.Number(r.busy_seconds[0] / (static_cast<double>(r.slots[0]) * span));
  }
  if (r.slots[1] > 0 && span > 0.0) {
    out.Raw(",\"reduce_utilization\":");
    out.Number(r.busy_seconds[1] / (static_cast<double>(r.slots[1]) * span));
  }
  for (std::size_t k = 0; k < 2; ++k) {
    if (r.completed[k] == 0) continue;
    const std::string_view prefix = k == 0 ? ",\"map" : ",\"reduce";
    out.Raw(prefix);
    out.Raw("_duration_p50\":");
    out.Number(r.quantiles[k][0]);
    out.Raw(prefix);
    out.Raw("_duration_p95\":");
    out.Number(r.quantiles[k][1]);
    out.Raw(prefix);
    out.Raw("_duration_p99\":");
    out.Number(r.quantiles[k][2]);
  }
  if (r.has_metrics) {
    out.Raw(",\"metrics\":{");
    for (std::size_t i = 0; i < r.metrics_count; ++i) {
      if (i > 0) out.Char(',');
      const std::size_t begin = i == 0 ? 0 : keys.ends[i - 1];
      out.Raw(std::string_view(keys.text).substr(begin, keys.ends[i] - begin));
      out.Number(metric_values_[r.metrics_begin + i]);
    }
    out.Char('}');
  }
  out.Raw("}\n");
}

void TimeSeriesSampler::OnTaskCompletion(SimTime now, std::int32_t,
                                         TaskKind kind, std::int32_t,
                                         const TaskTiming& timing,
                                         bool succeeded) {
  AdvanceTo(now);
  const std::size_t k = KindIndex(kind);
  if (running_[k] > 0) {  // guard: observer installed mid-run
    busy_ledger_[k] += now - window_start_;
    --running_[k];
  }
  if (succeeded) {
    durations_[k].Observe(std::max(0.0, timing.end - timing.start));
  } else {
    ++failures_w_;
  }
}

void TimeSeriesSampler::Finish() {
  if (finished_) return;
  finished_ = true;
  if (!observed_) return;
  // The final (usually partial) window, closed at the last observed time;
  // CloseWindow settles the ledger for tasks still running at t1.
  CloseWindow(last_now_, /*partial=*/last_now_ < clock_.WindowEnd());
}

void TimeSeriesSampler::Write(JsonWriter& out,
                              const TimeSeriesHeader& header) const {
  out.Raw("{\"schema\":\"simmr.timeseries.v1\",\"tool\":");
  out.String(header.tool);
  out.Raw(",\"scenario\":");
  out.String(header.scenario);
  out.Raw(",\"simulator\":");
  out.String(header.simulator);
  out.Raw(",\"window_s\":");
  out.Number(options_.window_s);
  out.Raw("}\n");
  // The registry only grows, so its current keys name every value a
  // window stored: render each "key": once, back to back.
  MetricKeys keys;
  if (options_.registry != nullptr) {
    const std::vector<std::string> names = options_.registry->ScalarKeys();
    {
      JsonWriter text(keys.text);
      for (const std::string& name : names) {
        text.String(name);
        text.Char(':');
        text.Flush();
        keys.ends.push_back(keys.text.size());
      }
    }
  }
  for (const WindowRecord& r : records_) WriteWindow(out, r, keys);
}

std::string TimeSeriesSampler::ToJsonl(const TimeSeriesHeader& header) const {
  std::string text;
  {
    JsonWriter out(text);
    Write(out, header);
  }
  return text;
}

void TimeSeriesSampler::WriteFile(const std::string& path,
                                  const TimeSeriesHeader& header) {
  Finish();
  WriteJsonFile(path, "TimeSeriesSampler",
                [&](JsonWriter& out) { Write(out, header); });
}

}  // namespace simmr::obs
