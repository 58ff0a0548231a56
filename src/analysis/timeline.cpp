#include "analysis/timeline.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/json.h"
#include "obs/json_line.h"

namespace simmr::analysis {
namespace {

using obs::JsonEscape;
using obs::JsonNumber;

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Counts and window indices: non-negative integers that a double holds
/// exactly.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 53;

/// Where a window member goes.
enum class Field : std::uint8_t {
  kWindow,
  kT0,
  kT1,
  kPartial,
  kEvents,
  kQueueDepth,
  kQueueDepthMax,
  kJobsArrived,
  kJobsCompleted,
  kJobsActive,
  kRunningMaps,
  kRunningMapsMax,
  kRunningReduces,
  kRunningReducesMax,
  kMapsCompleted,
  kReducesCompleted,
  kTaskFailures,
  kMapUtilization,
  kReduceUtilization,
  kMapP50,
  kMapP95,
  kMapP99,
  kReduceP50,
  kReduceP95,
  kReduceP99,
  kNumber,   // a number the report does not use
  kMetrics,  // the registry snapshot object, checked and skipped
};

struct WindowKey {
  std::string_view name;
  Field field;
};

/// A window line's keys, in the order TimeSeriesSampler writes them; every
/// one is optional.
constexpr WindowKey kWindowKeys[] = {
    {"window", Field::kWindow},
    {"t0", Field::kT0},
    {"t1", Field::kT1},
    {"partial", Field::kPartial},
    {"events", Field::kEvents},
    {"events_per_sim_s", Field::kNumber},
    {"queue_depth", Field::kQueueDepth},
    {"queue_depth_max", Field::kQueueDepthMax},
    {"jobs_arrived", Field::kJobsArrived},
    {"jobs_completed", Field::kJobsCompleted},
    {"jobs_active", Field::kJobsActive},
    {"running_maps", Field::kRunningMaps},
    {"running_maps_max", Field::kRunningMapsMax},
    {"running_reduces", Field::kRunningReduces},
    {"running_reduces_max", Field::kRunningReducesMax},
    {"maps_completed", Field::kMapsCompleted},
    {"reduces_completed", Field::kReducesCompleted},
    {"task_failures", Field::kTaskFailures},
    {"map_slot_seconds", Field::kNumber},
    {"reduce_slot_seconds", Field::kNumber},
    {"map_utilization", Field::kMapUtilization},
    {"reduce_utilization", Field::kReduceUtilization},
    {"map_duration_p50", Field::kMapP50},
    {"map_duration_p95", Field::kMapP95},
    {"map_duration_p99", Field::kMapP99},
    {"reduce_duration_p50", Field::kReduceP50},
    {"reduce_duration_p95", Field::kReduceP95},
    {"reduce_duration_p99", Field::kReduceP99},
    {"metrics", Field::kMetrics},
};
constexpr std::size_t kNumWindowKeys = std::size(kWindowKeys);

constexpr std::string_view kHeaderKeys[] = {"schema", "tool", "scenario",
                                            "simulator", "window_s"};

std::uint64_t Count(const obs::JsonMember& m) {
  return obs::JsonMemberUnsigned(m, kMaxCount);
}

TimelineWindow ParseWindow(std::string_view line) {
  obs::JsonMember members[kNumWindowKeys];
  const std::size_t n =
      obs::SplitJsonLine(line, members, kNumWindowKeys,
                         /*nested_objects=*/true);
  TimelineWindow w;
  std::uint32_t seen = 0;
  static_assert(kNumWindowKeys <= 32);
  for (std::size_t i = 0; i < n; ++i) {
    const obs::JsonMember& m = members[i];
    std::size_t k = 0;
    while (k < kNumWindowKeys && kWindowKeys[k].name != m.key) ++k;
    if (k == kNumWindowKeys) obs::ThrowUnknownKey(m, "a window");
    if ((seen >> k & 1) != 0) obs::ThrowDuplicateKey(m);
    seen |= std::uint32_t{1} << k;
    switch (kWindowKeys[k].field) {
      case Field::kWindow:
        w.index = static_cast<std::int64_t>(Count(m));
        break;
      case Field::kT0: w.t0 = obs::JsonMemberDouble(m); break;
      case Field::kT1: w.t1 = obs::JsonMemberDouble(m); break;
      case Field::kPartial: w.partial = obs::JsonMemberBool(m); break;
      case Field::kEvents: w.events = Count(m); break;
      case Field::kQueueDepth: w.queue_depth = obs::JsonMemberDouble(m); break;
      case Field::kQueueDepthMax:
        w.queue_depth_max = obs::JsonMemberDouble(m);
        break;
      case Field::kJobsArrived: w.jobs_arrived = Count(m); break;
      case Field::kJobsCompleted: w.jobs_completed = Count(m); break;
      case Field::kJobsActive: w.jobs_active = Count(m); break;
      case Field::kRunningMaps:
        w.running_maps = obs::JsonMemberDouble(m);
        break;
      case Field::kRunningMapsMax:
        w.running_maps_max = obs::JsonMemberDouble(m);
        break;
      case Field::kRunningReduces:
        w.running_reduces = obs::JsonMemberDouble(m);
        break;
      case Field::kRunningReducesMax:
        w.running_reduces_max = obs::JsonMemberDouble(m);
        break;
      case Field::kMapsCompleted: w.maps_completed = Count(m); break;
      case Field::kReducesCompleted: w.reduces_completed = Count(m); break;
      case Field::kTaskFailures: w.task_failures = Count(m); break;
      case Field::kMapUtilization:
        w.has_utilization = true;
        w.map_utilization = obs::JsonMemberDouble(m);
        break;
      case Field::kReduceUtilization:
        w.has_utilization = true;
        w.reduce_utilization = obs::JsonMemberDouble(m);
        break;
      case Field::kMapP50:
        w.has_map_durations = true;
        w.map_p50 = obs::JsonMemberDouble(m);
        break;
      case Field::kMapP95: w.map_p95 = obs::JsonMemberDouble(m); break;
      case Field::kMapP99: w.map_p99 = obs::JsonMemberDouble(m); break;
      case Field::kReduceP50:
        w.has_reduce_durations = true;
        w.reduce_p50 = obs::JsonMemberDouble(m);
        break;
      case Field::kReduceP95: w.reduce_p95 = obs::JsonMemberDouble(m); break;
      case Field::kReduceP99: w.reduce_p99 = obs::JsonMemberDouble(m); break;
      case Field::kNumber: obs::JsonMemberDouble(m); break;
      case Field::kMetrics:
        if (m.type != obs::JsonMember::Type::kObject)
          throw obs::JsonLineError(m.offset, "'metrics': expected an object");
        break;
    }
  }
  return w;
}

/// The header line's provenance; the schema is required, the rest keep
/// their empty defaults when absent.
void ParseHeader(std::string_view line, Timeline& t) {
  constexpr std::size_t kKeys = std::size(kHeaderKeys);
  obs::JsonMember members[kKeys];
  const std::size_t n = obs::SplitJsonLine(line, members, kKeys);
  bool seen[kKeys] = {};
  std::string unescaped;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::JsonMember& m = members[i];
    std::size_t k = 0;
    while (k < kKeys && kHeaderKeys[k] != m.key) ++k;
    if (k == kKeys) obs::ThrowUnknownKey(m, "the header");
    if (seen[k]) obs::ThrowDuplicateKey(m);
    seen[k] = true;
    if (k == 4) {
      t.window_s = obs::JsonMemberDouble(m);
      continue;
    }
    const std::string value(obs::JsonMemberString(m, unescaped));
    if (k == 0 && value != "simmr.timeseries.v1")
      throw obs::JsonLineError(
          m.offset,
          "expected a simmr.timeseries.v1 header, got schema '" + value + "'");
    if (k == 1) t.tool = value;
    if (k == 2) t.scenario = value;
    if (k == 3) t.simulator = value;
  }
  if (!seen[0])
    throw obs::JsonLineError(
        0, "expected a simmr.timeseries.v1 header, got schema ''");
}

/// Appends one kind's straggler check for a window.
void CheckStraggler(const TimelineWindow& w, const char* kind, bool present,
                    double p50, double p99, std::uint64_t completed,
                    const TimelineOptions& opt,
                    std::vector<StragglerWindow>& out) {
  if (!present || completed < opt.min_completions) return;
  const double floor_p50 = std::max(p50, 1e-9);
  const double ratio = p99 / floor_p50;
  if (p99 < opt.straggler_factor * floor_p50) return;
  StragglerWindow s;
  s.window = w.index;
  s.t0 = w.t0;
  s.t1 = w.t1;
  s.kind = kind;
  s.completed = completed;
  s.p50 = p50;
  s.p99 = p99;
  s.ratio = ratio;
  out.push_back(std::move(s));
}

std::string RenderJson(const Timeline& t, const TimelineOptions& opt) {
  const auto stragglers = FindStragglerWindows(t, opt);
  std::string out = "{\"schema\":\"simmr.timeline.v1\"";
  out += ",\"tool\":\"" + JsonEscape(t.tool) + "\"";
  out += ",\"scenario\":\"" + JsonEscape(t.scenario) + "\"";
  out += ",\"simulator\":\"" + JsonEscape(t.simulator) + "\"";
  out += ",\"window_s\":" + JsonNumber(t.window_s);
  out += ",\"windows\":[";
  for (std::size_t i = 0; i < t.windows.size(); ++i) {
    const TimelineWindow& w = t.windows[i];
    if (i != 0) out += ",";
    out += "{\"window\":" + JsonNumber(static_cast<double>(w.index));
    out += ",\"t0\":" + JsonNumber(w.t0);
    out += ",\"t1\":" + JsonNumber(w.t1);
    if (w.partial) out += ",\"partial\":true";
    out += ",\"events\":" + JsonNumber(static_cast<double>(w.events));
    out += ",\"queue_depth\":" + JsonNumber(w.queue_depth);
    out += ",\"queue_depth_max\":" + JsonNumber(w.queue_depth_max);
    out += ",\"jobs_active\":" + JsonNumber(static_cast<double>(w.jobs_active));
    out += ",\"running_maps\":" + JsonNumber(w.running_maps);
    out += ",\"running_reduces\":" + JsonNumber(w.running_reduces);
    out +=
        ",\"maps_completed\":" + JsonNumber(static_cast<double>(w.maps_completed));
    out += ",\"reduces_completed\":" +
           JsonNumber(static_cast<double>(w.reduces_completed));
    out += ",\"task_failures\":" +
           JsonNumber(static_cast<double>(w.task_failures));
    if (w.has_utilization) {
      out += ",\"map_utilization\":" + JsonNumber(w.map_utilization);
      out += ",\"reduce_utilization\":" + JsonNumber(w.reduce_utilization);
    }
    out += "}";
  }
  out += "],\"stragglers\":[";
  for (std::size_t i = 0; i < stragglers.size(); ++i) {
    const StragglerWindow& s = stragglers[i];
    if (i != 0) out += ",";
    out += "{\"window\":" + JsonNumber(static_cast<double>(s.window));
    out += ",\"t0\":" + JsonNumber(s.t0);
    out += ",\"t1\":" + JsonNumber(s.t1);
    out += ",\"kind\":\"" + JsonEscape(s.kind) + "\"";
    out += ",\"completed\":" + JsonNumber(static_cast<double>(s.completed));
    out += ",\"p50\":" + JsonNumber(s.p50);
    out += ",\"p99\":" + JsonNumber(s.p99);
    out += ",\"ratio\":" + JsonNumber(s.ratio);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string RenderText(const Timeline& t, const TimelineOptions& opt) {
  std::string out =
      Fmt("timeline: tool=%s simulator=%s window=%ss\n  scenario: %s\n\n",
          t.tool.c_str(), t.simulator.c_str(),
          JsonNumber(t.window_s).c_str(), t.scenario.c_str());
  out += Fmt("%-7s %10s %7s %11s %9s %9s %9s %9s %6s\n", "window", "t0_s",
             "events", "queue(max)", "jobs_act", "run_m", "run_r", "done_m/r",
             "util%");
  bool any_util = false;
  for (const TimelineWindow& w : t.windows) {
    std::string util = "-";
    if (w.has_utilization) {
      any_util = true;
      util = Fmt("%3.0f/%-3.0f", 100.0 * w.map_utilization,
                 100.0 * w.reduce_utilization);
    }
    const std::string queue =
        Fmt("%.0f(%.0f)", w.queue_depth, w.queue_depth_max);
    out += Fmt("%-7lld %10.1f %7llu %11s %9llu %9.1f %9.1f %4llu/%-4llu %6s%s\n",
               static_cast<long long>(w.index), w.t0,
               static_cast<unsigned long long>(w.events), queue.c_str(),
               static_cast<unsigned long long>(w.jobs_active), w.running_maps,
               w.running_reduces,
               static_cast<unsigned long long>(w.maps_completed),
               static_cast<unsigned long long>(w.reduces_completed),
               util.c_str(), w.partial ? "  (partial)" : "");
  }
  if (!any_util)
    out += "(no utilization columns: the writer did not know the slot "
           "configuration)\n";

  std::uint64_t failures = 0;
  for (const TimelineWindow& w : t.windows) failures += w.task_failures;
  if (failures > 0)
    out += Fmt("\ntask failures across the run: %llu\n",
               static_cast<unsigned long long>(failures));

  const auto stragglers = FindStragglerWindows(t, opt);
  out += Fmt("\nstraggler windows (p99 >= %s x p50, >= %llu completions):\n",
             JsonNumber(opt.straggler_factor).c_str(),
             static_cast<unsigned long long>(opt.min_completions));
  if (stragglers.empty()) {
    out += "  none — task durations stayed close to the median in every "
           "window\n";
  } else {
    out += Fmt("  %-7s %-7s %12s %10s %10s %7s %6s\n", "window", "kind",
               "t0_s", "p50_s", "p99_s", "ratio", "tasks");
    for (const StragglerWindow& s : stragglers) {
      out += Fmt("  %-7lld %-7s %12.1f %10.2f %10.2f %6.1fx %6llu\n",
                 static_cast<long long>(s.window), s.kind.c_str(), s.t0,
                 s.p50, s.p99, s.ratio,
                 static_cast<unsigned long long>(s.completed));
    }
  }
  return out;
}

}  // namespace

Timeline LoadTimeline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  Timeline t;
  std::size_t line_no = 0;
  bool saw_header = false;
  const bool read_ok = obs::ForEachLine(in, [&](std::string_view line) {
    ++line_no;
    if (line.empty()) return;
    try {
      if (saw_header) {
        t.windows.push_back(ParseWindow(line));
      } else {
        ParseHeader(line, t);
        saw_header = true;
      }
    } catch (const obs::JsonLineError& e) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ":" +
                               std::to_string(e.offset()) + ": " + e.what());
    }
  });
  if (!read_ok) throw std::runtime_error("failed reading " + path);
  if (!saw_header)
    throw std::runtime_error(path + ": empty document (no header line)");
  return t;
}

std::vector<StragglerWindow> FindStragglerWindows(const Timeline& timeline,
                                                  const TimelineOptions& opt) {
  std::vector<StragglerWindow> out;
  for (const TimelineWindow& w : timeline.windows) {
    CheckStraggler(w, "map", w.has_map_durations, w.map_p50, w.map_p99,
                   w.maps_completed, opt, out);
    CheckStraggler(w, "reduce", w.has_reduce_durations, w.reduce_p50,
                   w.reduce_p99, w.reduces_completed, opt, out);
  }
  return out;
}

std::string RenderTimeline(const Timeline& timeline,
                           const TimelineOptions& opt) {
  return opt.json ? RenderJson(timeline, opt) : RenderText(timeline, opt);
}

}  // namespace simmr::analysis
