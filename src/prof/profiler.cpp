#include "prof/profiler.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace simmr::prof {
namespace {

struct ScopeAgg {
  std::uint64_t calls = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

// Cold-path state: scoped-timer aggregates and per-pool thread busy
// records. Guarded by one mutex — scopes close at most a handful of times
// per run (per backend pass / ParallelFor worker), never per event.
struct ColdState {
  std::mutex mu;
  std::map<std::string, ScopeAgg> scopes;
  std::map<std::string, std::vector<double>> thread_busy;
};

ColdState& Cold() {
  static ColdState state;
  return state;
}

// prof sits below obs and cannot use obs/json.h; these are the two
// primitives the profile document needs.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kEventsDispatched:
      return "events_dispatched";
    case Counter::kHeapPushes:
      return "heap_pushes";
    case Counter::kHeapPops:
      return "heap_pops";
    case Counter::kAllocations:
      return "allocations";
    case Counter::kExploreExecutions:
      return "explore_executions";
    case Counter::kExploreChoicePoints:
      return "explore_choice_points";
    case Counter::kExplorePruned:
      return "explore_pruned";
    case Counter::kShuffleFlowVisits:
      return "shuffle_flow_visits";
    case Counter::kSchedJobsVisited:
      return "sched_jobs_visited";
    case Counter::kQueueEntryMoves:
      return "queue_entry_moves";
    case Counter::kProfilesParsed:
      return "profiles_parsed";
    case Counter::kSoloReplays:
      return "solo_replays";
    case Counter::kCount_:
      break;
  }
  return "unknown";
}

const char* HighWaterName(HighWater mark) {
  switch (mark) {
    case HighWater::kQueueDepth:
      return "queue_depth";
    case HighWater::kReadySet:
      return "ready_set";
    case HighWater::kExploreFrontier:
      return "explore_frontier";
    case HighWater::kCount_:
      break;
  }
  return "unknown";
}

namespace internal {

void AddScopeSample(const char* name, double seconds) {
  ColdState& cold = Cold();
  const std::lock_guard<std::mutex> lock(cold.mu);
  ScopeAgg& agg = cold.scopes[name];
  if (agg.calls == 0 || seconds < agg.min_seconds) agg.min_seconds = seconds;
  if (agg.calls == 0 || seconds > agg.max_seconds) agg.max_seconds = seconds;
  agg.calls += 1;
  agg.total_seconds += seconds;
}

void AddThreadBusy(const char* pool, double seconds) {
  ColdState& cold = Cold();
  const std::lock_guard<std::mutex> lock(cold.mu);
  cold.thread_busy[pool].push_back(seconds);
}

}  // namespace internal

void Arm() { internal::g_armed.store(true, std::memory_order_relaxed); }

void Disarm() { internal::g_armed.store(false, std::memory_order_relaxed); }

void Reset() {
  for (auto& counter : internal::g_counters)
    counter.store(0, std::memory_order_relaxed);
  for (auto& mark : internal::g_high_water)
    mark.store(0, std::memory_order_relaxed);
  ColdState& cold = Cold();
  const std::lock_guard<std::mutex> lock(cold.mu);
  cold.scopes.clear();
  cold.thread_busy.clear();
}

std::uint64_t Value(Counter counter) {
  return internal::g_counters[static_cast<int>(counter)].load(
      std::memory_order_relaxed);
}

std::uint64_t HighWaterValue(HighWater mark) {
  return internal::g_high_water[static_cast<int>(mark)].load(
      std::memory_order_relaxed);
}

std::string ToJson(const std::string& tool, const std::string& scenario) {
  std::string out = "{\"schema\":\"simmr.profile.v1\"";
  out += ",\"tool\":\"" + JsonEscape(tool) + "\"";
  out += ",\"scenario\":\"" + JsonEscape(scenario) + "\"";
  out += ",\"compiled\":" + std::string(SIMMR_PROF_COMPILED ? "true"
                                                            : "false");

  out += ",\"counters\":{";
  for (int i = 0; i < internal::kNumCounters; ++i) {
    if (i > 0) out += ",";
    out += "\"" + std::string(CounterName(static_cast<Counter>(i))) +
           "\":" + std::to_string(Value(static_cast<Counter>(i)));
  }
  out += "}";

  out += ",\"high_water\":{";
  for (int i = 0; i < internal::kNumHighWater; ++i) {
    if (i > 0) out += ",";
    out += "\"" + std::string(HighWaterName(static_cast<HighWater>(i))) +
           "\":" + std::to_string(HighWaterValue(static_cast<HighWater>(i)));
  }
  out += "}";

  ColdState& cold = Cold();
  const std::lock_guard<std::mutex> lock(cold.mu);
  out += ",\"scopes\":[";
  bool first = true;
  for (const auto& [name, agg] : cold.scopes) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(name) +
           "\",\"calls\":" + std::to_string(agg.calls) +
           ",\"total_seconds\":" + JsonDouble(agg.total_seconds) +
           ",\"min_seconds\":" + JsonDouble(agg.min_seconds) +
           ",\"max_seconds\":" + JsonDouble(agg.max_seconds) + "}";
  }
  out += "]";

  out += ",\"thread_pools\":[";
  first = true;
  for (const auto& [pool, samples] : cold.thread_busy) {
    if (!first) out += ",";
    first = false;
    double total = 0.0;
    for (const double s : samples) total += s;
    out += "{\"name\":\"" + JsonEscape(pool) +
           "\",\"workers\":" + std::to_string(samples.size()) +
           ",\"busy_seconds_total\":" + JsonDouble(total) +
           ",\"busy_seconds\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonDouble(samples[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void WriteFile(const std::string& path, const std::string& tool,
               const std::string& scenario) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("profiler: cannot write " + path);
  out << ToJson(tool, scenario) << "\n";
  if (!out) throw std::runtime_error("profiler: write failed for " + path);
}

}  // namespace simmr::prof
