// In-process performance profiler for the simulator hot paths.
//
// The kernel work that open item 1 (the sharded 10M+ events/s engine)
// wants to speed up has to be observable before it is optimizable: this
// header gives the hot loops monotonic counters (events dispatched,
// event-queue pushes/pops, allocations via the counting hook in
// alloc_hook.cpp), high-water marks (event-queue depth, scheduler ready
// set), RAII scoped timers per component, and ParallelFor per-thread busy
// time — all aggregated process-wide and rendered as one
// "simmr.profile.v1" JSON document (docs/FORMATS.md).
//
// Cost model. The profiler is disarmed by default; every hot hook is an
// inline relaxed load of a constant-initialized atomic plus a predictable
// branch — the same budget as the simulators' null-observer checks. Tools
// arm it only when --profile-out is set (tool_common.cpp). Building with
// -DSIMMR_PROFILER=OFF defines SIMMR_PROF_COMPILED=0 and compiles every
// hook to literally nothing for the true-zero-cost path.
//
// prof sits below simcore in the layering: it depends only on the
// standard library, so EventQueue/SimKernel/ParallelFor may include it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#ifndef SIMMR_PROF_COMPILED
#define SIMMR_PROF_COMPILED 1
#endif

namespace simmr::prof {

/// Monotonic counter slots. Fixed at compile time so the hot path is one
/// array-indexed atomic add, no lookup.
enum class Counter : int {
  kEventsDispatched = 0,  // SimKernel::DrainUntil pops
  kHeapPushes,            // event-queue pushes (EventQueue::Push)
  kHeapPops,              // event-queue pops (Pop, PopAmongEarliest)
  kAllocations,           // global operator new (alloc_hook.cpp)
  kExploreExecutions,     // model checker: schedules executed (mc/explorer)
  kExploreChoicePoints,   // model checker: tie points encountered
  kExplorePruned,         // model checker: transitions skipped by sleep sets
  kShuffleFlowVisits,     // testbed shuffle: flows read by Advance and
                          // NextEventTime (cluster/shuffle_model)
  kSchedJobsVisited,      // jobs a src/sched policy read to make its
                          // decisions (one add per decision)
  kQueueEntryMoves,       // entries EventQueue refills moved between
                          // buckets
  kProfilesParsed,        // trace-database profile files read and
                          // validated (TraceDatabase::ReadProfile)
  kSoloReplays,           // one-job T_J replays (core::MeasureSoloCompletion)
  kCount_,
};

/// High-water-mark slots (atomic max).
enum class HighWater : int {
  kQueueDepth = 0,   // pending events after a push
  kReadySet,         // engine job queue length
  kExploreFrontier,  // model checker: deepest DFS stack (mc/explorer)
  kCount_,
};

/// Stable JSON key for a counter slot.
const char* CounterName(Counter counter);
/// Stable JSON key for a high-water slot.
const char* HighWaterName(HighWater mark);

namespace internal {

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount_);
inline constexpr int kNumHighWater = static_cast<int>(HighWater::kCount_);

// Constant-initialized globals: the disarmed hot path needs no
// function-local-static guard, only a relaxed load and a branch.
inline std::atomic<bool> g_armed{false};
inline std::atomic<std::uint64_t> g_counters[kNumCounters]{};
inline std::atomic<std::uint64_t> g_high_water[kNumHighWater]{};

// Cold-path aggregation (mutex-protected, profiler.cpp).
void AddScopeSample(const char* name, double seconds);
void AddThreadBusy(const char* pool, double seconds);

}  // namespace internal

/// True while a run is being profiled.
inline bool Armed() {
#if SIMMR_PROF_COMPILED
  return internal::g_armed.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Adds to a counter slot. No-op while disarmed.
inline void Count(Counter counter, std::uint64_t delta = 1) {
#if SIMMR_PROF_COMPILED
  if (Armed())
    internal::g_counters[static_cast<int>(counter)].fetch_add(
        delta, std::memory_order_relaxed);
#else
  (void)counter;
  (void)delta;
#endif
}

/// Raises a high-water mark to at least `value`. No-op while disarmed.
inline void RaiseHighWater(HighWater mark, std::uint64_t value) {
#if SIMMR_PROF_COMPILED
  if (!Armed()) return;
  auto& slot = internal::g_high_water[static_cast<int>(mark)];
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value && !slot.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
#else
  (void)mark;
  (void)value;
#endif
}

/// Records one worker's busy wall time in a named pool (ParallelFor calls
/// this once per worker). No-op while disarmed.
inline void RecordThreadBusy(const char* pool, double busy_seconds) {
#if SIMMR_PROF_COMPILED
  if (Armed()) internal::AddThreadBusy(pool, busy_seconds);
#else
  (void)pool;
  (void)busy_seconds;
#endif
}

/// Starts collecting. Counters continue from their current values; call
/// Reset() first for a fresh profile.
void Arm();
/// Stops collecting (hooks return to the single-branch disarmed path).
void Disarm();
/// Zeroes every counter, high-water mark, scope and thread record.
void Reset();

/// Current value of a counter / high-water slot (readable while armed).
std::uint64_t Value(Counter counter);
std::uint64_t HighWaterValue(HighWater mark);

/// RAII wall-clock timer aggregated under `name` (calls, total/min/max
/// seconds). `name` must outlive the profile (string literals only).
/// Arm state is sampled at construction so a scope spanning Disarm still
/// records consistently.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) : name_(name), active_(Armed()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
#if SIMMR_PROF_COMPILED
    if (active_)
      internal::AddScopeSample(
          name_, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
#endif
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// Renders the collected profile as a "simmr.profile.v1" JSON document.
std::string ToJson(const std::string& tool, const std::string& scenario);

/// Writes ToJson() to `path`. Throws std::runtime_error on I/O failure.
void WriteFile(const std::string& path, const std::string& tool,
               const std::string& scenario);

}  // namespace simmr::prof
