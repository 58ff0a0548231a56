// Chrome/Perfetto trace_event JSON exporter.
//
// A SimObserver that renders a simulation run in the Trace Event Format
// consumed by Perfetto (https://ui.perfetto.dev) and chrome://tracing:
//
//   - map and reduce slots appear as tracks ("map slot N" / "reduce slot
//     N"): each task attempt is a duration slice on the lowest free lane
//     of its kind, so the lane count equals peak slot occupancy;
//   - reduce slices nest a shuffle slice and a reduce slice when the phase
//     boundary is known (TaskTiming.shuffle_end strictly inside the task);
//   - job arrivals, completions and deadlines are instant events on a
//     "jobs" track;
//   - event-queue depth is sampled as a counter track;
//   - running map/reduce task counts are counter tracks ("running_maps" /
//     "running_reduces"), updated on every launch and completion, so slot
//     occupancy is visible as a graph without counting slices.
//
// Timestamps are simulated microseconds (Trace Event ts unit); one
// simulated second = 1e6 ts. The hooks store one plain record per trace
// event; names, categories and args are rendered when the trace is
// written. Write the result with WriteFile() and open it directly in the
// Perfetto UI. Schema details: docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/observer.h"
#include "obs/timeseries.h"

namespace simmr::obs {

class JsonWriter;

class TraceExporter final : public SimObserver {
 public:
  struct Options {
    /// Process name shown in the trace viewer.
    std::string process_name = "simmr";
    /// Emit an event_queue_depth counter sample every N dequeues
    /// (0 disables the counter track).
    std::size_t queue_depth_sample_period = 256;
    /// When positive, queue-depth samples are instead emitted at sim-time
    /// window boundaries (the same WindowClock boundaries and values as
    /// TimeSeriesSampler, so Perfetto and the time series agree);
    /// queue_depth_sample_period is ignored.
    double queue_depth_window_s = 0.0;
  };

  TraceExporter();
  explicit TraceExporter(Options options);

  /// Number of trace events accumulated so far (excluding metadata).
  std::size_t event_count() const { return events_.size(); }

  /// Serializes the accumulated run as a Trace Event Format JSON object.
  std::string ToJson() const;

  /// Streams ToJson() and a newline to `path` through one fixed-size
  /// buffer. Throws std::runtime_error on I/O failure.
  void WriteFile(const std::string& path) const;

  void OnEventDequeue(SimTime now, const char* event_type,
                      std::size_t queue_depth) override;
  void OnJobArrival(SimTime now, std::int32_t job, std::string_view name,
                    double deadline) override;
  void OnJobCompletion(SimTime now, std::int32_t job) override;
  void OnTaskLaunch(SimTime now, std::int32_t job, TaskKind kind,
                    std::int32_t index) override;
  void OnTaskCompletion(SimTime now, std::int32_t job, TaskKind kind,
                        std::int32_t index, const TaskTiming& timing,
                        bool succeeded) override;
  void OnFaultEvent(SimTime now, FaultEventKind kind, std::int32_t node,
                    std::int32_t job, TaskKind task_kind,
                    std::int32_t index) override;

 private:
  /// One trace event as plain data; its name, category and args are
  /// rendered from these fields at write time.
  struct TraceEvent {
    enum class Type : std::uint8_t {
      kQueueDepth,    // counter: event_queue_depth
      kRunning,       // counter: running_maps / running_reduces
      kArrival,       // instant on the jobs track
      kDeadline,      // instant on the jobs track
      kCompletion,    // instant on the jobs track
      kFault,         // instant on the jobs track
      kTask,          // slice on a slot lane
      kShufflePhase,  // slice nested in a reduce's
      kReducePhase,   // slice nested in a reduce's
    };
    Type type = Type::kTask;
    TaskKind kind = TaskKind::kMap;  // kRunning, kTask, kFault
    bool succeeded = true;           // kTask
    FaultEventKind fault = FaultEventKind::kNodeLost;  // kFault
    std::int32_t job = 0;
    std::int32_t index = 0;  // kTask, kFault
    std::int32_t node = 0;   // kFault
    double ts_us = 0.0;
    double dur_us = 0.0;    // slices only
    std::int64_t tid = 0;   // slices only: the lane
    union {
      std::uint64_t count;  // counters: the sampled value
      const char* name;     // kArrival, kCompletion: the job name
    };
    TraceEvent() : count(0) {}
  };

  /// The slot lanes of one task kind, as two compact arrays: lane i holds
  /// an attempt when launch[i] is nonzero (its launch order, from 1), and
  /// task[i] is then that attempt's TaskKey.
  struct Lanes {
    std::vector<std::uint64_t> task;
    std::vector<std::uint64_t> launch;
  };

  static std::uint64_t TaskKey(std::int32_t job, std::int32_t index) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(job)) << 32 |
           static_cast<std::uint32_t>(index);
  }

  TraceEvent& Append(TraceEvent::Type type, double ts_us);
  /// The lowest free lane of `kind`, marked busy with launch order `launch`.
  std::size_t AcquireLane(TaskKind kind, std::uint64_t launch);
  void EmitTask(std::int64_t tid, std::int32_t job, TaskKind kind,
                std::int32_t index, const TaskTiming& timing, bool succeeded);
  void EmitRunningCounter(SimTime now, TaskKind kind);
  void Write(JsonWriter& out) const;

  Options options_;
  std::vector<TraceEvent> events_;

  // Lane (thread-id) allocation per kind. Lanes are tids offset by a
  // per-kind base; the lowest free lane is always reused so tracks map
  // 1:1 onto slots. A completion finds its attempt's lane by scanning
  // the lanes of its kind; among concurrent attempts of one task
  // (speculation) the earliest launch completes first.
  Lanes lanes_[2];
  std::uint64_t launches_ = 0;

  std::size_t dequeues_since_sample_ = 0;
  std::optional<WindowClock> window_clock_;  // windowed queue-depth mode
  std::size_t last_queue_depth_ = 0;
  std::size_t running_tasks_[2] = {0, 0};  // [map, reduce] in flight
  /// Owns the job names the events point at; set elements never move.
  std::unordered_set<std::string> names_;
  std::unordered_map<std::int32_t, const char*> name_by_job_;
};

}  // namespace simmr::obs
