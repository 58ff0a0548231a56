// Durable run records: the "simmr.eventlog.v1" format.
//
// EventLogObserver persists the full SimObserver callback stream — job
// arrivals/completions, task launches/phase transitions/completions with
// their TaskTiming, scheduler decisions and queue depths — so a run can be
// analyzed, replayed and diffed long after the process exits. The format is
// versioned JSONL: one header object followed by one object per callback,
// with doubles printed exactly (shortest representation that parses back to
// the identical bits), so ReadEventLogFile round-trips a run losslessly.
// Lines are written through the shared emitter (obs/json.h) and read back
// by a strict direct reader (obs/json_line.h). Schema reference:
// docs/OBSERVABILITY.md and docs/FORMATS.md; offline consumers live in
// src/analysis/ and tools/simmr_analyze.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "obs/json.h"
#include "obs/observer.h"

namespace simmr::obs {

/// One recorded callback. `detail` carries the dequeued event-type name or
/// the phase name being entered, and `name` the job name; both point either
/// at a static string (hook sites pass literals), into the recording
/// observer's name set, or into the owning EventLog's string arena (after
/// parsing) — so events must not outlive their producer. Keeping them as
/// raw pointers makes LogEvent trivially copyable, which is what lets the
/// recording hot path and vector growth stay at memcpy speed.
///
/// The kind-specific payloads overlap in a union: a 1000-job replay records
/// half a million events, so the struct is kept at 48 bytes — memory
/// bandwidth is what the ≤10% recording-overhead budget is spent on. Only
/// the variant named for `kind` is valid; every reader (serializer, parser,
/// analysis, operator==) dispatches on `kind` before touching it.
struct LogEvent {
  enum class Kind : std::uint8_t {
    kDequeue,
    kJobArrival,
    kJobCompletion,
    kTaskLaunch,
    kPhaseTransition,
    kTaskCompletion,
    kSchedulerDecision,
    kFault,
  };

  Kind kind = Kind::kDequeue;
  TaskKind task_kind = TaskKind::kMap;
  bool succeeded = true;  // kTaskCompletion only
  /// Job id; for kSchedulerDecision the chosen job (negative = idle).
  std::int32_t job = -1;
  SimTime t = 0.0;
  std::int32_t index = 0;
  union {
    struct {
      const char* detail;  // kDequeue: event type; kPhaseTransition: phase
      std::uint64_t queue_depth;  // kDequeue only
    };
    struct {
      const char* name;  // kJobArrival only (interned; see above)
      double deadline;   // kJobArrival only (absolute; 0 = none)
    };
    TaskTiming timing;  // kTaskCompletion only
    struct {
      const char* fault_name;  // kFault only: FaultEventKindName (static)
      std::int32_t node;       // kFault only: affected node (-1 = none)
    };
  };

  LogEvent() : detail(""), queue_depth(0) {}

  bool operator==(const LogEvent& other) const;
};

/// Wire name of a LogEvent::Kind ("dequeue", "job_arrival", ...).
const char* LogEventKindName(LogEvent::Kind kind);

/// Inverse of LogEventKindName (the parser's single source of truth for
/// record kinds); nullopt for unknown names.
std::optional<LogEvent::Kind> ParseLogEventKind(std::string_view name);

/// Run-level metadata carried in the header line.
struct EventLogHeader {
  std::string tool;       // producing binary, e.g. "simmr_replay"
  std::string scenario;   // free-form run label, e.g. "policy=fifo jobs=6"
  std::string simulator;  // "simmr" | "testbed" | "mumak" | ""
};

/// A parsed (or assembled) run record: header plus time-ordered events.
/// Copyable; copies share the string arena backing parsed `detail`s.
struct EventLog {
  EventLogHeader header;
  std::vector<LogEvent> events;

  /// Interns `s` into the arena and returns a pointer stable for the
  /// lifetime of this log and all its copies.
  const char* Intern(std::string_view s);

 private:
  struct Arena;
  std::shared_ptr<Arena> arena_;
};

/// Records every callback in memory, for WriteFile at end of run.
///
/// The hot path is allocation-free except for vector growth and first-seen
/// job names: `detail` strings are kept as the static pointers the hook
/// sites pass, job names are interned once into an owned set, and LogEvent
/// itself is trivially copyable, so appending is a bounds check plus a
/// fixed-size copy.
class EventLogObserver final : public SimObserver {
 public:
  struct Options {
    /// Record kDequeue events (the bulk of a log). Disabling keeps job- and
    /// task-level history only; the record is then no longer a lossless
    /// callback stream but remains sufficient for src/analysis.
    bool record_dequeues = true;
  };

  EventLogObserver() = default;
  explicit EventLogObserver(Options options) : options_(options) {}

  /// Added to every recorded job id. Lets one observer span several
  /// back-to-back single-job replays (simmr_compare) without id collisions.
  void set_job_id_offset(std::int32_t offset) { job_id_offset_ = offset; }

  const std::vector<LogEvent>& events() const { return events_; }
  std::size_t event_count() const { return events_.size(); }

  /// Successful task attempts recorded so far, per kind.
  std::uint64_t completed(TaskKind kind) const {
    return completed_[kind == TaskKind::kMap ? 0 : 1];
  }
  /// Failed or killed attempts recorded so far, per kind — counted
  /// distinctly from successful ones.
  std::uint64_t killed(TaskKind kind) const {
    return killed_[kind == TaskKind::kMap ? 0 : 1];
  }

  /// Drops all recorded events and counters (the job-id offset stays).
  void Clear();

  /// The record as a "simmr.eventlog.v1" JSONL document.
  std::string ToJsonl(const EventLogHeader& header) const;

  /// Streams the ToJsonl() document to `path` through one fixed-size
  /// buffer. Throws std::runtime_error on I/O failure.
  void WriteFile(const std::string& path, const EventLogHeader& header) const;

  // The recording callbacks are defined inline: the engine devirtualizes
  // them when it runs against a concrete EventLogObserver (see
  // core/engine.cpp), and with the bodies visible each hook becomes a
  // branch plus a 48-byte in-place store.
  void OnEventDequeue(SimTime now, const char* event_type,
                      std::size_t queue_depth) override {
    if (!options_.record_dequeues) return;
    LogEvent& ev = Append(LogEvent::Kind::kDequeue, now);
    ev.detail = event_type;
    ev.queue_depth = queue_depth;
  }

  void OnJobArrival(SimTime now, std::int32_t job, std::string_view name,
                    double deadline) override {
    LogEvent& ev = Append(LogEvent::Kind::kJobArrival, now);
    ev.job = job + job_id_offset_;
    ev.name = InternName(name);
    ev.deadline = deadline;
  }

  void OnJobCompletion(SimTime now, std::int32_t job) override {
    Append(LogEvent::Kind::kJobCompletion, now).job = job + job_id_offset_;
  }

  void OnTaskLaunch(SimTime now, std::int32_t job, TaskKind kind,
                    std::int32_t index) override {
    LogEvent& ev = Append(LogEvent::Kind::kTaskLaunch, now);
    ev.job = job + job_id_offset_;
    ev.task_kind = kind;
    ev.index = index;
  }

  void OnTaskPhaseTransition(SimTime now, std::int32_t job, TaskKind kind,
                             std::int32_t index, const char* phase) override {
    LogEvent& ev = Append(LogEvent::Kind::kPhaseTransition, now);
    ev.job = job + job_id_offset_;
    ev.task_kind = kind;
    ev.index = index;
    ev.detail = phase;
  }

  void OnTaskCompletion(SimTime now, std::int32_t job, TaskKind kind,
                        std::int32_t index, const TaskTiming& timing,
                        bool succeeded) override {
    LogEvent& ev = Append(LogEvent::Kind::kTaskCompletion, now);
    ev.job = job + job_id_offset_;
    ev.task_kind = kind;
    ev.index = index;
    ev.timing = timing;
    ev.succeeded = succeeded;
    ++(succeeded ? completed_ : killed_)[kind == TaskKind::kMap ? 0 : 1];
  }

  void OnSchedulerDecision(SimTime now, TaskKind kind,
                           std::int32_t chosen_job) override {
    LogEvent& ev = Append(LogEvent::Kind::kSchedulerDecision, now);
    ev.task_kind = kind;
    ev.job = chosen_job >= 0 ? chosen_job + job_id_offset_ : chosen_job;
  }

  void OnFaultEvent(SimTime now, FaultEventKind kind, std::int32_t node,
                    std::int32_t job, TaskKind task_kind,
                    std::int32_t index) override {
    LogEvent& ev = Append(LogEvent::Kind::kFault, now);
    ev.job = job >= 0 ? job + job_id_offset_ : job;
    ev.task_kind = task_kind;
    ev.index = index;
    ev.fault_name = FaultEventKindName(kind);
    ev.node = node;
  }

 private:
  /// Appends a default event and returns it for field fill-in — the
  /// callers above write straight into the vector slot.
  LogEvent& Append(LogEvent::Kind kind, SimTime now) {
    LogEvent& ev = events_.emplace_back();
    ev.kind = kind;
    ev.t = now;
    return ev;
  }

  /// Copies `s` into the owned name set (deduplicated) and returns a
  /// pointer stable for this observer's lifetime.
  const char* InternName(std::string_view s);

  Options options_;
  std::int32_t job_id_offset_ = 0;
  std::vector<LogEvent> events_;
  /// Owns recorded job names; unordered_set never moves its elements, so
  /// the c_str() pointers stored in events_ stay valid across inserts.
  std::unordered_set<std::string> names_;
  std::uint64_t completed_[2] = {0, 0};
  std::uint64_t killed_[2] = {0, 0};
};

/// Serializes a parsed/assembled log back to JSONL — the inverse of
/// ParseEventLog, used by round-trip tests.
std::string SerializeEventLog(const EventLog& log);

/// Parses a "simmr.eventlog.v1" document strictly (docs/FORMATS.md): each
/// record kind has a fixed key set, integer fields take integer literals in
/// range, doubles follow the JSON number grammar (or are the quoted
/// "NaN"/"+Inf"/"-Inf"), and nothing may follow a record's closing brace.
/// Throws std::runtime_error reading "<source>:<line>:<offset>: <what>",
/// the offset counting bytes from the start of the line.
EventLog ParseEventLog(std::istream& in, std::string_view source = "event log");

/// Reads and parses an event-log file; errors name `path` as the source.
/// Throws std::runtime_error on I/O or parse failure.
EventLog ReadEventLogFile(const std::string& path);

}  // namespace simmr::obs
