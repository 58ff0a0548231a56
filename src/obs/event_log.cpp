#include "obs/event_log.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/json_line.h"

namespace simmr::obs {
namespace {

constexpr std::string_view kSchema = "simmr.eventlog.v1";

}  // namespace

bool LogEvent::operator==(const LogEvent& other) const {
  if (kind != other.kind || t != other.t || job != other.job ||
      task_kind != other.task_kind || index != other.index)
    return false;
  // Only the union variant selected by `kind` holds defined data.
  switch (kind) {
    case Kind::kDequeue:
      return std::strcmp(detail, other.detail) == 0 &&
             queue_depth == other.queue_depth;
    case Kind::kJobArrival:
      return std::strcmp(name, other.name) == 0 &&
             deadline == other.deadline;
    case Kind::kPhaseTransition:
      return std::strcmp(detail, other.detail) == 0;
    case Kind::kTaskCompletion:
      return timing.start == other.timing.start &&
             timing.shuffle_end == other.timing.shuffle_end &&
             timing.end == other.timing.end && succeeded == other.succeeded;
    case Kind::kFault:
      return std::strcmp(fault_name, other.fault_name) == 0 &&
             node == other.node;
    case Kind::kJobCompletion:
    case Kind::kTaskLaunch:
    case Kind::kSchedulerDecision:
      return true;
  }
  return true;
}

namespace {

/// The record-kind wire vocabulary, indexed by LogEvent::Kind. Both the
/// writer (LogEventKindName) and the parser (ParseLogEventKind) read this
/// one table, so the names cannot drift apart.
constexpr const char* kLogEventKindNames[] = {
    "dequeue", "job_arrival", "job_done",  "launch",
    "phase",   "task_done",   "decision",  "fault",
};
constexpr int kNumLogEventKinds =
    static_cast<int>(LogEvent::Kind::kFault) + 1;
static_assert(std::size(kLogEventKindNames) == kNumLogEventKinds);

}  // namespace

const char* LogEventKindName(LogEvent::Kind kind) {
  const auto index = static_cast<std::uint8_t>(kind);
  if (index >= kNumLogEventKinds) return "?";
  return kLogEventKindNames[index];
}

std::optional<LogEvent::Kind> ParseLogEventKind(std::string_view name) {
  for (int i = 0; i < kNumLogEventKinds; ++i) {
    if (name == kLogEventKindNames[i]) return static_cast<LogEvent::Kind>(i);
  }
  return std::nullopt;
}

struct EventLog::Arena {
  std::vector<std::unique_ptr<std::string>> strings;
  /// Views of `strings`, whose characters never move.
  std::unordered_map<std::string_view, const char*> index;
};

const char* EventLog::Intern(std::string_view s) {
  if (arena_ == nullptr) arena_ = std::make_shared<Arena>();
  const auto found = arena_->index.find(s);
  if (found != arena_->index.end()) return found->second;
  arena_->strings.push_back(std::make_unique<std::string>(s));
  const std::string& owned = *arena_->strings.back();
  arena_->index.emplace(owned, owned.c_str());
  return owned.c_str();
}

void EventLogObserver::Clear() {
  events_.clear();
  names_.clear();
  completed_[0] = completed_[1] = 0;
  killed_[0] = killed_[1] = 0;
}

const char* EventLogObserver::InternName(std::string_view s) {
  return names_.emplace(s).first->c_str();
}

namespace {

void WriteHeaderLine(JsonWriter& out, const EventLogHeader& header) {
  out.Raw("{\"schema\":\"");
  out.Raw(kSchema);
  out.Raw("\",\"tool\":");
  out.String(header.tool);
  out.Raw(",\"scenario\":");
  out.String(header.scenario);
  out.Raw(",\"simulator\":");
  out.String(header.simulator);
  out.Raw("}\n");
}

/// ,"job":J,"kind":"map|reduce","index":I
void WriteTaskKey(JsonWriter& out, const LogEvent& ev) {
  out.Raw(",\"job\":");
  out.Int(ev.job);
  out.Raw(ev.task_kind == TaskKind::kMap
              ? std::string_view(",\"kind\":\"map\",\"index\":")
              : ",\"kind\":\"reduce\",\"index\":");
  out.Int(ev.index);
}

void WriteEventLine(JsonWriter& out, const LogEvent& ev) {
  out.Raw("{\"k\":\"");
  out.Raw(LogEventKindName(ev.kind));
  out.Raw("\",\"t\":");
  out.ExactNumber(ev.t);
  switch (ev.kind) {
    case LogEvent::Kind::kDequeue:
      out.Raw(",\"type\":");
      out.String(ev.detail);
      out.Raw(",\"depth\":");
      out.UInt(ev.queue_depth);
      break;
    case LogEvent::Kind::kJobArrival:
      out.Raw(",\"job\":");
      out.Int(ev.job);
      out.Raw(",\"name\":");
      out.String(ev.name);
      out.Raw(",\"deadline\":");
      out.ExactNumber(ev.deadline);
      break;
    case LogEvent::Kind::kJobCompletion:
      out.Raw(",\"job\":");
      out.Int(ev.job);
      break;
    case LogEvent::Kind::kTaskLaunch:
      WriteTaskKey(out, ev);
      break;
    case LogEvent::Kind::kPhaseTransition:
      WriteTaskKey(out, ev);
      out.Raw(",\"phase\":");
      out.String(ev.detail);
      break;
    case LogEvent::Kind::kTaskCompletion:
      WriteTaskKey(out, ev);
      out.Raw(",\"start\":");
      out.ExactNumber(ev.timing.start);
      out.Raw(",\"shuffle_end\":");
      out.ExactNumber(ev.timing.shuffle_end);
      out.Raw(",\"end\":");
      out.ExactNumber(ev.timing.end);
      out.Raw(ev.succeeded ? std::string_view(",\"ok\":true")
                           : ",\"ok\":false");
      break;
    case LogEvent::Kind::kSchedulerDecision:
      out.Raw(ev.task_kind == TaskKind::kMap
                  ? std::string_view(",\"kind\":\"map\",\"job\":")
                  : ",\"kind\":\"reduce\",\"job\":");
      out.Int(ev.job);
      break;
    case LogEvent::Kind::kFault:
      out.Raw(",\"fault\":");
      out.String(ev.fault_name);
      out.Raw(",\"node\":");
      out.Int(ev.node);
      WriteTaskKey(out, ev);
      break;
  }
  out.Raw("}\n");
}

void WriteLog(JsonWriter& out, const EventLogHeader& header,
              const std::vector<LogEvent>& events) {
  WriteHeaderLine(out, header);
  for (const LogEvent& ev : events) WriteEventLine(out, ev);
}

std::string LogText(const EventLogHeader& header,
                    const std::vector<LogEvent>& events) {
  std::string text;
  {
    JsonWriter out(text);
    WriteLog(out, header, events);
  }
  return text;
}

}  // namespace

std::string EventLogObserver::ToJsonl(const EventLogHeader& header) const {
  return LogText(header, events_);
}

void EventLogObserver::WriteFile(const std::string& path,
                                 const EventLogHeader& header) const {
  WriteJsonFile(path, "EventLogObserver",
                [&](JsonWriter& out) { WriteLog(out, header, events_); });
}

std::string SerializeEventLog(const EventLog& log) {
  return LogText(log.header, log.events);
}

namespace {

/// Where a record's member goes.
enum class Slot : std::uint8_t {
  kT,
  kType,
  kDepth,
  kJob,
  kName,
  kDeadline,
  kKind,
  kIndex,
  kPhase,
  kStart,
  kShuffleEnd,
  kEnd,
  kOk,
  kFault,
  kNode,
};

struct Key {
  std::string_view name;
  Slot slot;
};

/// Each record kind's keys besides "k", in the order the writer emits
/// them. A record carries every key of its kind and no other.
constexpr Key kDequeueKeys[] = {
    {"t", Slot::kT}, {"type", Slot::kType}, {"depth", Slot::kDepth}};
constexpr Key kJobArrivalKeys[] = {{"t", Slot::kT},
                                   {"job", Slot::kJob},
                                   {"name", Slot::kName},
                                   {"deadline", Slot::kDeadline}};
constexpr Key kJobCompletionKeys[] = {{"t", Slot::kT}, {"job", Slot::kJob}};
constexpr Key kTaskLaunchKeys[] = {{"t", Slot::kT},
                                   {"job", Slot::kJob},
                                   {"kind", Slot::kKind},
                                   {"index", Slot::kIndex}};
constexpr Key kPhaseKeys[] = {{"t", Slot::kT},
                              {"job", Slot::kJob},
                              {"kind", Slot::kKind},
                              {"index", Slot::kIndex},
                              {"phase", Slot::kPhase}};
constexpr Key kTaskCompletionKeys[] = {
    {"t", Slot::kT},         {"job", Slot::kJob},
    {"kind", Slot::kKind},   {"index", Slot::kIndex},
    {"start", Slot::kStart}, {"shuffle_end", Slot::kShuffleEnd},
    {"end", Slot::kEnd},     {"ok", Slot::kOk}};
constexpr Key kDecisionKeys[] = {
    {"t", Slot::kT}, {"kind", Slot::kKind}, {"job", Slot::kJob}};
constexpr Key kFaultKeys[] = {{"t", Slot::kT},       {"fault", Slot::kFault},
                              {"node", Slot::kNode}, {"job", Slot::kJob},
                              {"kind", Slot::kKind}, {"index", Slot::kIndex}};

struct KeySet {
  const Key* keys;
  std::size_t size;
};

template <std::size_t N>
constexpr KeySet Keys(const Key (&keys)[N]) {
  return {keys, N};
}

/// Indexed by LogEvent::Kind.
constexpr KeySet kKeySets[] = {
    Keys(kDequeueKeys),    Keys(kJobArrivalKeys), Keys(kJobCompletionKeys),
    Keys(kTaskLaunchKeys), Keys(kPhaseKeys),      Keys(kTaskCompletionKeys),
    Keys(kDecisionKeys),   Keys(kFaultKeys)};
static_assert(std::size(kKeySets) == kNumLogEventKinds);

/// The most members a record may have: "k" plus the largest key set.
constexpr std::size_t kMaxMembers = 1 + std::size(kTaskCompletionKeys);

constexpr std::string_view kHeaderKeys[] = {"schema", "tool", "scenario",
                                            "simulator"};

constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

std::string Quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

class LogReader {
 public:
  explicit LogReader(std::string_view source) : source_(source) {}

  /// Reads one line (without its newline).
  void Line(std::string_view line) {
    ++line_no_;
    try {
      if (!saw_header_) {
        Header(line);
        saw_header_ = true;
      } else if (!line.empty()) {
        Event(line);
      }
    } catch (const JsonLineError& e) {
      throw std::runtime_error(source_ + ":" + std::to_string(line_no_) +
                               ":" + std::to_string(e.offset()) + ": " +
                               e.what());
    }
  }

  EventLog Finish() {
    if (!saw_header_)
      throw std::runtime_error(source_ + ": empty input (no header line)");
    return std::move(log_);
  }

 private:
  void Header(std::string_view line) {
    constexpr std::size_t kKeys = std::size(kHeaderKeys);
    JsonMember m[kKeys];
    const std::size_t n = SplitJsonLine(line, m, kKeys);
    std::string values[kKeys];
    bool seen[kKeys] = {};
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t k = 0;
      while (k < kKeys && m[i].key != kHeaderKeys[k]) ++k;
      if (k == kKeys) ThrowUnknownKey(m[i], "the header");
      if (seen[k]) ThrowDuplicateKey(m[i]);
      seen[k] = true;
      values[k] = std::string(JsonMemberString(m[i], unescaped_));
      if (k == 0 && values[0] != kSchema)
        throw JsonLineError(m[i].offset, "unsupported schema " +
                                             Quoted(values[0]) + " (want " +
                                             std::string(kSchema) + ")");
    }
    for (std::size_t k = 0; k < kKeys; ++k) {
      if (!seen[k])
        throw JsonLineError(line.size(), "missing key " +
                                             Quoted(kHeaderKeys[k]) +
                                             " in the header");
    }
    log_.header.tool = std::move(values[1]);
    log_.header.scenario = std::move(values[2]);
    log_.header.simulator = std::move(values[3]);
  }

  void Event(std::string_view line) {
    JsonMember m[kMaxMembers];
    const std::size_t n = SplitJsonLine(line, m, kMaxMembers);
    std::size_t kind_at = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (m[i].key != "k") continue;
      if (kind_at != n) ThrowDuplicateKey(m[i]);
      kind_at = i;
    }
    if (kind_at == n) throw JsonLineError(line.size(), "missing key 'k'");
    const std::string_view kind_name = JsonMemberString(m[kind_at], unescaped_);
    const std::optional<LogEvent::Kind> kind = ParseLogEventKind(kind_name);
    if (!kind)
      throw JsonLineError(m[kind_at].offset,
                          "unknown event kind " + Quoted(kind_name));
    const KeySet keys = kKeySets[static_cast<int>(*kind)];
    const char* record = kLogEventKindNames[static_cast<int>(*kind)];

    LogEvent ev;
    ev.kind = *kind;
    std::uint32_t seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == kind_at) continue;
      std::size_t k = 0;
      while (k < keys.size && keys.keys[k].name != m[i].key) ++k;
      if (k == keys.size)
        ThrowUnknownKey(m[i], "a " + std::string(record) + " record");
      if ((seen >> k & 1) != 0) ThrowDuplicateKey(m[i]);
      seen |= std::uint32_t{1} << k;
      Store(keys.keys[k].slot, m[i], ev);
    }
    if (seen != (std::uint32_t{1} << keys.size) - 1) {
      std::size_t k = 0;
      while ((seen >> k & 1) != 0) ++k;
      throw JsonLineError(line.size(), "missing key " +
                                           Quoted(keys.keys[k].name) +
                                           " in a " + record + " record");
    }
    log_.events.push_back(ev);
  }

  void Store(Slot slot, const JsonMember& m, LogEvent& ev) {
    switch (slot) {
      case Slot::kT: ev.t = JsonMemberDouble(m); break;
      case Slot::kType: ev.detail = InternString(m); break;
      case Slot::kDepth:
        ev.queue_depth =
            JsonMemberUnsigned(m, std::numeric_limits<std::uint64_t>::max());
        break;
      case Slot::kJob: ev.job = Int32(m); break;
      case Slot::kName: ev.name = InternString(m); break;
      case Slot::kDeadline: ev.deadline = JsonMemberDouble(m); break;
      case Slot::kKind: {
        const std::string_view name = JsonMemberString(m, unescaped_);
        if (name == "map") {
          ev.task_kind = TaskKind::kMap;
        } else if (name == "reduce") {
          ev.task_kind = TaskKind::kReduce;
        } else {
          throw JsonLineError(m.offset, "unknown task kind " + Quoted(name));
        }
        break;
      }
      case Slot::kIndex: ev.index = Int32(m); break;
      case Slot::kPhase: ev.detail = InternString(m); break;
      case Slot::kStart: ev.timing.start = JsonMemberDouble(m); break;
      case Slot::kShuffleEnd:
        ev.timing.shuffle_end = JsonMemberDouble(m);
        break;
      case Slot::kEnd: ev.timing.end = JsonMemberDouble(m); break;
      case Slot::kOk: ev.succeeded = JsonMemberBool(m); break;
      case Slot::kFault: ev.fault_name = InternString(m); break;
      case Slot::kNode: ev.node = Int32(m); break;
    }
  }

  static std::int32_t Int32(const JsonMember& m) {
    return static_cast<std::int32_t>(
        JsonMemberInteger(m, kInt32Min, kInt32Max));
  }

  const char* InternString(const JsonMember& m) {
    return log_.Intern(JsonMemberString(m, unescaped_));
  }

  std::string source_;
  std::size_t line_no_ = 0;
  bool saw_header_ = false;
  EventLog log_;
  std::string unescaped_;
};

}  // namespace

EventLog ParseEventLog(std::istream& in, std::string_view source) {
  LogReader reader(source);
  if (!ForEachLine(in, [&reader](std::string_view line) { reader.Line(line); }))
    throw std::runtime_error("failed reading " + std::string(source));
  return reader.Finish();
}

EventLog ReadEventLogFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return ParseEventLog(in, path);
}

}  // namespace simmr::obs
