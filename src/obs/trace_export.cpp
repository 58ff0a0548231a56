#include "obs/trace_export.h"

#include <algorithm>
#include <stdexcept>

#include "obs/json.h"

namespace simmr::obs {
namespace {

// Thread-id layout inside the single trace process: a jobs track, a lane
// block per task kind, and a counter track (counters are per-process, the
// tid is ignored by viewers but kept distinct for tidiness).
constexpr std::int64_t kJobsTid = 1;
constexpr std::int64_t kMapLaneBase = 1000;
constexpr std::int64_t kReduceLaneBase = 100000;

std::int64_t LaneBase(TaskKind kind) {
  return kind == TaskKind::kMap ? kMapLaneBase : kReduceLaneBase;
}

std::size_t KindIndex(TaskKind kind) { return kind == TaskKind::kMap ? 0 : 1; }

double ToUs(SimTime t) { return t * 1e6; }

/// {"ph":"M","pid":1,"tid":<tid>,"name":"thread_name","args":{"name":"
/// (the caller writes the name) and, after it, the sort-index record.
void ThreadNameStart(JsonWriter& out, std::int64_t tid) {
  out.Raw(",{\"ph\":\"M\",\"pid\":1,\"tid\":");
  out.Int(tid);
  out.Raw(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
}

void ThreadNameEnd(JsonWriter& out, std::int64_t tid,
                   std::int64_t sort_index) {
  out.Raw("\"}},{\"ph\":\"M\",\"pid\":1,\"tid\":");
  out.Int(tid);
  out.Raw(",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":");
  out.Int(sort_index);
  out.Raw("}}");
}

}  // namespace

TraceExporter::TraceExporter() : TraceExporter(Options{}) {}

TraceExporter::TraceExporter(Options options)
    : options_(std::move(options)) {
  if (options_.queue_depth_window_s > 0.0)
    window_clock_.emplace(options_.queue_depth_window_s);
}

TraceExporter::TraceEvent& TraceExporter::Append(TraceEvent::Type type,
                                                 double ts_us) {
  TraceEvent& ev = events_.emplace_back();
  ev.type = type;
  ev.ts_us = ts_us;
  return ev;
}

std::size_t TraceExporter::AcquireLane(TaskKind kind, std::uint64_t launch) {
  Lanes& lanes = lanes_[KindIndex(kind)];
  std::size_t lane = 0;
  while (lane < lanes.launch.size() && lanes.launch[lane] != 0) ++lane;
  if (lane == lanes.launch.size()) {
    lanes.task.push_back(0);
    lanes.launch.push_back(0);
  }
  lanes.launch[lane] = launch;
  return lane;
}

void TraceExporter::OnEventDequeue(SimTime now, const char*,
                                   std::size_t queue_depth) {
  const auto emit = [this](double ts_s, std::size_t depth) {
    Append(TraceEvent::Type::kQueueDepth, ToUs(ts_s)).count = depth;
  };
  if (window_clock_.has_value()) {
    // Windowed mode: one sample per closed window, stamped at the window
    // boundary with the depth after the window's last dequeue — exactly
    // the queue_depth TimeSeriesSampler reports for that window.
    while (window_clock_->CrossesBoundary(now)) {
      emit(window_clock_->WindowEnd(), last_queue_depth_);
      window_clock_->AdvanceOne();
    }
    last_queue_depth_ = queue_depth;
    return;
  }
  if (options_.queue_depth_sample_period == 0) return;
  if (++dequeues_since_sample_ < options_.queue_depth_sample_period) return;
  dequeues_since_sample_ = 0;
  emit(now, queue_depth);
}

void TraceExporter::OnJobArrival(SimTime now, std::int32_t job,
                                 std::string_view name, double deadline) {
  const char* interned = names_.emplace(name).first->c_str();
  name_by_job_[job] = interned;
  TraceEvent& ev = Append(TraceEvent::Type::kArrival, ToUs(now));
  ev.job = job;
  ev.name = interned;
  if (deadline > 0.0)
    Append(TraceEvent::Type::kDeadline, ToUs(deadline)).job = job;
}

void TraceExporter::OnJobCompletion(SimTime now, std::int32_t job) {
  const auto it = name_by_job_.find(job);
  TraceEvent& ev = Append(TraceEvent::Type::kCompletion, ToUs(now));
  ev.job = job;
  ev.name = it == name_by_job_.end() ? "" : it->second;
}

void TraceExporter::OnFaultEvent(SimTime now, FaultEventKind kind,
                                 std::int32_t node, std::int32_t job,
                                 TaskKind task_kind, std::int32_t index) {
  TraceEvent& ev = Append(TraceEvent::Type::kFault, ToUs(now));
  ev.fault = kind;
  ev.node = node;
  ev.job = job;
  ev.kind = task_kind;
  ev.index = index;
}

void TraceExporter::EmitRunningCounter(SimTime now, TaskKind kind) {
  TraceEvent& ev = Append(TraceEvent::Type::kRunning, ToUs(now));
  ev.kind = kind;
  ev.count = running_tasks_[KindIndex(kind)];
}

void TraceExporter::OnTaskLaunch(SimTime now, std::int32_t job, TaskKind kind,
                                 std::int32_t index) {
  const std::size_t lane = AcquireLane(kind, ++launches_);
  lanes_[KindIndex(kind)].task[lane] = TaskKey(job, index);
  ++running_tasks_[KindIndex(kind)];
  EmitRunningCounter(now, kind);
}

void TraceExporter::OnTaskCompletion(SimTime now, std::int32_t job,
                                     TaskKind kind, std::int32_t index,
                                     const TaskTiming& timing,
                                     bool succeeded) {
  std::size_t& running = running_tasks_[KindIndex(kind)];
  if (running > 0) --running;  // guard: observer may be installed mid-run
  EmitRunningCounter(now, kind);
  Lanes& lanes = lanes_[KindIndex(kind)];
  const std::uint64_t key = TaskKey(job, index);
  const std::size_t count = lanes.task.size();
  std::size_t lane = count;
  for (std::size_t i = 0; i < count; ++i) {
    if (lanes.task[i] == key && lanes.launch[i] != 0 &&
        (lane == count || lanes.launch[i] < lanes.launch[lane]))
      lane = i;
  }
  // A completion without a matching launch (observer installed mid-run)
  // still renders its slice, on a fresh lane.
  if (lane == count) lane = AcquireLane(kind, ++launches_);
  EmitTask(LaneBase(kind) + static_cast<std::int64_t>(lane), job, kind, index,
           timing, succeeded);
  lanes.launch[lane] = 0;
}

void TraceExporter::EmitTask(std::int64_t tid, std::int32_t job,
                             TaskKind kind, std::int32_t index,
                             const TaskTiming& timing, bool succeeded) {
  TraceEvent& ev = Append(TraceEvent::Type::kTask, ToUs(timing.start));
  ev.kind = kind;
  ev.succeeded = succeeded;
  ev.job = job;
  ev.index = index;
  ev.dur_us = ToUs(std::max(0.0, timing.end - timing.start));
  ev.tid = tid;

  // Nested shuffle/reduce slices when the phase boundary falls strictly
  // inside the task (reduces only; maps have shuffle_end == start).
  if (kind == TaskKind::kReduce && timing.shuffle_end > timing.start &&
      timing.shuffle_end < timing.end) {
    TraceEvent& shuffle =
        Append(TraceEvent::Type::kShufflePhase, ToUs(timing.start));
    shuffle.dur_us = ToUs(timing.shuffle_end - timing.start);
    shuffle.tid = tid;
    TraceEvent& reduce =
        Append(TraceEvent::Type::kReducePhase, ToUs(timing.shuffle_end));
    reduce.dur_us = ToUs(timing.end - timing.shuffle_end);
    reduce.tid = tid;
  }
}

void TraceExporter::Write(JsonWriter& out) const {
  out.Raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

  // Metadata: process name, then one thread_name per track actually used,
  // sorted so the viewer shows jobs, then map slots, then reduce slots.
  out.Raw("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{"
          "\"name\":");
  out.String(options_.process_name);
  out.Raw("}}");
  ThreadNameStart(out, kJobsTid);
  out.Raw("jobs");
  ThreadNameEnd(out, kJobsTid, 0);
  for (std::size_t i = 0; i < lanes_[0].launch.size(); ++i) {
    const std::int64_t lane = static_cast<std::int64_t>(i);
    ThreadNameStart(out, kMapLaneBase + lane);
    out.Raw("map slot ");
    out.UInt(i);
    ThreadNameEnd(out, kMapLaneBase + lane, 10 + lane);
  }
  for (std::size_t i = 0; i < lanes_[1].launch.size(); ++i) {
    const std::int64_t lane = static_cast<std::int64_t>(i);
    ThreadNameStart(out, kReduceLaneBase + lane);
    out.Raw("reduce slot ");
    out.UInt(i);
    ThreadNameEnd(out, kReduceLaneBase + lane, 100000 + lane);
  }

  using Type = TraceEvent::Type;
  for (const TraceEvent& ev : events_) {
    out.Raw(",{\"name\":\"");
    switch (ev.type) {
      case Type::kQueueDepth:
        out.Raw("event_queue_depth\",\"cat\":\"queue\",\"ph\":\"C");
        break;
      case Type::kRunning:
        out.Raw(ev.kind == TaskKind::kMap
                    ? std::string_view("running_maps")
                    : "running_reduces");
        out.Raw("\",\"cat\":\"tasks\",\"ph\":\"C");
        break;
      case Type::kArrival:
      case Type::kDeadline:
      case Type::kCompletion:
        out.Raw("job ");
        out.Int(ev.job);
        out.Raw(ev.type == Type::kArrival ? std::string_view(
                                                " arrival\",\"cat\":\"job")
                : ev.type == Type::kDeadline
                    ? " deadline\",\"cat\":\"deadline"
                    : " completion\",\"cat\":\"job");
        out.Raw("\",\"ph\":\"i");
        break;
      case Type::kFault:
        out.Escaped(FaultEventKindName(ev.fault));
        out.Raw("\",\"cat\":\"fault\",\"ph\":\"i");
        break;
      case Type::kTask:
        out.Raw(TaskKindName(ev.kind));
        out.Char(' ');
        out.Int(ev.job);
        out.Char('.');
        out.Int(ev.index);
        out.Raw("\",\"cat\":\"");
        out.Raw(ev.succeeded ? TaskKindName(ev.kind) : "failed");
        out.Raw("\",\"ph\":\"X");
        break;
      case Type::kShufflePhase:
        out.Raw("shuffle\",\"cat\":\"phase\",\"ph\":\"X");
        break;
      case Type::kReducePhase:
        out.Raw("reduce\",\"cat\":\"phase\",\"ph\":\"X");
        break;
    }
    out.Raw("\",\"ts\":");
    out.Number(ev.ts_us);
    out.Raw(",\"pid\":1,\"tid\":");
    switch (ev.type) {
      case Type::kQueueDepth:
      case Type::kRunning:
        out.Char('0');
        break;
      case Type::kArrival:
      case Type::kDeadline:
      case Type::kCompletion:
      case Type::kFault:
        out.Int(kJobsTid);
        out.Raw(",\"s\":\"t\"");
        break;
      case Type::kTask:
      case Type::kShufflePhase:
      case Type::kReducePhase:
        out.Int(ev.tid);
        out.Raw(",\"dur\":");
        out.Number(ev.dur_us);
        break;
    }
    switch (ev.type) {
      case Type::kQueueDepth:
        out.Raw(",\"args\":{\"depth\":");
        out.UInt(ev.count);
        out.Char('}');
        break;
      case Type::kRunning:
        out.Raw(",\"args\":{\"running\":");
        out.UInt(ev.count);
        out.Char('}');
        break;
      case Type::kArrival:
      case Type::kCompletion:
        out.Raw(",\"args\":{\"job\":");
        out.Int(ev.job);
        out.Raw(",\"name\":");
        out.String(ev.name);
        out.Char('}');
        break;
      case Type::kDeadline:
        out.Raw(",\"args\":{\"job\":");
        out.Int(ev.job);
        out.Char('}');
        break;
      case Type::kFault:
        out.Raw(",\"args\":{\"node\":");
        out.Int(ev.node);
        if (ev.job >= 0) {
          out.Raw(",\"job\":");
          out.Int(ev.job);
          out.Raw(",\"kind\":\"");
          out.Raw(TaskKindName(ev.kind));
          out.Raw("\",\"index\":");
          out.Int(ev.index);
        }
        out.Char('}');
        break;
      case Type::kTask:
        out.Raw(",\"args\":{\"job\":");
        out.Int(ev.job);
        out.Raw(",\"index\":");
        out.Int(ev.index);
        out.Raw(ev.succeeded ? std::string_view(",\"succeeded\":true}")
                             : ",\"succeeded\":false}");
        break;
      case Type::kShufflePhase:
      case Type::kReducePhase:
        break;
    }
    out.Char('}');
  }
  out.Raw("]}");
}

std::string TraceExporter::ToJson() const {
  std::string text;
  {
    JsonWriter out(text);
    Write(out);
  }
  return text;
}

void TraceExporter::WriteFile(const std::string& path) const {
  WriteJsonFile(path, "TraceExporter", [this](JsonWriter& out) {
    Write(out);
    out.Char('\n');
  });
}

}  // namespace simmr::obs
