#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "obs/event_log.h"
#include "obs/json.h"

namespace simmr::e2e {
namespace {

using Clock = std::chrono::steady_clock;

struct Recorder {
  std::atomic<bool> enabled{false};
  const Clock::time_point epoch = Clock::now();
  std::atomic<std::uint32_t> next_thread{0};
  std::mutex mu;
  std::vector<SpanRecord> spans;  // guarded by mu
};

Recorder& Rec() {
  static Recorder recorder;
  return recorder;
}

double Now() {
  return std::chrono::duration<double>(Clock::now() - Rec().epoch).count();
}

// Innermost open recorded span of this thread (-1: none).
thread_local int t_current = -1;

std::uint32_t ThreadId() {
  thread_local const std::uint32_t id = Rec().next_thread.fetch_add(1);
  return id;
}

}  // namespace

void EnableSpans() { Rec().enabled = true; }

Span::Span(const char* name, std::int64_t op, bool record) {
  if (!record || !Rec().enabled) return;
  saved_parent_ = t_current;
  t_current = -1;
  Open(name, op);
}

Span::Span(const char* name) {
  if (t_current < 0) return;
  saved_parent_ = t_current;
  std::int64_t op = -1;
  {
    std::lock_guard<std::mutex> lock(Rec().mu);
    op = Rec().spans[saved_parent_].op;
  }
  Open(name, op);
}

void Span::Open(const char* name, std::int64_t op) {
  SpanRecord record;
  record.name = name;
  record.parent = t_current;
  record.op = op;
  record.thread = ThreadId();
  record.start = Now();
  record.end = -1.0;
  {
    std::lock_guard<std::mutex> lock(Rec().mu);
    index_ = static_cast<int>(Rec().spans.size());
    Rec().spans.push_back(std::move(record));
  }
  t_current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  const double end = Now();
  {
    std::lock_guard<std::mutex> lock(Rec().mu);
    Rec().spans[index_].end = end;
  }
  t_current = saved_parent_;
}

void Span::Arg(const char* key, double value) {
  if (index_ < 0) return;
  std::lock_guard<std::mutex> lock(Rec().mu);
  Rec().spans[index_].args.emplace_back(key, value);
}

std::vector<SpanRecord> RecordedSpans() {
  std::lock_guard<std::mutex> lock(Rec().mu);
  return Rec().spans;
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"simmr_bench_e2e\"}}";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"name\":\"" << obs::JsonEscape(s.name) << "\",\"cat\":\""
        << (s.op >= 0 ? "op" : "setup")
        << "\",\"ts\":" << obs::ExactJsonNumber(s.start * 1e6)
        << ",\"dur\":" << obs::ExactJsonNumber((s.end - s.start) * 1e6)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op;
    for (const auto& [key, value] : s.args)
      out << ",\"" << key << "\":" << obs::ExactJsonNumber(value);
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

double SpanSummary::PerOp(const std::string& name) const {
  const auto it = by_name.find(name);
  if (it == by_name.end() || it->second.ops == 0) return 0.0;
  return it->second.self_s / static_cast<double>(it->second.ops);
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_s[s.parent] += s.end - s.start;
  }
  SpanSummary summary;
  std::map<std::string, std::vector<std::int64_t>> ops_by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    double sched = 0.0;
    for (const auto& [key, value] : s.args)
      if (std::string_view(key) == "sched_s") sched += value;
    const double total = s.end - s.start;
    const double self = total - child_s[i] - sched;
    SpanTotals& t = summary.by_name[s.name];
    t.self_s += self;
    auto& ops = ops_by_name[s.name];
    if (ops.empty() || ops.back() != s.op) ops.push_back(s.op);
    if (s.op < 0) continue;
    if (s.parent < 0) {
      summary.op_s += total;
      summary.unattributed_s += self;
      continue;
    }
    const std::string name = s.name;
    summary.module_self_s[name.substr(0, name.find('.'))] += self;
    summary.module_self_s["sched"] += sched;
  }
  for (auto& [name, ops] : ops_by_name) {
    std::sort(ops.begin(), ops.end());
    ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
    summary.by_name[name].ops = ops.size();
  }
  return summary;
}

}  // namespace simmr::e2e
