// In-memory span recorder of the end-to-end benchmark.
//
// Spans wrap calls into the program's public functions from benchmark code
// only; nothing inside the program is instrumented. Each span records its
// name, host start and end, parent, op id and thread. Spans are kept in
// memory and written once, at exit, as Chrome-trace JSON that Perfetto
// opens. A layer's self time is its span minus its children; call-level
// work too fine to record one span per call (the scheduler policy's
// decisions) is attached to its enclosing span as the "sched_s" argument
// and subtracted from that span's self time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace simmr::e2e {

/// Turns recording on for the whole process (the traced run).
void EnableSpans();

class Span {
 public:
  /// Opens a root span for `op` on the calling thread. It records only
  /// when spans are enabled and `record` is set, so a traced run can
  /// interleave untraced ops.
  Span(const char* name, std::int64_t op, bool record);
  /// Opens a child of the calling thread's innermost open span, with its
  /// op id. Records nothing when no recorded span is open.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric argument; a no-op on an unrecorded span.
  void Arg(const char* key, double value);

 private:
  void Open(const char* name, std::int64_t op);
  int index_ = -1;
  int saved_parent_ = -1;
};

struct SpanRecord {
  const char* name = "";
  double start = 0.0;  // host seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;
  std::int64_t op = -1;
  std::uint32_t thread = 0;
  std::vector<std::pair<const char*, double>> args;
};

/// Every recorded span, in opening order (all spans must be closed).
std::vector<SpanRecord> RecordedSpans();

/// Writes the spans as Chrome trace events ("X" slices, microseconds) with
/// op id, parent index and arguments in each slice's args. Throws
/// std::runtime_error when the file cannot be written.
void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

/// Per-name totals over recorded spans.
struct SpanTotals {
  double self_s = 0.0;  // duration minus children and "sched_s"
  std::size_t ops = 0;  // distinct op ids the name occurs in
};

struct SpanSummary {
  std::map<std::string, SpanTotals> by_name;
  double op_s = 0.0;          // summed duration of root spans with op >= 0
  double unattributed_s = 0;  // self time of those root spans
  /// Self time per module (the name's prefix before the first '.'), over
  /// the spans of ops with op >= 0; "sched" collects "sched_s".
  std::map<std::string, double> module_self_s;

  /// Mean self seconds per op for spans named `name` (0 when absent).
  double PerOp(const std::string& name) const;
};

SpanSummary Summarize(const std::vector<SpanRecord>& spans);

}  // namespace simmr::e2e
