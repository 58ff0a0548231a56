// EventLogObserver + simmr.eventlog.v1 format tests: lossless round-trip,
// exact double formatting, kill-path accounting under preemptive MaxEDF,
// job-id offsets, and the strict reader's located parse errors.
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/simmr.h"
#include "obs/metrics.h"
#include "obs/metrics_observer.h"
#include "sched/fifo.h"
#include "sched/preemptive_maxedf.h"

namespace simmr::obs {
namespace {

trace::JobProfile UniformProfile(int num_maps, int num_reduces) {
  trace::JobProfile p;
  p.app_name = "uniform";
  p.num_maps = num_maps;
  p.num_reduces = num_reduces;
  p.map_durations.assign(num_maps, 10.0);
  p.first_shuffle_durations.assign(1, 3.0);
  if (num_reduces > 1)
    p.typical_shuffle_durations.assign(num_reduces - 1, 5.0);
  p.reduce_durations.assign(num_reduces, 2.0);
  return p;
}

trace::WorkloadTrace SmallWorkload() {
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile(6, 2);
  w[0].deadline = 300.0;
  w[1].profile = UniformProfile(4, 2);
  w[1].arrival = 5.0;
  return w;
}

/// Job 0 hoards every reduce slot with fillers; job 1 is urgent and small,
/// so preemptive MaxEDF kills job 0 fillers (same scenario as the
/// scheduler's own preemption tests).
trace::WorkloadTrace HoardingScenario() {
  trace::WorkloadTrace w(2);
  w[0].profile = UniformProfile(64, 4);
  w[0].arrival = 0.0;
  w[0].deadline = 10000.0;
  w[1].profile = UniformProfile(8, 2);
  w[1].arrival = 30.0;
  w[1].deadline = 150.0;
  return w;
}

EventLogObserver RecordRun(const trace::WorkloadTrace& workload,
                           core::SimConfig cfg) {
  EventLogObserver log;
  cfg.observer = &log;
  cfg.record_tasks = true;
  sched::FifoPolicy fifo;
  core::Replay(workload, fifo, cfg);
  return log;
}

TEST(ExactJsonNumber, RoundTripsBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           1.0 / 3.0,
                           0.1,
                           2.0 / 3.0,
                           1e-300,
                           1e300,
                           12345.678901234567,
                           std::nextafter(1.0, 2.0),
                           4503599627370495.5,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    const std::string text = ExactJsonNumber(v);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0)
        << "value " << v << " rendered as " << text;
  }
}

TEST(ExactJsonNumber, NonFiniteRendersAsQuotedString) {
  EXPECT_EQ(ExactJsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "\"NaN\"");
  EXPECT_EQ(ExactJsonNumber(std::numeric_limits<double>::infinity()),
            "\"+Inf\"");
  EXPECT_EQ(ExactJsonNumber(-std::numeric_limits<double>::infinity()),
            "\"-Inf\"");
}

TEST(EventLog, RoundTripPreservesEveryEvent) {
  core::SimConfig cfg;
  cfg.map_slots = 3;
  cfg.reduce_slots = 2;
  const EventLogObserver log = RecordRun(SmallWorkload(), cfg);
  ASSERT_GT(log.event_count(), 0u);

  const EventLogHeader header{"test", "small", "simmr"};
  const std::string jsonl = log.ToJsonl(header);
  std::istringstream in(jsonl);
  const EventLog parsed = ParseEventLog(in);

  EXPECT_EQ(parsed.header.tool, "test");
  EXPECT_EQ(parsed.header.scenario, "small");
  EXPECT_EQ(parsed.header.simulator, "simmr");
  ASSERT_EQ(parsed.events.size(), log.events().size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i], log.events()[i]) << "event " << i;
  }
}

TEST(EventLog, SerializationIsAFixedPoint) {
  // serialize(parse(x)) == x: nothing is lost or reformatted on re-emit.
  core::SimConfig cfg;
  cfg.map_slots = 2;
  cfg.reduce_slots = 2;
  const EventLogObserver log = RecordRun(SmallWorkload(), cfg);
  const std::string jsonl = log.ToJsonl({"t", "s", "simmr"});
  std::istringstream in(jsonl);
  const EventLog parsed = ParseEventLog(in);
  EXPECT_EQ(SerializeEventLog(parsed), jsonl);
}

TEST(EventLog, CompletionTimingsSurviveBitExactly) {
  core::SimConfig cfg;
  cfg.map_slots = 3;
  cfg.reduce_slots = 2;
  const EventLogObserver log = RecordRun(SmallWorkload(), cfg);
  const std::string jsonl = log.ToJsonl({"t", "s", "simmr"});
  std::istringstream in(jsonl);
  const EventLog parsed = ParseEventLog(in);

  std::size_t completions = 0;
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    const LogEvent& a = log.events()[i];
    const LogEvent& b = parsed.events[i];
    if (a.kind != LogEvent::Kind::kTaskCompletion) continue;
    ++completions;
    // Bit-exact, not approximately equal.
    EXPECT_EQ(std::memcmp(&a.timing.start, &b.timing.start, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.timing.shuffle_end, &b.timing.shuffle_end,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.timing.end, &b.timing.end, sizeof(double)), 0);
  }
  EXPECT_GE(completions, 6u + 2u + 4u + 2u);
}

TEST(EventLog, KillsAreCountedDistinctlyFromCompletions) {
  MetricsRegistry registry;
  MetricsObserver metrics(registry);
  EventLogObserver log;
  MulticastObserver multicast;
  multicast.Add(&metrics);
  multicast.Add(&log);

  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 4;
  cfg.allow_filler_preemption = true;
  cfg.observer = &multicast;
  sched::PreemptiveMaxEdfPolicy preemptive;
  core::Replay(HoardingScenario(), preemptive, cfg);

  // The urgent job forces filler kills; kills are recorded as failed
  // completions, never as successes.
  EXPECT_GT(log.killed(TaskKind::kReduce), 0u);
  EXPECT_EQ(log.killed(TaskKind::kMap), 0u);
  EXPECT_EQ(log.completed(TaskKind::kMap), 64u + 8u);
  // Killed fillers relaunch later under the same index, so successful
  // reduce completions still total the workload's reduce count.
  EXPECT_EQ(log.completed(TaskKind::kReduce), 4u + 2u);

  // The metrics observer saw the same stream and must agree.
  const std::string text = registry.PrometheusText();
  const std::string failures = "simmr_task_failures_total{kind=\"reduce\"} " +
                               std::to_string(log.killed(TaskKind::kReduce)) +
                               "\n";
  EXPECT_NE(text.find(failures), std::string::npos) << text;
  // simmr_tasks_completed_total counts attempts *finished* (successful or
  // killed); the event log's completed() counts successes only. The two
  // views reconcile through the kill counter.
  const std::string completed = "simmr_tasks_completed_total{kind=\"reduce\"} " +
                                std::to_string(log.completed(TaskKind::kReduce) +
                                               log.killed(TaskKind::kReduce)) +
                                "\n";
  EXPECT_NE(text.find(completed), std::string::npos) << text;

  // And the recorded events themselves carry succeeded=false for exactly
  // the killed attempts.
  std::uint64_t failed_events = 0;
  for (const LogEvent& ev : log.events()) {
    if (ev.kind == LogEvent::Kind::kTaskCompletion && !ev.succeeded)
      ++failed_events;
  }
  EXPECT_EQ(failed_events, log.killed(TaskKind::kReduce));
}

TEST(EventLog, KillPathSurvivesRoundTrip) {
  EventLogObserver log;
  core::SimConfig cfg;
  cfg.map_slots = 8;
  cfg.reduce_slots = 4;
  cfg.allow_filler_preemption = true;
  cfg.observer = &log;
  sched::PreemptiveMaxEdfPolicy preemptive;
  core::Replay(HoardingScenario(), preemptive, cfg);
  ASSERT_GT(log.killed(TaskKind::kReduce), 0u);

  const std::string jsonl = log.ToJsonl({"t", "kill", "simmr"});
  std::istringstream in(jsonl);
  const EventLog parsed = ParseEventLog(in);
  std::uint64_t failed = 0;
  for (const LogEvent& ev : parsed.events) {
    if (ev.kind == LogEvent::Kind::kTaskCompletion && !ev.succeeded) ++failed;
  }
  EXPECT_EQ(failed, log.killed(TaskKind::kReduce));
}

TEST(EventLog, JobIdOffsetShiftsEveryJobScopedEvent) {
  EventLogObserver log;
  log.set_job_id_offset(100);
  core::SimConfig cfg;
  cfg.map_slots = 2;
  cfg.reduce_slots = 2;
  cfg.observer = &log;
  sched::FifoPolicy fifo;
  trace::WorkloadTrace w(1);
  w[0].profile = UniformProfile(2, 1);
  core::Replay(w, fifo, cfg);

  for (const LogEvent& ev : log.events()) {
    switch (ev.kind) {
      case LogEvent::Kind::kJobArrival:
      case LogEvent::Kind::kJobCompletion:
      case LogEvent::Kind::kTaskLaunch:
      case LogEvent::Kind::kPhaseTransition:
      case LogEvent::Kind::kTaskCompletion:
        EXPECT_EQ(ev.job, 100);
        break;
      case LogEvent::Kind::kSchedulerDecision:
        // Idle decisions stay negative; chosen ones are offset.
        if (ev.job >= 0) {
          EXPECT_EQ(ev.job, 100);
        }
        break;
      case LogEvent::Kind::kDequeue:
        break;
      case LogEvent::Kind::kFault:
        if (ev.job >= 0) {
          EXPECT_EQ(ev.job, 100);
        }
        break;
    }
  }
}

TEST(EventLog, ClearDropsEventsAndCounters) {
  core::SimConfig cfg;
  cfg.map_slots = 2;
  cfg.reduce_slots = 2;
  EventLogObserver log = RecordRun(SmallWorkload(), cfg);
  ASSERT_GT(log.event_count(), 0u);
  log.Clear();
  EXPECT_EQ(log.event_count(), 0u);
  EXPECT_EQ(log.completed(TaskKind::kMap), 0u);
  EXPECT_EQ(log.completed(TaskKind::kReduce), 0u);
  EXPECT_EQ(log.killed(TaskKind::kReduce), 0u);
}

TEST(EventLog, DequeueRecordingCanBeDisabled) {
  EventLogObserver::Options options;
  options.record_dequeues = false;
  EventLogObserver log(options);
  core::SimConfig cfg;
  cfg.map_slots = 2;
  cfg.reduce_slots = 2;
  cfg.observer = &log;
  sched::FifoPolicy fifo;
  core::Replay(SmallWorkload(), fifo, cfg);

  ASSERT_GT(log.event_count(), 0u);
  for (const LogEvent& ev : log.events()) {
    EXPECT_NE(ev.kind, LogEvent::Kind::kDequeue);
  }
}

TEST(EventLog, ParseRejectsWrongSchema) {
  std::istringstream in(
      "{\"schema\":\"simmr.telemetry.v1\",\"tool\":\"x\"}\n");
  EXPECT_THROW(ParseEventLog(in), std::runtime_error);
}

TEST(EventLog, ParseRejectsMalformedLine) {
  std::istringstream in(
      "{\"schema\":\"simmr.eventlog.v1\",\"tool\":\"t\",\"scenario\":\"s\","
      "\"simulator\":\"m\"}\n"
      "{\"k\":\"dequeue\",\"t\":not-a-number}\n");
  EXPECT_THROW(ParseEventLog(in), std::runtime_error);
}

TEST(EventLog, ParseRejectsUnknownEventKind) {
  std::istringstream in(
      "{\"schema\":\"simmr.eventlog.v1\",\"tool\":\"t\",\"scenario\":\"s\","
      "\"simulator\":\"m\"}\n"
      "{\"k\":\"teleport\",\"t\":1}\n");
  EXPECT_THROW(ParseEventLog(in), std::runtime_error);
}

const char kHeaderLine[] =
    "{\"schema\":\"simmr.eventlog.v1\",\"tool\":\"t\",\"scenario\":\"s\","
    "\"simulator\":\"m\"}\n";

/// The error ParseEventLog raises on a log whose second line is `line`,
/// or "" when it accepts it.
std::string ParseError(const std::string& line) {
  std::istringstream in(kHeaderLine + line + "\n");
  try {
    ParseEventLog(in, "run.jsonl");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Expects the line to be rejected with "run.jsonl:2:<offset>: ...".
void ExpectRejectedAt(const std::string& line, std::size_t offset,
                      const std::string& what) {
  const std::string error = ParseError(line);
  const std::string where = "run.jsonl:2:" + std::to_string(offset) + ": ";
  EXPECT_EQ(error.substr(0, where.size()), where)
      << line << " -> " << (error.empty() ? "accepted" : error);
  EXPECT_NE(error.find(what), std::string::npos) << error;
}

TEST(EventLogStrict, IntegerFieldsRejectFractions) {
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":3.7}", 28,
                   "'job': expected an integer");
  ExpectRejectedAt(
      "{\"k\":\"launch\",\"t\":1,\"job\":0,\"kind\":\"map\",\"index\":-2.5}",
      49, "'index': expected an integer");
}

TEST(EventLogStrict, IntegerFieldsRejectValuesOutOfRange) {
  // Past int32 the old reader cast a double out of range: undefined.
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":1e20}", 28,
                   "'job': expected an integer");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":2147483648}", 28,
                   "'job': 2147483648 is not in [-2147483648, 2147483647]");
  ExpectRejectedAt(
      "{\"k\":\"dequeue\",\"t\":1,\"type\":\"HEARTBEAT\",\"depth\":-1}", 48,
      "'depth': expected a non-negative integer");
}

TEST(EventLogStrict, RejectsTrailingBytesAfterTheObject) {
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":3}x", 30,
                   "trailing bytes after the object");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":3}{}", 30,
                   "trailing bytes after the object");
  // Whitespace, a CR from a CRLF file included, is not a trailing byte.
  EXPECT_EQ(ParseError("{\"k\":\"job_done\",\"t\":1,\"job\":3} \r"), "");
}

TEST(EventLogStrict, NumbersFollowTheJsonGrammar) {
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":0x10,\"job\":3}", 20,
                   "malformed number");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":inf,\"job\":3}", 20,
                   "expected a string, number, true or false");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":.5,\"job\":3}", 20,
                   "expected a string, number, true or false");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":01,\"job\":3}", 20,
                   "malformed number");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1.,\"job\":3}", 20,
                   "malformed number");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1e999,\"job\":3}", 20,
                   "out of the double range");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":\"inf\",\"job\":3}", 20,
                   "'t': expected a number");
}

TEST(EventLogStrict, RejectsDuplicateKeys) {
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":3,\"job\":4}", 30,
                   "duplicate key 'job'");
  ExpectRejectedAt("{\"k\":\"job_done\",\"k\":\"job_done\",\"t\":1,\"job\":3}",
                   16, "duplicate key 'k'");
}

TEST(EventLogStrict, RejectsValuesOfTheWrongType) {
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":true}", 28,
                   "'job': expected an integer");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":\"3\"}", 28,
                   "'job': expected an integer");
  ExpectRejectedAt(
      "{\"k\":\"task_done\",\"t\":1,\"job\":0,\"kind\":\"map\",\"index\":0,"
      "\"start\":0,\"shuffle_end\":0,\"end\":1,\"ok\":1}",
      93, "'ok': expected true or false");
  ExpectRejectedAt("{\"k\":7,\"t\":1,\"job\":3}", 5, "'k': expected a string");
}

TEST(EventLogStrict, RejectsUnknownAndMissingKeys) {
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1,\"job\":3,\"extra\":0}", 30,
                   "unknown key 'extra' in a job_done record");
  ExpectRejectedAt("{\"k\":\"job_done\",\"t\":1}", 22,
                   "missing key 'job' in a job_done record");
  ExpectRejectedAt("{\"t\":1,\"job\":3}", 15, "missing key 'k'");
  ExpectRejectedAt("{\"k\":\"launch\",\"t\":1,\"job\":0,\"kind\":\"gpu\","
                   "\"index\":0}",
                   35, "unknown task kind 'gpu'");
}

TEST(EventLogStrict, HeaderKeysAreFixedToo) {
  std::istringstream extra(
      "{\"schema\":\"simmr.eventlog.v1\",\"tool\":\"t\",\"scenario\":\"s\","
      "\"simulator\":\"m\",\"host\":\"x\"}\n");
  EXPECT_THROW(ParseEventLog(extra), std::runtime_error);
  std::istringstream missing("{\"schema\":\"simmr.eventlog.v1\"}\n");
  EXPECT_THROW(ParseEventLog(missing), std::runtime_error);
  std::istringstream empty("");
  EXPECT_THROW(ParseEventLog(empty), std::runtime_error);
}

TEST(EventLogStrict, QuotedNonFiniteDoublesRoundTrip) {
  EventLog log;
  log.header = {"t", "s", "simmr"};
  LogEvent arrival;
  arrival.kind = LogEvent::Kind::kJobArrival;
  arrival.t = std::numeric_limits<double>::infinity();
  arrival.job = 0;
  arrival.name = "job";
  arrival.deadline = std::numeric_limits<double>::quiet_NaN();
  log.events.push_back(arrival);
  LogEvent done;
  done.kind = LogEvent::Kind::kTaskCompletion;
  done.t = 5.0;
  done.job = 0;
  done.timing = {-std::numeric_limits<double>::infinity(), 1.0,
                 std::numeric_limits<double>::infinity()};
  done.succeeded = false;
  log.events.push_back(done);

  const std::string jsonl = SerializeEventLog(log);
  EXPECT_NE(jsonl.find("\"t\":\"+Inf\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"deadline\":\"NaN\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"start\":\"-Inf\""), std::string::npos);
  std::istringstream in(jsonl);
  const EventLog parsed = ParseEventLog(in);
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_TRUE(std::isinf(parsed.events[0].t));
  EXPECT_TRUE(std::isnan(parsed.events[0].deadline));
  EXPECT_EQ(parsed.events[1], done);
  EXPECT_EQ(SerializeEventLog(parsed), jsonl);
}

TEST(EventLogStrict, FileErrorsNameThePath) {
  const std::string path = testing::TempDir() + "event_log_strict.jsonl";
  {
    std::ofstream out(path);
    out << kHeaderLine << "{\"k\":\"job_done\",\"t\":1,\"job\":3}\n\n"
        << "{\"k\":\"job_done\",\"t\":1,\"job\":3.5}\n";
  }
  try {
    ReadEventLogFile(path);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).substr(0, path.size() + 6),
              path + ":4:28:");
  }
  std::remove(path.c_str());
}

TEST(EventLog, EscapedJobNamesRoundTrip) {
  EventLog log;
  log.header = {"tool \"quoted\"", "scenario\nnewline", "simmr"};
  LogEvent ev;
  ev.kind = LogEvent::Kind::kJobArrival;
  ev.t = 1.5;
  ev.job = 0;
  ev.name = "app \"x\"\t\\backslash";
  ev.deadline = 10.0;
  log.events.push_back(ev);

  const std::string jsonl = SerializeEventLog(log);
  std::istringstream in(jsonl);
  const EventLog parsed = ParseEventLog(in);
  EXPECT_EQ(parsed.header.tool, log.header.tool);
  EXPECT_EQ(parsed.header.scenario, log.header.scenario);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_STREQ(parsed.events[0].name, ev.name);
}

TEST(EventLog, RecordIsTriviallyCopyable) {
  // The recording hot path depends on this: appending an event must be a
  // fixed-size copy, never a string construction.
  static_assert(std::is_trivially_copyable_v<LogEvent>);
}

TEST(LogEventKind, NameParseRoundTripsEveryKind) {
  // The writer's names and the parser's names come from one table; a kind
  // added without a name (or vice versa) fails here.
  const int num_kinds = static_cast<int>(LogEvent::Kind::kSchedulerDecision);
  for (int i = 0; i <= num_kinds; ++i) {
    const auto kind = static_cast<LogEvent::Kind>(i);
    const char* name = LogEventKindName(kind);
    ASSERT_STRNE(name, "?") << "kind " << i;
    const auto parsed = ParseLogEventKind(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind) << name;
  }
}

TEST(LogEventKind, UnknownNameParsesToNullopt) {
  EXPECT_FALSE(ParseLogEventKind("").has_value());
  EXPECT_FALSE(ParseLogEventKind("no_such_kind").has_value());
  EXPECT_FALSE(ParseLogEventKind("DEQUEUE").has_value());  // wrong case
}

}  // namespace
}  // namespace simmr::obs
