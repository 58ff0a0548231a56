#include "fuzz/repro.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/job_profile.h"

namespace simmr::fuzz {
namespace {

Reproducer SampleReproducer() {
  Reproducer repro;
  repro.master_seed = 0xABCDEF0123456789ULL;
  repro.fault = {FaultMode::kDropCompletion, 7};
  repro.spec.policy = "maxedf";
  repro.spec.map_slots = 13;
  repro.spec.reduce_slots = 5;
  repro.spec.slowstart = 0.05;
  repro.spec.record_tasks = true;
  repro.spec.num_jobs = 4;
  repro.spec.mean_interarrival_s = 10.0;
  repro.spec.arrival_scale = 0.25;
  repro.spec.deadline_factor = 1.5;
  repro.spec.seed = 0x123456789ABCDEF0ULL;
  repro.note = "[slot-conservation] t=3: something leaked";

  trace::JobProfile p;
  p.app_name = "repro";
  p.dataset = "job0";
  p.num_maps = 2;
  p.num_reduces = 2;
  // Awkward doubles: round-tripping them exactly is the whole point.
  p.map_durations = {0.1, 1.0 / 3.0};
  p.first_shuffle_durations = {5.9386992994495396};
  p.typical_shuffle_durations = {0.86704888618407205};
  p.reduce_durations = {2.5081061374475939};
  repro.pool.push_back(p);
  return repro;
}

TEST(Reproducer, RoundTripsBitExactly) {
  const Reproducer original = SampleReproducer();
  std::ostringstream first;
  WriteReproducer(first, original);

  std::istringstream in(first.str());
  const Reproducer read = ReadReproducer(in);
  EXPECT_EQ(read.master_seed, original.master_seed);
  EXPECT_EQ(read.fault.mode, original.fault.mode);
  EXPECT_EQ(read.fault.trigger, original.fault.trigger);
  EXPECT_EQ(read.spec.policy, original.spec.policy);
  EXPECT_EQ(read.spec.map_slots, original.spec.map_slots);
  EXPECT_EQ(read.spec.reduce_slots, original.spec.reduce_slots);
  EXPECT_EQ(read.spec.slowstart, original.spec.slowstart);
  EXPECT_EQ(read.spec.record_tasks, original.spec.record_tasks);
  EXPECT_EQ(read.spec.num_jobs, original.spec.num_jobs);
  EXPECT_EQ(read.spec.mean_interarrival_s,
            original.spec.mean_interarrival_s);
  EXPECT_EQ(read.spec.arrival_scale, original.spec.arrival_scale);
  EXPECT_EQ(read.spec.deadline_factor, original.spec.deadline_factor);
  EXPECT_EQ(read.spec.seed, original.spec.seed);
  EXPECT_EQ(read.note, original.note);
  ASSERT_EQ(read.pool.size(), original.pool.size());
  EXPECT_EQ(read.pool[0], original.pool[0]);  // doubles bit-identical

  // Stability: re-serializing the parsed form reproduces the same bytes.
  std::ostringstream second;
  WriteReproducer(second, read);
  EXPECT_EQ(second.str(), first.str());
}

TEST(Reproducer, FlattensMultilineNotes) {
  Reproducer repro = SampleReproducer();
  repro.note = "line one\nline two";
  std::ostringstream out;
  WriteReproducer(out, repro);
  std::istringstream in(out.str());
  EXPECT_EQ(ReadReproducer(in).note, "line one line two");
}

TEST(Reproducer, EmptyPoolRoundTrips) {
  Reproducer repro = SampleReproducer();
  repro.pool.clear();
  std::ostringstream out;
  WriteReproducer(out, repro);
  std::istringstream in(out.str());
  EXPECT_TRUE(ReadReproducer(in).pool.empty());
}

TEST(Reproducer, RejectsBadVersionLine) {
  std::istringstream in("simmr.repro.v999\nmaster_seed 1\n");
  EXPECT_THROW(ReadReproducer(in), std::runtime_error);
}

TEST(Reproducer, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(ReadReproducer(in), std::runtime_error);
}

TEST(Reproducer, RejectsTruncatedInput) {
  const Reproducer repro = SampleReproducer();
  std::ostringstream out;
  WriteReproducer(out, repro);
  const std::string full = out.str();
  // Cut inside the spec block: a required field goes missing.
  std::istringstream in(full.substr(0, full.size() / 2));
  EXPECT_THROW(ReadReproducer(in), std::runtime_error);
}

TEST(Reproducer, RejectsUnknownFaultMode) {
  std::istringstream in(
      "simmr.repro.v1\nmaster_seed 1\nfault melt-cpu 1\n");
  EXPECT_THROW(ReadReproducer(in), std::runtime_error);
}

TEST(Reproducer, RejectsMisorderedFields) {
  std::istringstream in(
      "simmr.repro.v1\nfault none 1\nmaster_seed 1\n");
  EXPECT_THROW(ReadReproducer(in), std::runtime_error);
}

/// The error ReadReproducer raises after replacing, in the sample's text,
/// the line that starts with `key` by `line` ("" when it reads).
std::string ErrorWithLine(const std::string& key, const std::string& line) {
  std::ostringstream out;
  WriteReproducer(out, SampleReproducer());
  std::string text = out.str();
  const std::size_t at = text.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t end = text.find('\n', at + 1);
  text.replace(at + 1, end - at - 1, line);
  std::istringstream in(text);
  try {
    ReadReproducer(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void ExpectRejected(const std::string& key, const std::string& line,
                    const std::string& what) {
  const std::string error = ErrorWithLine(key, line);
  EXPECT_NE(error.find(what), std::string::npos)
      << line << " -> " << (error.empty() ? "read" : error);
}

TEST(Reproducer, NumbersAreWholeTokens) {
  ExpectRejected("map_slots", "map_slots 62abc", "bad map_slots '62abc'");
  ExpectRejected("reduce_slots", "reduce_slots  5", "bad reduce_slots ' 5'");
  ExpectRejected("num_jobs", "num_jobs +4", "bad num_jobs '+4'");
  ExpectRejected("num_jobs", "num_jobs 99999999999", "bad num_jobs");
  ExpectRejected("master_seed", "master_seed -1", "bad master_seed '-1'");
  ExpectRejected("engine_seed", "engine_seed 0x12", "bad engine_seed '0x12'");
  ExpectRejected("slowstart", "slowstart 0.05x", "bad slowstart '0.05x'");
  ExpectRejected("arrival_scale", "arrival_scale inf",
                 "bad arrival_scale 'inf'");
  ExpectRejected("deadline_factor", "deadline_factor ",
                 "bad deadline_factor ''");
  ExpectRejected("jobs", "jobs 1 7", "bad jobs '1 7'");
  ExpectRejected("jobs", "jobs -1", "bad jobs '-1'");
  // The untouched sample reads.
  EXPECT_EQ(ErrorWithLine("map_slots", "map_slots 13"), "");
}

TEST(Reproducer, RecordTasksIsZeroOrOne) {
  ExpectRejected("record_tasks", "record_tasks 2", "bad record_tasks '2'");
  ExpectRejected("record_tasks", "record_tasks yes", "bad record_tasks");
  ExpectRejected("record_tasks", "record_tasks", "bad record_tasks ''");
  EXPECT_EQ(ErrorWithLine("record_tasks", "record_tasks 0"), "");
}

TEST(Reproducer, FaultLineIsModeAndTriggerOnly) {
  ExpectRejected("fault", "fault drop-completion 7 9",
                 "bad fault trigger '7 9'");
  ExpectRejected("fault", "fault drop-completion", "bad fault");
  ExpectRejected("fault", "fault drop-completion x", "bad fault trigger 'x'");
  EXPECT_EQ(ErrorWithLine("fault", "fault clock-skew 3"), "");
}

TEST(Reproducer, DeclaredJobCountIsNotTrusted) {
  // A huge declared count with no profiles behind it fails on the first
  // missing profile, naming it, instead of reserving for the count.
  const std::string error = ErrorWithLine("jobs", "jobs 4000000000");
  EXPECT_NE(error.find("profile 1 of 4000000000"), std::string::npos)
      << error;
}

TEST(Reproducer, FileRoundTripAndMissingFile) {
  const std::string path =
      testing::TempDir() + "/repro_test_case.repro";
  const Reproducer repro = SampleReproducer();
  WriteReproducerFile(path, repro);
  const Reproducer read = ReadReproducerFile(path);
  EXPECT_EQ(read.pool, repro.pool);
  EXPECT_THROW(ReadReproducerFile(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace simmr::fuzz
