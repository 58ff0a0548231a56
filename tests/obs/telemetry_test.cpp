#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

namespace simmr::obs {
namespace {

TEST(RunTelemetry, MakeDerivesEventsPerSecondAndRss) {
  const RunTelemetry t = MakeRunTelemetry("simmr_replay", "policy=fifo",
                                          /*wall_seconds=*/2.0,
                                          /*events=*/1000, /*jobs=*/5,
                                          /*makespan_s=*/123.5,
                                          /*peak_queue_depth=*/17);
  EXPECT_EQ(t.tool, "simmr_replay");
  EXPECT_EQ(t.scenario, "policy=fifo");
  EXPECT_DOUBLE_EQ(t.events_per_second, 500.0);
  EXPECT_EQ(t.peak_queue_depth, 17u);
  EXPECT_EQ(t.jobs, 5u);
  EXPECT_DOUBLE_EQ(t.makespan_s, 123.5);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(t.max_rss_kb, 0);
#endif
}

TEST(RunTelemetry, ZeroWallTimeYieldsZeroRate) {
  const RunTelemetry t =
      MakeRunTelemetry("t", "s", /*wall_seconds=*/0.0, /*events=*/1000,
                       /*jobs=*/1, /*makespan_s=*/0.0);
  EXPECT_DOUBLE_EQ(t.events_per_second, 0.0);
}

TEST(RunTelemetry, ToJsonGolden) {
  RunTelemetry t;
  t.tool = "simmr_replay";
  t.scenario = "jobs=50 \"quoted\"";
  t.wall_seconds = 0.25;
  t.events_processed = 4000;
  t.events_per_second = 16000.0;
  t.peak_queue_depth = 9;
  t.jobs = 50;
  t.makespan_s = 1234.5;
  t.max_rss_kb = 2048;
  EXPECT_EQ(t.ToJson(),
            "{\"schema\":\"simmr.telemetry.v1\","
            "\"tool\":\"simmr_replay\","
            "\"scenario\":\"jobs=50 \\\"quoted\\\"\","
            "\"wall_seconds\":0.25,\"wall_ms\":250,"
            "\"events_processed\":4000,\"events_per_second\":16000,"
            "\"peak_queue_depth\":9,\"jobs\":50,\"makespan_s\":1234.5,"
            "\"max_rss_kb\":2048}");
}

TEST(RunTelemetry, WriteFileAppendsNewline) {
  RunTelemetry t;
  t.tool = "x";
  const std::string path = ::testing::TempDir() + "/telemetry_test_out.json";
  WriteTelemetryFile(path, t);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, t.ToJson() + "\n");
  EXPECT_THROW(WriteTelemetryFile("/no/such/dir/t.json", t),
               std::runtime_error);
}

TEST(RunTelemetry, QueryMaxRssIsPositiveOnUnix) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(QueryMaxRssKb(), 0);
#else
  EXPECT_EQ(QueryMaxRssKb(), -1);
#endif
}

}  // namespace
}  // namespace simmr::obs
