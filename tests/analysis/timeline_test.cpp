// `simmr_analyze timeline`: loading simmr.timeseries.v1 documents and the
// straggler-window detection over per-window duration percentiles.
#include "analysis/timeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace simmr::analysis {
namespace {

/// Writes `content` to a temp file named after the running test and
/// `name`: ctest runs each test as its own process, often in parallel, so
/// two tests must never share a path.
std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path =
      testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  std::ofstream out(path);
  out << content;
  return path;
}

const char kHeader[] =
    "{\"schema\":\"simmr.timeseries.v1\",\"tool\":\"simmr_replay\","
    "\"scenario\":\"policy=FIFO\",\"simulator\":\"simmr\",\"window_s\":60}\n";

TEST(Timeline, LoadsHeaderAndWindows) {
  const std::string path = WriteTemp(
      "timeline_load.jsonl",
      std::string(kHeader) +
          "{\"window\":0,\"t0\":0,\"t1\":60,\"events\":10,"
          "\"queue_depth\":4,\"queue_depth_max\":9,\"jobs_active\":2,"
          "\"running_maps\":3,\"maps_completed\":5,"
          "\"map_utilization\":0.75,\"reduce_utilization\":0.5,"
          "\"map_duration_p50\":10,\"map_duration_p95\":20,"
          "\"map_duration_p99\":25}\n"
          "{\"window\":1,\"t0\":60,\"t1\":90,\"partial\":true,"
          "\"events\":2}\n");
  const Timeline t = LoadTimeline(path);
  EXPECT_EQ(t.tool, "simmr_replay");
  EXPECT_EQ(t.simulator, "simmr");
  EXPECT_DOUBLE_EQ(t.window_s, 60.0);
  ASSERT_EQ(t.windows.size(), 2u);
  EXPECT_EQ(t.windows[0].events, 10u);
  EXPECT_DOUBLE_EQ(t.windows[0].queue_depth_max, 9.0);
  EXPECT_TRUE(t.windows[0].has_utilization);
  EXPECT_DOUBLE_EQ(t.windows[0].map_utilization, 0.75);
  EXPECT_TRUE(t.windows[0].has_map_durations);
  EXPECT_FALSE(t.windows[0].has_reduce_durations);
  EXPECT_FALSE(t.windows[0].partial);
  EXPECT_TRUE(t.windows[1].partial);
  EXPECT_FALSE(t.windows[1].has_utilization);
  std::remove(path.c_str());
}

TEST(Timeline, RejectsMissingFileBadSchemaAndMalformedLines) {
  EXPECT_THROW(LoadTimeline("/no/such/file.jsonl"), std::runtime_error);
  const std::string bad_schema = WriteTemp(
      "timeline_bad_schema.jsonl", "{\"schema\":\"simmr.eventlog.v1\"}\n");
  EXPECT_THROW(LoadTimeline(bad_schema), std::runtime_error);
  const std::string bad_json =
      WriteTemp("timeline_bad_json.jsonl",
                std::string(kHeader) + "{not json}\n");
  try {
    LoadTimeline(bad_json);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    // The error names the file and line.
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
  const std::string empty = WriteTemp("timeline_empty.jsonl", "");
  EXPECT_THROW(LoadTimeline(empty), std::runtime_error);
  std::remove(bad_schema.c_str());
  std::remove(bad_json.c_str());
  std::remove(empty.c_str());
}

/// The error LoadTimeline raises on a document whose second line is
/// `window`, or "" when it loads.
std::string LoadError(const std::string& window) {
  const std::string path =
      WriteTemp("timeline_strict.jsonl", std::string(kHeader) + window + "\n");
  std::string error;
  try {
    LoadTimeline(path);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

void ExpectRejected(const std::string& window, const std::string& what) {
  const std::string error = LoadError(window);
  EXPECT_NE(error.find("timeline_strict.jsonl:2:"), std::string::npos)
      << window << " -> " << (error.empty() ? "loaded" : error);
  EXPECT_NE(error.find(what), std::string::npos) << error;
}

TEST(Timeline, CountsAndWindowIndicesMustBeWholeAndNonNegative) {
  ExpectRejected("{\"window\":4.9,\"t0\":0,\"t1\":60}",
                 "'window': expected a non-negative integer");
  ExpectRejected("{\"window\":0,\"events\":-7}",
                 "'events': expected a non-negative integer");
  ExpectRejected("{\"window\":0,\"events\":1e30}",
                 "'events': expected a non-negative integer");
  ExpectRejected("{\"window\":0,\"jobs_active\":9007199254740993}",
                 "'jobs_active': 9007199254740993 is not in");
  ExpectRejected("{\"window\":0,\"task_failures\":\"3\"}",
                 "'task_failures': expected a non-negative integer");
  EXPECT_EQ(LoadError("{\"window\":9007199254740992,\"events\":0}"), "");
}

TEST(Timeline, WindowKeysAreTheWritersOnceEach) {
  ExpectRejected("{\"window\":0,\"events\":1,\"events\":2}",
                 "duplicate key 'events'");
  ExpectRejected("{\"window\":0,\"mystery\":1}",
                 "unknown key 'mystery' in a window");
  ExpectRejected("{\"window\":0,\"partial\":1}",
                 "'partial': expected true or false");
  ExpectRejected("{\"window\":0,\"t0\":01}", "malformed number");
  ExpectRejected("{\"window\":0,\"metrics\":[1]}",
                 "expected a string, number, true, false or object");
  ExpectRejected("{\"window\":0} trailing", "trailing bytes");
}

TEST(Timeline, SkipsTheMetricsSnapshotAndReadsQuotedNonFinite) {
  const std::string path = WriteTemp(
      "timeline_metrics.jsonl",
      std::string(kHeader) +
          "{\"window\":0,\"t0\":0,\"t1\":60,\"events\":3,"
          "\"queue_depth\":\"+Inf\",\"metrics\":{\"a{b=\\\"c\\\"}\":1,"
          "\"wall\":\"NaN\"}}\n");
  const Timeline t = LoadTimeline(path);
  ASSERT_EQ(t.windows.size(), 1u);
  EXPECT_EQ(t.windows[0].events, 3u);
  EXPECT_TRUE(std::isinf(t.windows[0].queue_depth));
  std::remove(path.c_str());
}

Timeline StragglerFixture() {
  Timeline t;
  t.tool = "simmr_replay";
  t.scenario = "policy=FIFO";
  t.simulator = "simmr";
  t.window_s = 60.0;
  // Window 0: tight distribution — not a straggler window.
  TimelineWindow tight;
  tight.index = 0;
  tight.t0 = 0.0;
  tight.t1 = 60.0;
  tight.maps_completed = 20;
  tight.has_map_durations = true;
  tight.map_p50 = 10.0;
  tight.map_p95 = 12.0;
  tight.map_p99 = 15.0;
  t.windows.push_back(tight);
  // Window 1: p99 5x the median with enough completions — a straggler.
  TimelineWindow skewed = tight;
  skewed.index = 1;
  skewed.t0 = 60.0;
  skewed.t1 = 120.0;
  skewed.map_p99 = 50.0;
  t.windows.push_back(skewed);
  // Window 2: same skew but too few completions to call.
  TimelineWindow thin = skewed;
  thin.index = 2;
  thin.t0 = 120.0;
  thin.t1 = 180.0;
  thin.maps_completed = 2;
  t.windows.push_back(thin);
  // Window 3: skewed reduces.
  TimelineWindow reduces;
  reduces.index = 3;
  reduces.t0 = 180.0;
  reduces.t1 = 240.0;
  reduces.reduces_completed = 10;
  reduces.has_reduce_durations = true;
  reduces.reduce_p50 = 100.0;
  reduces.reduce_p95 = 200.0;
  reduces.reduce_p99 = 400.0;
  t.windows.push_back(reduces);
  return t;
}

TEST(Timeline, FindsStragglerWindows) {
  const Timeline t = StragglerFixture();
  TimelineOptions opt;  // factor 3, min 5 completions
  const auto stragglers = FindStragglerWindows(t, opt);
  ASSERT_EQ(stragglers.size(), 2u);
  EXPECT_EQ(stragglers[0].window, 1);
  EXPECT_EQ(stragglers[0].kind, "map");
  EXPECT_DOUBLE_EQ(stragglers[0].ratio, 5.0);
  EXPECT_EQ(stragglers[1].window, 3);
  EXPECT_EQ(stragglers[1].kind, "reduce");
  EXPECT_DOUBLE_EQ(stragglers[1].ratio, 4.0);
}

TEST(Timeline, StragglerThresholdsAreTunable) {
  const Timeline t = StragglerFixture();
  TimelineOptions strict;
  strict.straggler_factor = 6.0;
  EXPECT_TRUE(FindStragglerWindows(t, strict).empty());
  TimelineOptions loose;
  loose.min_completions = 1;
  EXPECT_EQ(FindStragglerWindows(t, loose).size(), 3u);
}

TEST(Timeline, TextRenderListsWindowsAndStragglers) {
  const Timeline t = StragglerFixture();
  TimelineOptions opt;
  const std::string text = RenderTimeline(t, opt);
  EXPECT_NE(text.find("tool=simmr_replay"), std::string::npos);
  EXPECT_NE(text.find("straggler windows"), std::string::npos);
  EXPECT_NE(text.find("reduce"), std::string::npos);
  // No utilization fields in the fixture: the render says why.
  EXPECT_NE(text.find("no utilization columns"), std::string::npos);
}

TEST(Timeline, TextRenderWithoutStragglersSaysNone) {
  Timeline t = StragglerFixture();
  t.windows.resize(1);  // keep only the tight window
  TimelineOptions opt;
  const std::string text = RenderTimeline(t, opt);
  EXPECT_NE(text.find("none"), std::string::npos);
}

TEST(Timeline, JsonRenderEmitsTimelineSchema) {
  const Timeline t = StragglerFixture();
  TimelineOptions opt;
  opt.json = true;
  const std::string json = RenderTimeline(t, opt);
  EXPECT_EQ(json.find("{\"schema\":\"simmr.timeline.v1\""), 0u);
  EXPECT_NE(json.find("\"windows\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"stragglers\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"map\""), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":5"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace simmr::analysis
