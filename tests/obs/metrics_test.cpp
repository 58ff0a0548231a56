#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <stdexcept>

namespace simmr::obs {
namespace {

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.0);
}

TEST(Histogram, BucketsByUpperBoundInclusive) {
  MetricsRegistry r;
  Histogram& h = r.AddHistogram("h", "help", {1.0, 2.0, 4.0});
  h.Observe(0.5);   // <= 1
  h.Observe(1.0);   // <= 1 (bounds are inclusive, Prometheus `le`)
  h.Observe(1.5);   // <= 2
  h.Observe(4.0);   // <= 4
  h.Observe(100.0); // +Inf
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(MetricsRegistry, RejectsBadRegistrations) {
  MetricsRegistry r;
  EXPECT_THROW(r.AddCounter("", "no name"), std::invalid_argument);
  r.AddCounter("c", "help");
  // Same identity twice.
  EXPECT_THROW(r.AddCounter("c", "help"), std::invalid_argument);
  // Same name, different type.
  EXPECT_THROW(r.AddGauge("c", "help"), std::invalid_argument);
  // Same name, different labels: fine.
  EXPECT_NO_THROW(r.AddCounter("c", "help", {{"kind", "map"}}));
  // Histogram bound validation.
  EXPECT_THROW(r.AddHistogram("h", "help", {}), std::invalid_argument);
  EXPECT_THROW(r.AddHistogram("h", "help", {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(r.AddHistogram("h", "help", {2.0, 1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistry, HandlesStayValidAsRegistryGrows) {
  MetricsRegistry r;
  Counter& first = r.AddCounter("first", "help");
  for (int i = 0; i < 100; ++i)
    r.AddCounter("c" + std::to_string(i), "help");
  first.Increment();
  EXPECT_EQ(first.Value(), 1u);
}

TEST(MetricsRegistry, PrometheusTextGolden) {
  MetricsRegistry r;
  Counter& jobs = r.AddCounter("jobs_total", "Jobs seen.");
  jobs.Increment(3);
  Gauge& depth = r.AddGauge("depth", "Queue depth.");
  depth.Set(3.5);
  Histogram& dur = r.AddHistogram("dur", "Durations.", {1.0, 2.0});
  dur.Observe(0.5);
  dur.Observe(1.5);
  dur.Observe(10.0);

  EXPECT_EQ(r.PrometheusText(),
            "# HELP jobs_total Jobs seen.\n"
            "# TYPE jobs_total counter\n"
            "jobs_total 3\n"
            "# HELP depth Queue depth.\n"
            "# TYPE depth gauge\n"
            "depth 3.5\n"
            "# HELP dur Durations.\n"
            "# TYPE dur histogram\n"
            "dur_bucket{le=\"1\"} 1\n"
            "dur_bucket{le=\"2\"} 2\n"
            "dur_bucket{le=\"+Inf\"} 3\n"
            "dur_sum 12\n"
            "dur_count 3\n");
}

TEST(MetricsRegistry, PrometheusEmitsOneHelpBlockPerFamily) {
  MetricsRegistry r;
  r.AddCounter("tasks_total", "Tasks.", {{"kind", "map"}}).Increment(4);
  r.AddCounter("tasks_total", "Tasks.", {{"kind", "reduce"}}).Increment(2);

  EXPECT_EQ(r.PrometheusText(),
            "# HELP tasks_total Tasks.\n"
            "# TYPE tasks_total counter\n"
            "tasks_total{kind=\"map\"} 4\n"
            "tasks_total{kind=\"reduce\"} 2\n");
}

TEST(MetricsRegistry, JsonGolden) {
  MetricsRegistry r;
  r.AddCounter("c", "help", {{"kind", "map"}}).Increment(7);
  r.AddGauge("g", "help").Set(2.5);
  Histogram& h = r.AddHistogram("h", "help", {1.0});
  h.Observe(0.5);
  h.Observe(3.0);

  EXPECT_EQ(r.Json(),
            "{\"schema\":\"simmr.metrics.v1\",\"metrics\":["
            "{\"name\":\"c\",\"labels\":{\"kind\":\"map\"},"
            "\"type\":\"counter\",\"value\":7},"
            "{\"name\":\"g\",\"labels\":{},\"type\":\"gauge\",\"value\":2.5},"
            "{\"name\":\"h\",\"labels\":{},\"type\":\"histogram\","
            "\"buckets\":[{\"le\":1,\"count\":1},"
            "{\"le\":\"+Inf\",\"count\":2}],\"sum\":3.5,\"count\":2}"
            "]}");
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.Observe(1.5);  // all in (1, 2]
  // Rank q*10 inside the (1, 2] bucket: linear interpolation.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(Histogram, QuantileClampsOverflowToLastBound) {
  Histogram h({1.0, 2.0});
  h.Observe(100.0);
  h.Observe(200.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(Histogram, WindowedQuantilesOnlySeePostCheckpointValues) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.Observe(0.5);
  h.Checkpoint();
  EXPECT_EQ(h.WindowCount(), 0u);
  EXPECT_DOUBLE_EQ(h.WindowQuantile(0.5), 0.0);
  for (int i = 0; i < 10; ++i) h.Observe(3.0);  // (2, 4] only
  EXPECT_EQ(h.WindowCount(), 10u);
  EXPECT_DOUBLE_EQ(h.WindowSum(), 30.0);
  // The window's median is in (2, 4] even though the run median is 0.5.
  EXPECT_GT(h.WindowQuantile(0.5), 2.0);
  EXPECT_LE(h.WindowQuantile(0.5), 4.0);
  EXPECT_LT(h.Quantile(0.5), 1.0);
  // A fresh checkpoint resets the view again.
  h.Checkpoint();
  EXPECT_EQ(h.WindowCount(), 0u);
  EXPECT_DOUBLE_EQ(h.WindowSum(), 0.0);
}

TEST(Histogram, ExpositionUnaffectedByCheckpoints) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Checkpoint();
  h.Observe(0.5);
  EXPECT_EQ(h.TotalCount(), 2u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.0);
}

// The exposition edge cases the Prometheus text format mandates: label
// values escape backslash, double-quote and newline; HELP text escapes
// backslash and newline; histogram buckets are cumulative and end with
// +Inf; every family gets exactly one # TYPE line. Locked as an exact
// golden so a formatting regression is a diff, not a scrape error.
TEST(MetricsRegistry, PrometheusTextEscapingGolden) {
  MetricsRegistry r;
  r.AddCounter("odd_total", "Help with \\ backslash\nand newline.",
               {{"path", "C:\\dir\n\"quoted\""}})
      .Increment(1);
  Histogram& h = r.AddHistogram("lat", "Latency.", {0.5, 1.0, 2.0});
  h.Observe(0.25);
  h.Observe(0.75);
  h.Observe(0.75);
  h.Observe(9.0);

  EXPECT_EQ(r.PrometheusText(),
            "# HELP odd_total Help with \\\\ backslash\\nand newline.\n"
            "# TYPE odd_total counter\n"
            "odd_total{path=\"C:\\\\dir\\n\\\"quoted\\\"\"} 1\n"
            "# HELP lat Latency.\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"0.5\"} 1\n"
            "lat_bucket{le=\"1\"} 3\n"
            "lat_bucket{le=\"2\"} 3\n"
            "lat_bucket{le=\"+Inf\"} 4\n"
            "lat_sum 10.75\n"
            "lat_count 4\n");
}

TEST(MetricsRegistry, ScalarSnapshotCoversCountersAndGauges) {
  MetricsRegistry r;
  r.AddCounter("c_total", "help").Increment(5);
  r.AddGauge("g", "help", {{"kind", "map"}}).Set(2.5);
  r.AddHistogram("h", "help", {1.0}).Observe(0.5);  // skipped

  const std::vector<std::string> keys = r.ScalarKeys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "c_total");
  EXPECT_EQ(keys[1], "g{kind=\"map\"}");
  std::vector<double> values = {-1.0};  // appended to, not replaced
  ASSERT_EQ(r.AppendScalarValues(values), 2u);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], 5.0);
  EXPECT_DOUBLE_EQ(values[2], 2.5);
}

TEST(MetricsRegistry, WriteFileRoundTrips) {
  MetricsRegistry r;
  r.AddCounter("c", "help").Increment();
  const std::string path = ::testing::TempDir() + "/metrics_test_out.txt";
  r.WriteFile(path, /*as_json=*/false);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, r.PrometheusText());
  EXPECT_THROW(r.WriteFile("/no/such/dir/metrics.txt", false),
               std::runtime_error);
}

}  // namespace
}  // namespace simmr::obs
