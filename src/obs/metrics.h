// Run-time metrics registry: typed counters, gauges and fixed-bucket
// histograms with Prometheus-text and JSON exposition.
//
// The registry owns its instruments; handles returned by the Add* methods
// stay valid for the registry's lifetime (instruments are held by unique
// pointer, so the registry may grow freely). Instruments are identified by
// (name, label set); registering the same identity twice throws. Everything
// here is single-threaded, like the simulators it instruments.
//
// The standard simulator metric set is wired up by MetricsObserver
// (metrics_observer.h); nothing in this file is simulator-specific.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace simmr::obs {

class JsonWriter;

/// Label set attached to an instrument, e.g. {{"kind", "map"}}. Rendered
/// in the order given; keep it short — exposition is O(labels) per line.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t Value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Arbitrary settable value.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double Value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket cumulative histogram (Prometheus semantics): bucket i
/// counts observations <= bounds[i]; an implicit +Inf bucket catches the
/// rest. Bounds are set at registration and never change.
///
/// Windowed-quantile mode: Checkpoint() marks the start of a new window;
/// the Window*() accessors then cover only observations since that mark,
/// so time-resolved percentiles (TimeSeriesSampler) come from the same
/// instrument as the run aggregate. Exposition is unaffected — it always
/// reports the full run.
class Histogram {
 public:
  /// `bounds` must be strictly increasing (checked by the registry).
  explicit Histogram(std::vector<double> bounds);

  /// Inline: this is the one instrument on a simulator hot path (one
  /// call per task completion via TimeSeriesSampler/MetricsObserver).
  /// Branchless linear scan rather than binary search — with a dozen
  /// bounds and unpredictable values, the search's data-dependent
  /// branches mispredict; counting compares vectorizes and doesn't.
  void Observe(double value) {
    std::size_t idx = 0;
    for (const double bound : bounds_)
      idx += static_cast<std::size_t>(bound < value);
    if (idx == bounds_.size()) {
      ++overflow_;
    } else {
      ++counts_[idx];
    }
    ++total_count_;
    sum_ += value;
  }

  const std::vector<double>& bucket_bounds() const { return bounds_; }
  /// Count of observations <= bounds[i]; size == bounds size. Cumulative
  /// counts (Prometheus `le` semantics) are the partial sums plus
  /// TotalCount() for +Inf.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t TotalCount() const { return total_count_; }
  double Sum() const { return sum_; }

  /// Estimated q-quantile (q in [0,1]) of all observations, by linear
  /// interpolation within the containing bucket (histogram_quantile
  /// semantics). Observations above the last bound clamp to the last
  /// bound; an empty histogram reports 0.
  double Quantile(double q) const;

  /// Starts a new window: subsequent Window*() calls cover only
  /// observations made after this point.
  void Checkpoint();
  std::uint64_t WindowCount() const { return total_count_ - mark_total_; }
  double WindowSum() const { return sum_ - mark_sum_; }
  /// Quantile() restricted to observations since the last Checkpoint().
  double WindowQuantile(double q) const;

 private:
  double QuantileFromDeltas(double q, const std::vector<std::uint64_t>& base,
                            std::uint64_t base_total) const;

  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // per-bucket (non-cumulative)
  std::uint64_t overflow_ = 0;         // observations above the last bound
  std::uint64_t total_count_ = 0;
  double sum_ = 0.0;

  // State captured at the last Checkpoint(); window views are deltas
  // against these.
  std::vector<std::uint64_t> mark_counts_;
  std::uint64_t mark_total_ = 0;
  double mark_sum_ = 0.0;

  friend class MetricsRegistry;
};

/// Registry of named instruments with deterministic (registration-order)
/// exposition.
class MetricsRegistry {
 public:
  /// `help` is the family description emitted once per metric name.
  /// Throws std::invalid_argument on an empty name, a duplicate
  /// (name, labels) identity, or a name reused with a different type.
  Counter& AddCounter(const std::string& name, const std::string& help,
                      LabelSet labels = {});
  Gauge& AddGauge(const std::string& name, const std::string& help,
                  LabelSet labels = {});
  /// Also throws when `bounds` is empty or not strictly increasing.
  Histogram& AddHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds, LabelSet labels = {});

  std::size_t size() const { return entries_.size(); }

  /// Appends the current counter and gauge values, in registration order
  /// (histograms are skipped — their windowed views are sampled
  /// directly), to `out` and returns how many there were. The registry
  /// only grows, so value i of any earlier call belongs to key i of
  /// ScalarKeys(): TimeSeriesSampler stores these numbers per window and
  /// renders the keys once, when it writes.
  std::size_t AppendScalarValues(std::vector<double>& out) const;

  /// The keys (name{labels}) of the current counters and gauges, in
  /// AppendScalarValues() order.
  std::vector<std::string> ScalarKeys() const;

  /// Prometheus text exposition format (one # HELP / # TYPE block per
  /// metric family, then one sample line per label set; histograms expand
  /// to _bucket/_sum/_count). Help text and label values are escaped per
  /// the exposition-format spec (backslash, newline, and for label values
  /// double-quote).
  std::string PrometheusText() const;

  /// JSON snapshot: {"schema":"simmr.metrics.v1","metrics":[...]} with one
  /// object per instrument. See docs/OBSERVABILITY.md for the schema.
  std::string Json() const;

  /// Writes PrometheusText() or Json() (by `as_json`, then a newline) to
  /// a file. Throws std::runtime_error when the file cannot be written.
  void WriteFile(const std::string& path, bool as_json) const;

 private:
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string help;
    LabelSet labels;
    Type type = Type::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& Register(const std::string& name, const std::string& help,
                  LabelSet labels, Type type);
  void WriteJson(JsonWriter& out) const;

  std::vector<Entry> entries_;
};

}  // namespace simmr::obs
