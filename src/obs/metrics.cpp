#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "obs/json.h"

namespace simmr::obs {
namespace {

/// Appends a label value escaped per the exposition format: backslash,
/// double quote and newline.
void AppendEscapedLabelValue(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Escapes HELP text per the exposition format: backslash and newline
/// (quotes are legal in help text).
std::string PrometheusEscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Appends a label set as {k1="v1",k2="v2"} (nothing when no labels).
/// `extra` appends one more label, used for histogram `le` buckets.
void AppendPrometheusLabels(std::string& out, const LabelSet& labels,
                            const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    AppendEscapedLabelValue(out, value);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
}

std::string PrometheusLabels(const LabelSet& labels,
                             const std::string& extra = "") {
  std::string out;
  AppendPrometheusLabels(out, labels, extra);
  return out;
}

/// Prometheus prints bucket bounds as "%g" does: six significant digits.
std::string BoundText(double bound) {
  char buf[kMaxJsonNumberChars];
  const char* end =
      std::to_chars(buf, buf + sizeof buf, bound, std::chars_format::general,
                    6)
          .ptr;
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

std::string U64Text(std::uint64_t v) { return std::to_string(v); }

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size(), 0) {}

void Histogram::Checkpoint() {
  mark_counts_ = counts_;
  mark_total_ = total_count_;
  mark_sum_ = sum_;
}

double Histogram::QuantileFromDeltas(double q,
                                     const std::vector<std::uint64_t>& base,
                                     std::uint64_t base_total) const {
  q = std::min(1.0, std::max(0.0, q));
  const std::uint64_t total = total_count_ - base_total;
  if (total == 0) return 0.0;
  // Rank of the target observation, 1-based; walk the per-bucket deltas
  // until the cumulative count reaches it.
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const std::uint64_t in_bucket =
        counts_[i] - (base.empty() ? 0 : base[i]);
    if (in_bucket == 0) continue;
    const double next = cumulative + static_cast<double>(in_bucket);
    if (next >= rank) {
      const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac =
          (rank - cumulative) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative = next;
  }
  // Target falls in the +Inf bucket: clamp to the last finite bound.
  return bounds_.back();
}

double Histogram::Quantile(double q) const {
  return QuantileFromDeltas(q, {}, 0);
}

double Histogram::WindowQuantile(double q) const {
  return QuantileFromDeltas(q, mark_counts_, mark_total_);
}

MetricsRegistry::Entry& MetricsRegistry::Register(const std::string& name,
                                                  const std::string& help,
                                                  LabelSet labels,
                                                  Type type) {
  if (name.empty())
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  for (const Entry& entry : entries_) {
    if (entry.name != name) continue;
    if (entry.type != type)
      throw std::invalid_argument("MetricsRegistry: metric '" + name +
                                  "' re-registered with a different type");
    if (entry.labels == labels)
      throw std::invalid_argument("MetricsRegistry: duplicate metric '" +
                                  name + "' with identical labels");
  }
  Entry entry;
  entry.name = name;
  entry.help = help;
  entry.labels = std::move(labels);
  entry.type = type;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter& MetricsRegistry::AddCounter(const std::string& name,
                                     const std::string& help,
                                     LabelSet labels) {
  Entry& entry = Register(name, help, std::move(labels), Type::kCounter);
  entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::AddGauge(const std::string& name,
                                 const std::string& help, LabelSet labels) {
  Entry& entry = Register(name, help, std::move(labels), Type::kGauge);
  entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::AddHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         LabelSet labels) {
  if (bounds.empty())
    throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                "' needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1])
      throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                  "' bounds must be strictly increasing");
  }
  Entry& entry = Register(name, help, std::move(labels), Type::kHistogram);
  entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *entry.histogram;
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  const std::string* last_family = nullptr;
  for (const Entry& entry : entries_) {
    // One HELP/TYPE block per family. Same-named entries are registered
    // contiguously in practice; re-emitting the block for a non-contiguous
    // repeat would be invalid Prometheus, so suppress any repeat.
    const bool family_seen = [&] {
      for (const Entry& prior : entries_) {
        if (&prior == &entry) return false;
        if (prior.name == entry.name) return true;
      }
      return false;
    }();
    if (!family_seen && (last_family == nullptr ||
                         *last_family != entry.name)) {
      const char* type_name = entry.type == Type::kCounter ? "counter"
                              : entry.type == Type::kGauge ? "gauge"
                                                           : "histogram";
      out += "# HELP " + entry.name + " " + PrometheusEscapeHelp(entry.help) +
             "\n";
      out += "# TYPE " + entry.name + " " + std::string(type_name) + "\n";
    }
    last_family = &entry.name;

    const std::string labels = PrometheusLabels(entry.labels);
    switch (entry.type) {
      case Type::kCounter:
        out += entry.name + labels + " " + U64Text(entry.counter->Value()) +
               "\n";
        break;
      case Type::kGauge: {
        // "%.12g", non-finite values as "nan"/"inf" (not JSON's quotes).
        char buf[kMaxJsonNumberChars];
        const char* end = std::to_chars(buf, buf + sizeof buf,
                                        entry.gauge->Value(),
                                        std::chars_format::general, 12)
                              .ptr;
        out += entry.name + labels + " ";
        out.append(buf, static_cast<std::size_t>(end - buf));
        out += "\n";
        break;
      }
      case Type::kHistogram: {
        const Histogram& h = *entry.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bucket_bounds().size(); ++i) {
          cumulative += h.bucket_counts()[i];
          out += entry.name + "_bucket" +
                 PrometheusLabels(entry.labels,
                                  "le=\"" + BoundText(h.bucket_bounds()[i]) +
                                      "\"") +
                 " " + U64Text(cumulative) + "\n";
        }
        out += entry.name + "_bucket" +
               PrometheusLabels(entry.labels, "le=\"+Inf\"") + " " +
               U64Text(h.TotalCount()) + "\n";
        out += entry.name + "_sum" + labels + " " + JsonNumber(h.Sum()) +
               "\n";
        out += entry.name + "_count" + labels + " " +
               U64Text(h.TotalCount()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::size_t MetricsRegistry::AppendScalarValues(
    std::vector<double>& out) const {
  const std::size_t before = out.size();
  for (const Entry& entry : entries_) {
    if (entry.type == Type::kCounter) {
      out.push_back(static_cast<double>(entry.counter->Value()));
    } else if (entry.type == Type::kGauge) {
      out.push_back(entry.gauge->Value());
    }
  }
  return out.size() - before;
}

std::vector<std::string> MetricsRegistry::ScalarKeys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (entry.type == Type::kHistogram) continue;
    std::string& key = keys.emplace_back(entry.name);
    AppendPrometheusLabels(key, entry.labels);
  }
  return keys;
}

void MetricsRegistry::WriteJson(JsonWriter& out) const {
  out.Raw("{\"schema\":\"simmr.metrics.v1\",\"metrics\":[");
  bool first = true;
  for (const Entry& entry : entries_) {
    if (!first) out.Char(',');
    first = false;
    out.Raw("{\"name\":");
    out.String(entry.name);
    out.Raw(",\"labels\":{");
    bool first_label = true;
    for (const auto& [key, value] : entry.labels) {
      if (!first_label) out.Char(',');
      first_label = false;
      out.String(key);
      out.Char(':');
      out.String(value);
    }
    out.Char('}');
    switch (entry.type) {
      case Type::kCounter:
        out.Raw(",\"type\":\"counter\",\"value\":");
        out.UInt(entry.counter->Value());
        break;
      case Type::kGauge:
        out.Raw(",\"type\":\"gauge\",\"value\":");
        out.Number(entry.gauge->Value());
        break;
      case Type::kHistogram: {
        const Histogram& h = *entry.histogram;
        out.Raw(",\"type\":\"histogram\",\"buckets\":[");
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bucket_bounds().size(); ++i) {
          cumulative += h.bucket_counts()[i];
          out.Raw("{\"le\":");
          out.Number(h.bucket_bounds()[i]);
          out.Raw(",\"count\":");
          out.UInt(cumulative);
          out.Raw("},");
        }
        out.Raw("{\"le\":\"+Inf\",\"count\":");
        out.UInt(h.TotalCount());
        out.Raw("}],\"sum\":");
        out.Number(h.Sum());
        out.Raw(",\"count\":");
        out.UInt(h.TotalCount());
        break;
      }
    }
    out.Char('}');
  }
  out.Raw("]}");
}

std::string MetricsRegistry::Json() const {
  std::string text;
  {
    JsonWriter out(text);
    WriteJson(out);
  }
  return text;
}

void MetricsRegistry::WriteFile(const std::string& path, bool as_json) const {
  WriteJsonFile(path, "MetricsRegistry", [&](JsonWriter& out) {
    if (as_json) {
      WriteJson(out);
      out.Char('\n');
    } else {
      out.Raw(PrometheusText());
    }
  });
}

}  // namespace simmr::obs
