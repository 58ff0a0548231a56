#include "trace/job_profile.h"

#include <cmath>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "simcore/parse.h"

namespace simmr::trace {
namespace {

constexpr const char* kMagic = "SIMMR-PROFILE-V1";

bool AllFiniteNonNegative(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x) || x < 0.0) return false;
  }
  return true;
}

void WriteArray(std::ostream& out, const char* tag,
                const std::vector<double>& values) {
  out << tag << ' ' << values.size();
  for (const double v : values) out << ' ' << v;
  out << '\n';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

/// Whitespace-separated tokens of one line, in order.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}
  /// The next token, or an empty view at the end of the line.
  std::string_view Next() {
    std::size_t begin = 0;
    while (begin < rest_.size() && IsSpace(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !IsSpace(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }
  /// The rest of the line without its leading or trailing whitespace.
  std::string_view Rest() {
    std::size_t begin = 0, end = rest_.size();
    while (begin < end && IsSpace(rest_[begin])) ++begin;
    while (end > begin && IsSpace(rest_[end - 1])) --end;
    const std::string_view rest = rest_.substr(begin, end - begin);
    rest_ = {};
    return rest;
  }

 private:
  std::string_view rest_;
};

/// ParseWhole, throwing on a token it rejects.
template <typename T>
T ParseNumber(std::string_view token, const char* what) {
  const std::optional<T> value = ParseWhole<T>(token);
  if (!value)
    throw std::runtime_error(std::string("JobProfile: bad ") + what + " '" +
                             std::string(token) + "'");
  return *value;
}

/// Throws unless nothing but whitespace is left on the line.
void ExpectLineEnd(Tokens& tokens, const std::string& line, const char* tag) {
  const std::string_view extra = tokens.Next();
  if (!extra.empty())
    throw std::runtime_error(std::string("JobProfile: trailing token '") +
                             std::string(extra) + "' after " + tag + " in '" +
                             line + "'");
}

std::vector<double> ReadArray(std::istream& in, const char* tag) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error(std::string("JobProfile: missing array ") + tag);
  Tokens tokens(line);
  const std::string_view seen_tag = tokens.Next();
  const std::string_view count_token = tokens.Next();
  if (seen_tag != tag || count_token.empty())
    throw std::runtime_error(std::string("JobProfile: expected array ") + tag +
                             ", got '" + line + "'");
  const auto count = ParseNumber<std::size_t>(count_token, "array count");
  const auto truncated = [tag, count] {
    return std::runtime_error(std::string("JobProfile: truncated array ") +
                              tag + " (declares " + std::to_string(count) +
                              " values)");
  };
  // Every value takes a character and a separator, so a count above half
  // the line's length cannot be met: fail before allocating for it.
  if (count > line.size() / 2) throw truncated();
  std::vector<double> values(count);
  for (double& value : values) {
    const std::string_view token = tokens.Next();
    if (token.empty()) throw truncated();
    value = ParseNumber<double>(token, tag);
  }
  ExpectLineEnd(tokens, line, tag);
  return values;
}

/// Throws unless Read, and the index.tsv of a TraceDatabase, give `name`
/// back exactly: "-" stands for an empty name, a name ends at its line's
/// end, index.tsv columns are tab-separated, and Read drops the whitespace
/// around a name.
void CheckName(const std::string& name, const char* field) {
  const bool exact =
      name != "-" && name.find_first_of("\t\r\n") == std::string::npos &&
      (name.empty() || (!IsSpace(name.front()) && !IsSpace(name.back())));
  if (!exact)
    throw std::invalid_argument(std::string("JobProfile::Write: ") + field +
                                " '" + name + "' would not read back exactly");
}

}  // namespace

std::string JobProfile::Validate() const {
  if (num_maps <= 0) return "num_maps must be positive";
  if (num_reduces < 0) return "num_reduces must be nonnegative";
  if (map_durations.empty()) return "map duration pool is empty";
  if (num_reduces > 0 && reduce_durations.empty())
    return "reduce duration pool is empty";
  if (num_reduces > 0 && first_shuffle_durations.empty() &&
      typical_shuffle_durations.empty())
    return "no shuffle duration samples";
  const auto sh_count =
      first_shuffle_durations.size() + typical_shuffle_durations.size();
  if (sh_count > static_cast<std::size_t>(num_reduces))
    return "more shuffle samples than reduce tasks";
  if (!AllFiniteNonNegative(map_durations)) return "bad map duration";
  if (!AllFiniteNonNegative(first_shuffle_durations))
    return "bad first-shuffle duration";
  if (!AllFiniteNonNegative(typical_shuffle_durations))
    return "bad typical-shuffle duration";
  if (!AllFiniteNonNegative(reduce_durations)) return "bad reduce duration";
  return {};
}

void JobProfile::Write(std::ostream& out) const {
  CheckName(app_name, "app");
  CheckName(dataset, "dataset");
  out << kMagic << '\n';
  // max_digits10: doubles survive a write/read round trip bit-exactly,
  // which replayable reproducers (simmr_fuzz) and the database round-trip
  // tests depend on.
  out.precision(17);
  out << "app " << (app_name.empty() ? "-" : app_name) << '\n';
  out << "dataset " << (dataset.empty() ? "-" : dataset) << '\n';
  out << "num_maps " << num_maps << '\n';
  out << "num_reduces " << num_reduces << '\n';
  WriteArray(out, "map_durations", map_durations);
  WriteArray(out, "first_shuffle_durations", first_shuffle_durations);
  WriteArray(out, "typical_shuffle_durations", typical_shuffle_durations);
  WriteArray(out, "reduce_durations", reduce_durations);
}

JobProfile JobProfile::Read(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    throw std::runtime_error("JobProfile: bad or missing magic header");
  JobProfile p;
  // A name is the rest of its line after the tag; a number must be the
  // line's only other token.
  const auto read_field = [&in](const char* tag, bool name) {
    std::string field_line;
    if (!std::getline(in, field_line))
      throw std::runtime_error(std::string("JobProfile: missing field ") +
                               tag);
    Tokens tokens(field_line);
    const std::string_view seen_tag = tokens.Next();
    const std::string_view value = name ? tokens.Rest() : tokens.Next();
    if (seen_tag != tag || value.empty())
      throw std::runtime_error(std::string("JobProfile: expected field ") +
                               tag);
    if (!name) ExpectLineEnd(tokens, field_line, tag);
    return std::string(value);
  };
  p.app_name = read_field("app", true);
  if (p.app_name == "-") p.app_name.clear();
  p.dataset = read_field("dataset", true);
  if (p.dataset == "-") p.dataset.clear();
  p.num_maps = ParseNumber<int>(read_field("num_maps", false), "num_maps");
  p.num_reduces =
      ParseNumber<int>(read_field("num_reduces", false), "num_reduces");
  p.map_durations = ReadArray(in, "map_durations");
  p.first_shuffle_durations = ReadArray(in, "first_shuffle_durations");
  p.typical_shuffle_durations = ReadArray(in, "typical_shuffle_durations");
  p.reduce_durations = ReadArray(in, "reduce_durations");
  return p;
}

}  // namespace simmr::trace
