// The shared JSON emitter (obs/json.h): its two number forms against the
// original snprintf/strtod formatters, escaping, and JsonWriter's
// buffering into strings and files; and the strict line reader
// (obs/json_line.h) the JSONL readers build on.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json_line.h"
#include "reference_json_numbers.h"

namespace simmr::obs {
namespace {

double FromBits(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

/// Values on both sides of `x`: the neighbouring doubles and a few
/// decimal perturbations, with both signs.
void AddAround(double x, std::vector<double>& out) {
  double up = x;
  double down = x;
  for (int i = 0; i < 4; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, 0.0);
    for (const double v : {up, down}) {
      out.push_back(v);
      out.push_back(-v);
    }
  }
  for (const double scale : {1 - 1e-15, 1 - 5e-16, 1 + 5e-16, 1 + 1e-15,
                             0.9999995, 1.0000005, 0.99999999999995}) {
    out.push_back(x * scale);
    out.push_back(-x * scale);
  }
  out.push_back(x);
  out.push_back(-x);
}

/// The differential inputs: the edge cases first, then a seeded stream
/// of sim-time-like sums, durations and ratios, random bit patterns,
/// subnormals and powers of two.
std::vector<double> DifferentialInputs(std::size_t random_count) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
  };
  // Where %g switches between fixed and scientific notation, at each
  // precision's boundary, and where doubles stop holding every integer.
  for (const double x : {1e-5, 1e-4, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
                         1e17, 1e18, 9007199254740992.0 /* 2^53 */,
                         9007199254740993.0, 1.0, 10.0, 0.5, 1e-300,
                         1e300, 1e-308, 1e308})
    AddAround(x, values);
  for (int e = -1074; e <= 1023; ++e) {
    values.push_back(std::ldexp(1.0, e));
    values.push_back(-std::ldexp(1.0, e));
  }

  std::mt19937_64 rng(20111111);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::exponential_distribution<double> duration(1.0 / 60.0);
  for (std::size_t i = 0; values.size() < random_count + 4200; ++i) {
    switch (i % 9) {
      case 0:  // any bit pattern: NaNs, infinities and subnormals included
        values.push_back(FromBits(rng()));
        break;
      case 1: {  // a sim time: a sum of task durations
        double t = 0.0;
        const int terms = 1 + static_cast<int>(rng() % 64);
        for (int k = 0; k < terms; ++k) t += duration(rng);
        values.push_back(t);
        break;
      }
      case 2:  // a sim time in microseconds
        values.push_back(unit(rng) * 1e7 * 1e6);
        break;
      case 3:  // a ratio or utilization
        values.push_back(static_cast<double>(rng() % 100000) /
                         static_cast<double>(1 + rng() % 9973));
        break;
      case 4:  // a subnormal
        values.push_back(FromBits(rng() & ((std::uint64_t{1} << 52) - 1)));
        break;
      case 5:  // a normal double of any exponent
        values.push_back(FromBits((rng() & ~(std::uint64_t{0x7FF} << 52)) |
                                  (std::uint64_t{1 + rng() % 2046} << 52)));
        break;
      case 6:  // a short decimal
        values.push_back(static_cast<double>(rng() % 1000000) /
                         std::pow(10.0, static_cast<double>(rng() % 12)));
        break;
      case 7:  // a whole number near 2^53
        values.push_back(static_cast<double>((std::uint64_t{1} << 53) -
                                             rng() % 100000 +
                                             rng() % 200000));
        break;
      default: {  // a short binary fraction of 17-18 digits: rounding ties
        const double whole =
            std::ldexp(1.0, 40 + static_cast<int>(rng() % 13)) +
            static_cast<double>(rng() % (1u << 20));
        const int bits = static_cast<int>(rng() % 6);
        values.push_back(std::ldexp(
            std::ldexp(whole, bits) + static_cast<double>(rng() & 1), -bits));
        break;
      }
    }
  }
  return values;
}

constexpr std::size_t kDifferentialValues = 200000;

TEST(JsonNumbers, MatchTheReferenceFormattersByteForByte) {
  const std::vector<double> values = DifferentialInputs(kDifferentialValues);
  ASSERT_GE(values.size(), 200000u);
  std::size_t mismatches = 0;
  char buf[kMaxJsonNumberChars];
  for (const double v : values) {
    const std::string exact(buf, FormatExactJsonNumber(buf, v));
    const std::string twelve(buf, FormatJsonNumber(buf, v));
    const std::string want_exact = ReferenceExactJsonNumber(v);
    const std::string want_twelve = ReferenceJsonNumber(v);
    if (exact == want_exact && twelve == want_twelve) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": exact " << exact << " want "
                    << want_exact << ", %.12g " << twelve << " want "
                    << want_twelve;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f\0", 3)), "\\u0001\\u001f\\u0000");
  EXPECT_EQ(JsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");  // not control
}

/// The text one writer receives, fed in pieces that straddle its buffer.
template <class Feed>
void FeedAcrossBuffers(Feed&& feed) {
  std::mt19937_64 rng(7);
  const std::string long_text(JsonWriter::kBufferSize + 4321, 'x');
  for (int i = 0; i < 30000; ++i) {
    switch (i % 7) {
      case 0: feed.Raw("{\"k\":"); break;
      case 1: feed.ExactNumber(FromBits(rng())); break;
      case 2: feed.Number(static_cast<double>(rng() % 100000) / 7.0); break;
      case 3: feed.Int(static_cast<std::int64_t>(rng())); break;
      case 4: feed.UInt(rng()); break;
      case 5: feed.String("name \"quoted\"\t\x01"); break;
      default:
        if (i % 700 == 6) feed.Raw(long_text);
        feed.Char('}');
    }
  }
}

/// The same calls rendered one value at a time into a string.
struct Expected {
  std::string text;
  void Raw(std::string_view s) { text += s; }
  void Char(char c) { text += c; }
  void ExactNumber(double v) { text += ReferenceExactJsonNumber(v); }
  void Number(double v) { text += ReferenceJsonNumber(v); }
  void Int(std::int64_t v) { text += std::to_string(v); }
  void UInt(std::uint64_t v) { text += std::to_string(v); }
  void String(std::string_view s) { text += '"' + JsonEscape(s) + '"'; }
};

TEST(JsonWriter, StringAndFileSinksGetTheSameBytes) {
  Expected expected;
  FeedAcrossBuffers(expected);
  ASSERT_GT(expected.text.size(), 4 * JsonWriter::kBufferSize);

  std::string text = "prefix:";
  {
    JsonWriter out(text);
    FeedAcrossBuffers(out);
  }
  EXPECT_TRUE(text == "prefix:" + expected.text);

  const std::string path = testing::TempDir() + "json_writer_test.json";
  WriteJsonFile(path, "test", [](JsonWriter& out) { FeedAcrossBuffers(out); });
  std::ifstream in(path, std::ios::binary);
  const std::string written(std::istreambuf_iterator<char>(in), {});
  EXPECT_TRUE(written == expected.text);
  std::remove(path.c_str());
}

TEST(JsonWriter, FileErrorsThrowNamingThePath) {
  try {
    WriteJsonFile("/no/such/dir/out.json", "Sink",
                  [](JsonWriter& out) { out.Raw("{}"); });
    FAIL() << "expected an error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Sink: cannot write /no/such/dir/out.json");
  }
  // A device that accepts the open but refuses every byte.
  if (std::FILE* full = std::fopen("/dev/full", "wb")) {
    std::fclose(full);
    EXPECT_THROW(WriteJsonFile("/dev/full", "Sink",
                               [](JsonWriter& out) { out.Raw("{}"); }),
                 std::runtime_error);
  }
}

/// The offset SplitJsonLine names for `line`, or -1 when it splits.
long SplitErrorOffset(std::string_view line, std::string* what = nullptr) {
  JsonMember members[4];
  try {
    SplitJsonLine(line, members, 4, /*nested_objects=*/true);
  } catch (const JsonLineError& e) {
    if (what != nullptr) *what = e.what();
    return static_cast<long>(e.offset());
  }
  return -1;
}

TEST(JsonLine, SplitsMembersAsViewsIntoTheLine) {
  const std::string line =
      " {\"a\":\"x\\\"y\",\"b\":-12,\"c\":2.5e3,\"d\":true,\"e\":{\"f\":1}} ";
  JsonMember m[5];
  ASSERT_EQ(SplitJsonLine(line, m, 5, /*nested_objects=*/true), 5u);
  EXPECT_EQ(m[0].key, "a");
  EXPECT_EQ(m[0].text, "x\\\"y");
  EXPECT_TRUE(m[0].escaped);
  std::string unescaped;
  EXPECT_EQ(JsonMemberString(m[0], unescaped), "x\"y");
  EXPECT_EQ(JsonMemberInteger(m[1], -100, 100), -12);
  EXPECT_TRUE(m[1].integer);
  EXPECT_FALSE(m[2].integer);
  EXPECT_EQ(JsonMemberDouble(m[2]), 2500.0);
  EXPECT_TRUE(JsonMemberBool(m[3]));
  EXPECT_EQ(m[4].type, JsonMember::Type::kObject);
  EXPECT_EQ(m[4].text, "{\"f\":1}");
  EXPECT_EQ(m[1].key_offset, 13u);
  EXPECT_EQ(m[1].offset, 17u);
}

TEST(JsonLine, DecodesEscapesIncludingSurrogatePairs) {
  JsonMember m[1];
  std::string unescaped;
  ASSERT_EQ(SplitJsonLine(R"({"s":"é😀\/\b\f\n\r\t\u0001"})",
                          m, 1),
            1u);
  EXPECT_EQ(JsonMemberString(m[0], unescaped),
            "\xc3\xa9\xf0\x9f\x98\x80/\b\f\n\r\t\x01");
  ASSERT_EQ(SplitJsonLine(R"({"s":"\ud83d"})", m, 1), 1u);
  EXPECT_THROW(JsonMemberString(m[0], unescaped), JsonLineError);
}

TEST(JsonLine, RejectsMalformedLinesWithOffsets) {
  std::string what;
  EXPECT_EQ(SplitErrorOffset("", &what), 0);
  EXPECT_EQ(SplitErrorOffset("[1]"), 0);
  EXPECT_EQ(SplitErrorOffset("{\"a\":1,}"), 7);
  EXPECT_EQ(SplitErrorOffset("{\"a\" 1}"), 5);
  EXPECT_EQ(SplitErrorOffset("{\"a\":\"x\\q\"}", &what), 7);
  EXPECT_NE(what.find("bad escape"), std::string::npos) << what;
  EXPECT_EQ(SplitErrorOffset("{\"a\":\"x\\u12g4\"}"), 7);
  EXPECT_EQ(SplitErrorOffset(std::string("{\"a\":\"x\ty\"}"), &what), 7);
  EXPECT_NE(what.find("raw control character"), std::string::npos) << what;
  EXPECT_EQ(SplitErrorOffset("{\"a\":\"open}"), 5);
  EXPECT_EQ(SplitErrorOffset("{\"a\":null}"), 5);
  EXPECT_EQ(SplitErrorOffset("{\"a\":[1]}"), 5);
  EXPECT_EQ(SplitErrorOffset("{\"a\":{\"b\":{}}}"), 10);
  EXPECT_EQ(
      SplitErrorOffset("{\"a\":1,\"b\":2,\"c\":3,\"d\":4,\"e\":5}", &what),
      25);
  EXPECT_NE(what.find("too many keys"), std::string::npos) << what;
}

TEST(JsonLine, NumberTokensFollowTheJsonGrammar) {
  bool integer = false;
  EXPECT_EQ(ScanJsonNumber("-0", &integer), 2u);
  EXPECT_TRUE(integer);
  EXPECT_EQ(ScanJsonNumber("12.5e-3,", &integer), 7u);
  EXPECT_FALSE(integer);
  EXPECT_EQ(ScanJsonNumber("1E+2}"), 4u);
  for (const char* bad : {"", "-", "+1", ".5", "-.5", "01", "1.", "1.e5",
                          "1e", "1e+", "0x10", "1e5e", "inf", "NaN", "1a"})
    EXPECT_EQ(ScanJsonNumber(bad), 0u) << bad;
}

}  // namespace
}  // namespace simmr::obs
