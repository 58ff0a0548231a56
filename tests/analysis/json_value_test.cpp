#include "analysis/json_value.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace simmr::analysis {
namespace {

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null").IsNull());
  EXPECT_EQ(JsonValue::Parse("true").AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("42").AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-1.5e3").AsNumber(), -1500.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonValue, ParsesNestedStructures) {
  const auto doc = JsonValue::Parse(
      R"({"a":[1,2,{"b":"c"}],"d":{"e":null},"f":true})");
  ASSERT_TRUE(doc.IsObject());
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[0].AsNumber(), 1.0);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(doc.Find("d")->Find("e")->IsNull());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonValue, ObjectKeepsDocumentOrder) {
  const auto doc = JsonValue::Parse(R"({"z":1,"a":2,"m":3})");
  const auto& members = doc.AsObject();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonValue, DecodesStringEscapes) {
  EXPECT_EQ(JsonValue::Parse(R"("a\"b\\c\nd\t")").AsString(), "a\"b\\c\nd\t");
  EXPECT_EQ(JsonValue::Parse(R"("Aé")").AsString(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(JsonValue::Parse(R"("😀")").AsString(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonValue, ConvenienceLookups) {
  const auto doc = JsonValue::Parse(R"({"n":2.5,"s":"x"})");
  EXPECT_DOUBLE_EQ(doc.NumberOr("n", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.NumberOr("missing", 7.0), 7.0);
  EXPECT_DOUBLE_EQ(doc.NumberOr("s", 7.0), 7.0);  // wrong kind -> fallback
  EXPECT_EQ(doc.StringOr("s", "d"), "x");
  EXPECT_EQ(doc.StringOr("n", "d"), "d");
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::Parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("NaN"), std::runtime_error);
}

/// The offset a parse error names ("json: ... at offset N"), or -1 when
/// the text parses.
long ErrorOffset(const std::string& text, std::string* what = nullptr) {
  try {
    JsonValue::Parse(text);
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    if (what != nullptr) *what = message;
    const std::size_t at = message.rfind("at offset ");
    return at == std::string::npos ? -2 : std::stol(message.substr(at + 10));
  }
  return -1;
}

TEST(JsonValue, NumbersFollowTheJsonGrammar) {
  std::string what;
  EXPECT_EQ(ErrorOffset("[-.5]", &what), 1);
  EXPECT_NE(what.find("bad number"), std::string::npos) << what;
  EXPECT_EQ(ErrorOffset("[01]"), 1);
  EXPECT_EQ(ErrorOffset("{\"a\":1.}"), 5);
  EXPECT_EQ(ErrorOffset("1e"), 0);
  EXPECT_EQ(ErrorOffset("0x10"), 0);
  EXPECT_EQ(ErrorOffset("+1"), 0);
  EXPECT_EQ(ErrorOffset("[1,1e400]", &what), 3);
  EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  EXPECT_EQ(ErrorOffset("-1e400"), 0);
  // Valid forms still parse, exactly.
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-0.5").AsNumber(), -0.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("0").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1E+2").AsNumber(), 100.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("[2.5e-3]").AsArray()[0].AsNumber(),
                   0.0025);
  EXPECT_EQ(JsonValue::Parse("1.7976931348623157e308").AsNumber(),
            std::numeric_limits<double>::max());
}

TEST(JsonValue, RejectsKindMismatches) {
  const auto num = JsonValue::Parse("1");
  EXPECT_THROW(num.AsString(), std::runtime_error);
  EXPECT_THROW(num.AsObject(), std::runtime_error);
  EXPECT_EQ(num.Find("k"), nullptr);  // Find on non-object is benign
}

TEST(JsonValue, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(JsonValue::Parse(deep), std::runtime_error);
}

}  // namespace
}  // namespace simmr::analysis
