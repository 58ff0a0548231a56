// A small recursive JSON reader for the analysis layer.
//
// The event-log and time-series readers take their one-line objects apart
// with obs/json_line.h; the sweep (simmr.sweep.v1) and exploration
// (simmr.explore.v1) documents are nested, with objects inside arrays
// inside objects. This is the full
// recursive parser those documents need: values, arrays, objects
// (insertion-ordered), string escapes including \uXXXX, and a depth limit
// so hostile input fails instead of overflowing the stack.
//
// Parse errors throw std::runtime_error with a byte offset. Numbers follow
// the JSON grammar strictly (no "-.5", "01", "1." or hex) and are doubles
// read with std::from_chars; one beyond the double range is an error (the
// documents only carry counts, seconds and sim times; 2^53 integer
// precision is more than they need).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simmr::analysis {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Object members in document order.
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  /// Parses exactly one JSON document (trailing whitespace allowed).
  /// Throws std::runtime_error naming the byte offset on malformed input.
  static JsonValue Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool IsNull() const { return kind_ == Kind::kNull; }
  bool IsBool() const { return kind_ == Kind::kBool; }
  bool IsNumber() const { return kind_ == Kind::kNumber; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsArray() const { return kind_ == Kind::kArray; }
  bool IsObject() const { return kind_ == Kind::kObject; }

  /// Typed accessors throw std::runtime_error on a kind mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const Members& AsObject() const;

  /// Member lookup on an object: the value for `key`, or nullptr when the
  /// key is absent or this value is not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience lookups with fallbacks for optional members.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> v);
  static JsonValue MakeObject(Members v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  Members object_;
};

}  // namespace simmr::analysis
