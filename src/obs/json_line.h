// Strict reading of the one-line JSON objects in the JSONL formats.
//
// The event-log and time-series readers take each line apart with
// SplitJsonLine, which checks the JSON syntax of the whole line and hands
// back its members as views into it (no allocation, no value tree), then
// convert just the members they model; ForEachLine feeds them the lines of
// a stream read in bulk chunks. A number follows the JSON grammar
// (RFC 8259: no leading '+', no leading zeros, no bare '.', no hex, no
// inf/nan) and is converted with std::from_chars; a value that does not
// fit its field is an error, never a silent truncation. Errors carry the
// byte offset in the line, for the caller to prefix with path and line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace simmr::obs {

/// A malformed line: what is wrong and where (bytes from the line start).
class JsonLineError : public std::runtime_error {
 public:
  JsonLineError(std::size_t offset, const std::string& what)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Length of the JSON number token at the start of `text`, or 0 when the
/// text does not start with one or runs on past it into a byte a looser
/// grammar would have read as more number ("01", "1.", "0x10", "1e", "-"):
/// the caller rejects those. Sets `*integer` when the token has neither a
/// fraction nor an exponent.
std::size_t ScanJsonNumber(std::string_view text, bool* integer = nullptr);

/// One member of a line's top-level object.
struct JsonMember {
  enum class Type : std::uint8_t { kString, kNumber, kBool, kObject };

  /// The key as written between its quotes (escapes are not decoded, so a
  /// key spelled with escapes matches no key a reader expects).
  std::string_view key;
  /// kString: the contents between the quotes, still escaped; kNumber: the
  /// token; kObject: the object, braces included; kBool: "true"/"false".
  std::string_view text;
  std::uint32_t key_offset = 0;
  std::uint32_t offset = 0;  // of the value
  Type type = Type::kString;
  bool escaped = false;  // kString holding backslash escapes
  bool integer = false;  // kNumber without fraction or exponent
};

/// Splits `line`, which must hold exactly one JSON object (whitespace
/// around it allowed), into its members in order; returns their count.
/// Member values are strings, numbers, true/false, or — only when
/// `nested_objects` — objects whose own members are strings, numbers or
/// true/false. Throws JsonLineError on malformed JSON, on a value of
/// another kind, or on more than `capacity` members.
std::size_t SplitJsonLine(std::string_view line, JsonMember* members,
                          std::size_t capacity, bool nested_objects = false);

/// The errors for a member its record does not allow, raised at its key:
/// "unknown key 'x' in <record>" and "duplicate key 'x'".
[[noreturn]] void ThrowUnknownKey(const JsonMember& m,
                                  std::string_view record);
[[noreturn]] void ThrowDuplicateKey(const JsonMember& m);

/// A double member: a number, or one of the quoted "NaN", "+Inf", "-Inf"
/// the writers use for non-finite values. Throws JsonLineError on another
/// type or a number out of the double range.
double JsonMemberDouble(const JsonMember& m);

/// An integer member within [min, max]. Throws JsonLineError on another
/// type, a fraction or exponent, or a value out of range.
std::int64_t JsonMemberInteger(const JsonMember& m, std::int64_t min,
                               std::int64_t max);

/// A non-negative integer member, at most `max`.
std::uint64_t JsonMemberUnsigned(const JsonMember& m, std::uint64_t max);

/// A true/false member.
bool JsonMemberBool(const JsonMember& m);

/// A string member's decoded contents: a view into the line, or into
/// `unescaped` when the string has escapes. Throws JsonLineError on another
/// type.
std::string_view JsonMemberString(const JsonMember& m, std::string& unescaped);

/// Calls `line(std::string_view)` for every line of `in`, read in bulk
/// chunks. Lines are passed without their newline; a last line without one
/// is passed too. Returns false on a read error.
template <class Line>
bool ForEachLine(std::istream& in, Line&& line) {
  std::vector<char> buffer(std::size_t{1} << 20);
  std::size_t begin = 0;
  std::size_t end = 0;
  bool at_end = false;
  for (;;) {
    const char* first = buffer.data() + begin;
    const void* newline = std::memchr(first, '\n', end - begin);
    if (newline != nullptr) {
      const char* last = static_cast<const char*>(newline);
      line(std::string_view(first, static_cast<std::size_t>(last - first)));
      begin = static_cast<std::size_t>(last - buffer.data()) + 1;
      continue;
    }
    if (at_end) {
      if (end > begin) line(std::string_view(first, end - begin));
      return !in.bad();
    }
    // Keep the partial line; grow the buffer when one line fills it.
    std::memmove(buffer.data(), first, end - begin);
    end -= begin;
    begin = 0;
    if (end == buffer.size()) buffer.resize(buffer.size() * 2);
    in.read(buffer.data() + end,
            static_cast<std::streamsize>(buffer.size() - end));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) at_end = true;
    end += got;
  }
}

}  // namespace simmr::obs
