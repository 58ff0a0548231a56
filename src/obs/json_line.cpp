#include "obs/json_line.h"

#include <charconv>
#include <limits>
#include <system_error>

namespace simmr::obs {
namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// A byte that may not directly follow a number token: one a looser
/// grammar would have read as more of it ("01", "1.", "0x10", "1e5e").
bool ContinuesNumber(char c) {
  return IsDigit(c) || c == '.' || c == '+' || c == '-' ||
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

std::string Quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  std::size_t Split(JsonMember* members, std::size_t capacity,
                    bool nested_objects) {
    SkipWhitespace();
    Expect('{');
    std::size_t count = 0;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        SkipWhitespace();
        if (count == capacity) Fail(pos_, "too many keys");
        JsonMember& m = members[count++];
        m.key_offset = static_cast<std::uint32_t>(pos_);
        bool key_escaped = false;
        m.key = String(&key_escaped);
        SkipWhitespace();
        Expect(':');
        SkipWhitespace();
        Value(m, nested_objects);
        SkipWhitespace();
        const char c = Peek();
        if (c == '}') {
          ++pos_;
          break;
        }
        if (c != ',') Fail(pos_, "expected ',' or '}'");
        ++pos_;
      }
    }
    SkipWhitespace();
    if (pos_ != s_.size()) Fail(pos_, "trailing bytes after the object");
    return count;
  }

 private:
  [[noreturn]] static void Fail(std::size_t at, const std::string& what) {
    throw JsonLineError(at, what);
  }

  void SkipWhitespace() {
    while (pos_ < s_.size() && IsWhitespace(s_[pos_])) ++pos_;
  }

  char Peek() const {
    if (pos_ >= s_.size()) Fail(pos_, "unexpected end of line");
    return s_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  /// The contents of the string literal at pos_, still escaped.
  std::string_view String(bool* escaped) {
    Expect('"');
    const std::size_t start = pos_;
    for (;;) {
      if (pos_ >= s_.size()) Fail(start - 1, "unterminated string");
      const char c = s_[pos_];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20)
        Fail(pos_, "raw control character in a string");
      if (c == '\\') {
        *escaped = true;
        ++pos_;
        const char e = pos_ < s_.size() ? s_[pos_] : '\0';
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            const char h = pos_ + i < s_.size() ? s_[pos_ + i] : '\0';
            if (!IsDigit(h) && !(h >= 'a' && h <= 'f') &&
                !(h >= 'A' && h <= 'F'))
              Fail(pos_ - 1, "bad \\u escape");
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          Fail(pos_ - 1, "bad escape");
        }
      }
      ++pos_;
    }
    const std::string_view out = s_.substr(start, pos_ - start);
    ++pos_;
    return out;
  }

  /// The number token at pos_.
  std::string_view Number(bool* integer) {
    const std::size_t start = pos_;
    const std::size_t length = ScanJsonNumber(s_.substr(pos_), integer);
    if (length == 0) Fail(start, "malformed number");
    pos_ += length;
    return s_.substr(start, length);
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void Value(JsonMember& m, bool nested_objects) {
    m.offset = static_cast<std::uint32_t>(pos_);
    m.escaped = false;
    m.integer = false;
    const char c = Peek();
    if (c == '"') {
      m.type = JsonMember::Type::kString;
      m.text = String(&m.escaped);
    } else if (c == '-' || IsDigit(c)) {
      m.type = JsonMember::Type::kNumber;
      m.text = Number(&m.integer);
    } else if (Literal("true") || Literal("false")) {
      m.type = JsonMember::Type::kBool;
      m.text = s_.substr(m.offset, pos_ - m.offset);
    } else if (c == '{' && nested_objects) {
      m.type = JsonMember::Type::kObject;
      NestedObject();
      m.text = s_.substr(m.offset, pos_ - m.offset);
    } else {
      Fail(pos_, nested_objects
                     ? "expected a string, number, true, false or object"
                     : "expected a string, number, true or false");
    }
  }

  /// An object whose members are strings, numbers or true/false.
  void NestedObject() {
    Expect('{');
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return;
    }
    JsonMember member;
    for (;;) {
      SkipWhitespace();
      bool escaped = false;
      String(&escaped);
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      Value(member, /*nested_objects=*/false);
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == '}') return;
      if (c != ',') Fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

unsigned HexValue(char c) {
  if (IsDigit(c)) return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  return static_cast<unsigned>(c - 'A' + 10);
}

unsigned Hex4(std::string_view text, std::size_t at) {
  unsigned value = 0;
  for (std::size_t i = 0; i < 4; ++i)
    value = value << 4 | HexValue(text[at + i]);
  return value;
}

void AppendUtf8(std::uint32_t cp, std::string& out) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

[[noreturn]] void Expected(const JsonMember& m, const char* what) {
  throw JsonLineError(m.offset, Quoted(m.key) + ": expected " + what +
                                    ", got " + std::string(m.text));
}

}  // namespace

std::size_t ScanJsonNumber(std::string_view text, bool* integer) {
  const std::size_t n = text.size();
  std::size_t i = 0;
  if (i < n && text[i] == '-') ++i;
  if (i >= n) return 0;
  if (text[i] == '0') {
    ++i;
  } else if (text[i] >= '1' && text[i] <= '9') {
    while (i < n && IsDigit(text[i])) ++i;
  } else {
    return 0;
  }
  bool whole = true;
  if (i < n && text[i] == '.') {
    ++i;
    if (i >= n || !IsDigit(text[i])) return 0;
    while (i < n && IsDigit(text[i])) ++i;
    whole = false;
  }
  if (i < n && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < n && (text[i] == '+' || text[i] == '-')) ++i;
    if (i >= n || !IsDigit(text[i])) return 0;
    while (i < n && IsDigit(text[i])) ++i;
    whole = false;
  }
  if (i < n && ContinuesNumber(text[i])) return 0;
  if (integer != nullptr) *integer = whole;
  return i;
}

std::size_t SplitJsonLine(std::string_view line, JsonMember* members,
                          std::size_t capacity, bool nested_objects) {
  return LineParser(line).Split(members, capacity, nested_objects);
}

void ThrowUnknownKey(const JsonMember& m, std::string_view record) {
  throw JsonLineError(m.key_offset, "unknown key " + Quoted(m.key) + " in " +
                                        std::string(record));
}

void ThrowDuplicateKey(const JsonMember& m) {
  throw JsonLineError(m.key_offset, "duplicate key " + Quoted(m.key));
}

double JsonMemberDouble(const JsonMember& m) {
  if (m.type == JsonMember::Type::kNumber) {
    double value = 0.0;
    const std::from_chars_result r =
        std::from_chars(m.text.data(), m.text.data() + m.text.size(), value);
    if (r.ec != std::errc() || r.ptr != m.text.data() + m.text.size())
      throw JsonLineError(m.offset, Quoted(m.key) + ": number " +
                                        std::string(m.text) +
                                        " is out of the double range");
    return value;
  }
  if (m.type == JsonMember::Type::kString && !m.escaped) {
    if (m.text == "NaN") return std::numeric_limits<double>::quiet_NaN();
    if (m.text == "+Inf") return std::numeric_limits<double>::infinity();
    if (m.text == "-Inf") return -std::numeric_limits<double>::infinity();
  }
  Expected(m, "a number");
}

std::int64_t JsonMemberInteger(const JsonMember& m, std::int64_t min,
                               std::int64_t max) {
  if (m.type != JsonMember::Type::kNumber || !m.integer)
    Expected(m, "an integer");
  std::int64_t value = 0;
  const std::from_chars_result r =
      std::from_chars(m.text.data(), m.text.data() + m.text.size(), value);
  if (r.ec != std::errc() || r.ptr != m.text.data() + m.text.size() ||
      value < min || value > max)
    throw JsonLineError(m.offset, Quoted(m.key) + ": " +
                                      std::string(m.text) + " is not in [" +
                                      std::to_string(min) + ", " +
                                      std::to_string(max) + "]");
  return value;
}

std::uint64_t JsonMemberUnsigned(const JsonMember& m, std::uint64_t max) {
  if (m.type != JsonMember::Type::kNumber || !m.integer ||
      m.text.front() == '-')
    Expected(m, "a non-negative integer");
  std::uint64_t value = 0;
  const std::from_chars_result r =
      std::from_chars(m.text.data(), m.text.data() + m.text.size(), value);
  if (r.ec != std::errc() || r.ptr != m.text.data() + m.text.size() ||
      value > max)
    throw JsonLineError(m.offset, Quoted(m.key) + ": " +
                                      std::string(m.text) +
                                      " is not in [0, " +
                                      std::to_string(max) + "]");
  return value;
}

bool JsonMemberBool(const JsonMember& m) {
  if (m.type != JsonMember::Type::kBool) Expected(m, "true or false");
  return m.text.size() == 4;
}

std::string_view JsonMemberString(const JsonMember& m, std::string& unescaped) {
  if (m.type != JsonMember::Type::kString) Expected(m, "a string");
  if (!m.escaped) return m.text;
  // SplitJsonLine has checked every escape's syntax.
  const std::string_view t = m.text;
  unescaped.clear();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] != '\\') {
      unescaped.push_back(t[i]);
      continue;
    }
    const char e = t[++i];
    switch (e) {
      case 'b': unescaped.push_back('\b'); break;
      case 'f': unescaped.push_back('\f'); break;
      case 'n': unescaped.push_back('\n'); break;
      case 'r': unescaped.push_back('\r'); break;
      case 't': unescaped.push_back('\t'); break;
      case 'u': {
        std::uint32_t cp = Hex4(t, i + 1);
        const std::size_t at = m.offset + i;  // of the backslash
        i += 4;
        if (cp >= 0xDC00 && cp <= 0xDFFF)
          throw JsonLineError(at, "unpaired surrogate");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          if (i + 6 >= t.size() || t[i + 1] != '\\' || t[i + 2] != 'u')
            throw JsonLineError(at, "unpaired surrogate");
          const std::uint32_t low = Hex4(t, i + 3);
          if (low < 0xDC00 || low > 0xDFFF)
            throw JsonLineError(at, "unpaired surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;
        }
        AppendUtf8(cp, unescaped);
        break;
      }
      default: unescaped.push_back(e); break;  // '"', '\\', '/'
    }
  }
  return unescaped;
}

}  // namespace simmr::obs
