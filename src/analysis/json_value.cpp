#include "analysis/json_value.h"

#include <charconv>
#include <stdexcept>
#include <system_error>

#include "obs/json_line.h"

namespace simmr::analysis {
namespace {

// Nesting bound: the documents read today are a few levels deep; 64 leaves
// head room for future schemas while keeping recursion off any hostile path.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue(0);
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue ParseValue(int depth) {
    if (depth > kMaxDepth) Fail("nesting too deep");
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"':
        return JsonValue::MakeString(ParseString());
      case 't':
        if (!ConsumeLiteral("true")) Fail("bad literal");
        return JsonValue::MakeBool(true);
      case 'f':
        if (!ConsumeLiteral("false")) Fail("bad literal");
        return JsonValue::MakeBool(false);
      case 'n':
        if (!ConsumeLiteral("null")) Fail("bad literal");
        return JsonValue::MakeNull();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        Fail("unexpected character");
    }
  }

  JsonValue ParseObject(int depth) {
    Expect('{');
    JsonValue::Members members;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue::MakeObject(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      members.emplace_back(std::move(key), ParseValue(depth + 1));
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
    return JsonValue::MakeObject(std::move(members));
  }

  JsonValue ParseArray(int depth) {
    Expect('[');
    std::vector<JsonValue> elements;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue::MakeArray(std::move(elements));
    }
    while (true) {
      elements.push_back(ParseValue(depth + 1));
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
    return JsonValue::MakeArray(std::move(elements));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      const char c = Peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = Peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': AppendUtf8(ParseHex4(), out); break;
        default: Fail("bad escape sequence");
      }
    }
  }

  unsigned ParseHex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = Peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else Fail("bad \\u escape");
    }
    return value;
  }

  // Encodes one BMP code point (surrogate pairs are rejoined if present).
  void AppendUtf8(unsigned cp, std::string& out) {
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: a low surrogate must follow as \uXXXX.
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = ParseHex4();
        if (lo < 0xDC00 || lo > 0xDFFF) Fail("unpaired surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        Fail("unpaired surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      Fail("unpaired surrogate");
    }
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

  /// The JSON number grammar (RFC 8259), converted straight from the
  /// text: "-.5", "01", "1." and "0x10" are malformed, and a number beyond
  /// the double range ("1e400") is an error rather than an infinity.
  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    const std::size_t length = obs::ScanJsonNumber(text_.substr(start));
    if (length == 0) Fail("bad number");
    double value = 0.0;
    const char* first = text_.data() + start;
    const std::from_chars_result r =
        std::from_chars(first, first + length, value);
    if (r.ec != std::errc() || r.ptr != first + length)
      Fail("number out of range");
    pos_ += length;
    return JsonValue::MakeNumber(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void KindError(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not a ") + wanted);
}

}  // namespace

JsonValue JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

bool JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) KindError("bool");
  return bool_;
}

double JsonValue::AsNumber() const {
  if (kind_ != Kind::kNumber) KindError("number");
  return number_;
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) KindError("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (kind_ != Kind::kArray) KindError("array");
  return array_;
}

const JsonValue::Members& JsonValue::AsObject() const {
  if (kind_ != Kind::kObject) KindError("object");
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->IsNumber() ? value->AsNumber() : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->IsString() ? value->AsString()
                                               : std::move(fallback);
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeObject(Members v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

}  // namespace simmr::analysis
