#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace simmr::obs {
namespace {

constexpr std::string_view kNaN = "\"NaN\"";
constexpr std::string_view kPlusInf = "\"+Inf\"";
constexpr std::string_view kMinusInf = "\"-Inf\"";

char* Put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

/// The quoted stand-in for a non-finite value.
std::string_view NonFinite(double value) {
  if (std::isnan(value)) return kNaN;
  return value > 0 ? kPlusInf : kMinusInf;
}

char* General(char* out, double value, int precision) {
  return std::to_chars(out, out + kMaxJsonNumberChars, value,
                       std::chars_format::general, precision)
      .ptr;
}

/// Significant digits in the shortest decimal that parses back to the
/// finite `value`: to_chars' shortest scientific form is "[-]d[.ddd]e...".
int ShortestDigitCount(double value) {
  char text[kMaxJsonNumberChars];
  const char* end =
      std::to_chars(text, text + sizeof text, value,
                    std::chars_format::scientific)
          .ptr;
  const char* first = text[0] == '-' ? text + 1 : text;
  const char* exponent = static_cast<const char*>(
      std::memchr(first, 'e', static_cast<std::size_t>(end - first)));
  const int chars = static_cast<int>(exponent - first);
  return chars == 1 ? 1 : chars - 1;  // less the '.'
}

/// Whether the finite, nonzero `value` has an all-zero significand field:
/// a normal power of two.
bool IsPowerOfTwo(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return (bits & ((std::uint64_t{1} << 52) - 1)) == 0;
}

bool RoundTrips(const char* first, const char* last, double value) {
  double parsed = 0.0;
  const std::from_chars_result r = std::from_chars(first, last, parsed);
  return r.ec == std::errc() && r.ptr == last && parsed == value;
}

/// Calls emit(text) for each run of the escaped form of `s`.
template <class Emit>
void Escape(std::string_view s, Emit&& emit) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    if (i > run) emit(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': emit("\\\""); break;
      case '\\': emit("\\\\"); break;
      case '\n': emit("\\n"); break;
      case '\r': emit("\\r"); break;
      case '\t': emit("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        emit(std::string_view(code, sizeof code));
      }
    }
  }
  if (s.size() > run) emit(s.substr(run));
}

}  // namespace

char* FormatJsonNumber(char* out, double value) {
  if (!std::isfinite(value)) return Put(out, NonFinite(value));
  return General(out, value, 12);
}

char* FormatExactJsonNumber(char* out, double value) {
  if (!std::isfinite(value)) return Put(out, NonFinite(value));
  // The form wanted is the first of "%.15g", "%.16g", "%.17g" that parses
  // back to `value`. No decimal of fewer than ShortestDigitCount(value)
  // digits does, so every precision below that fails. At any precision p
  // at or above it, printf's correctly rounded p digits lie no farther
  // from the value than the shortest digits do, so they parse back too,
  // as long as the decimals that round to `value` reach as far below it
  // as above. They do not at a power of two, whose next smaller double is
  // half as far away: there the nearest 16 digits may miss, and are tried.
  const int precision = std::max(15, ShortestDigitCount(value));
  char* end = General(out, value, precision);
  if (precision == 16 && IsPowerOfTwo(value) && !RoundTrips(out, end, value))
    return General(out, value, 17);
  return end;
}

JsonWriter::JsonWriter(std::string& out)
    : buffer_(new char[kBufferSize]),
      pos_(buffer_.get()),
      end_(buffer_.get() + kBufferSize),
      string_(&out) {}

JsonWriter::JsonWriter(std::FILE* file)
    : buffer_(new char[kBufferSize]),
      pos_(buffer_.get()),
      end_(buffer_.get() + kBufferSize),
      file_(file) {}

JsonWriter::~JsonWriter() { Drain(); }

void JsonWriter::Drain() {
  const std::size_t size = static_cast<std::size_t>(pos_ - buffer_.get());
  pos_ = buffer_.get();
  if (size == 0) return;
  if (string_ != nullptr) {
    string_->append(buffer_.get(), size);
  } else if (!failed_ &&
             std::fwrite(buffer_.get(), 1, size, file_) != size) {
    failed_ = true;
  }
}

bool JsonWriter::Flush() {
  Drain();
  return !failed_;
}

void JsonWriter::RawSlow(std::string_view text) {
  Drain();
  if (text.size() <= kBufferSize) {
    Raw(text);
  } else if (string_ != nullptr) {
    string_->append(text);
  } else if (!failed_ &&
             std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
    failed_ = true;
  }
}

void JsonWriter::Escaped(std::string_view s) {
  Escape(s, [this](std::string_view run) { Raw(run); });
}

void JsonWriter::Int(std::int64_t value) {
  char* room = Room(24);
  pos_ = std::to_chars(room, room + 24, value).ptr;
}

void JsonWriter::UInt(std::uint64_t value) {
  char* room = Room(24);
  pos_ = std::to_chars(room, room + 24, value).ptr;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  Escape(s, [&out](std::string_view run) { out += run; });
  return out;
}

std::string JsonNumber(double value) {
  char buf[kMaxJsonNumberChars];
  return std::string(buf, FormatJsonNumber(buf, value));
}

std::string ExactJsonNumber(double value) {
  char buf[kMaxJsonNumberChars];
  return std::string(buf, FormatExactJsonNumber(buf, value));
}

namespace json_detail {

std::FILE* OpenForWriting(const std::string& path, const char* what) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr)
    throw std::runtime_error(std::string(what) + ": cannot write " + path);
  return file;
}

void FinishWriting(std::FILE* file, bool ok, const std::string& path,
                   const char* what) {
  if (std::fclose(file) != 0) ok = false;
  if (!ok)
    throw std::runtime_error(std::string(what) + ": write failed for " +
                             path);
}

}  // namespace json_detail
}  // namespace simmr::obs
