// The JSON emitter shared by the observability writers.
//
// The run-record sinks in this directory (event log, Perfetto trace, time
// series, metrics snapshot) and the analysis renderers emit JSON without a
// serialization dependency. JsonWriter appends into a fixed-size buffer
// that drains into the caller's sink — a std::string (ToJsonl/ToJson) or an
// open file (WriteFile) — so a document of any size streams through one
// 64 KiB buffer instead of being rendered whole first.
//
// Numbers come in two fixed forms, both formatted with std::to_chars:
//   - Number(): printf's "%.12g" (metrics, traces, time series, reports);
//   - ExactNumber(): the shortest of "%.15g", "%.16g" and "%.17g" that
//     parses back to the identical bits (event logs, which round-trip).
// Both render non-finite values, which JSON cannot express, as the quoted
// strings "NaN", "+Inf" and "-Inf".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace simmr::obs {

/// Room the Format*Number functions need at `out`.
inline constexpr std::size_t kMaxJsonNumberChars = 32;

/// Writes value in the "%.12g" form (non-finite values quoted) and returns
/// the end of what was written.
char* FormatJsonNumber(char* out, double value);

/// Writes the shortest of the "%.15g"/"%.16g"/"%.17g" forms that parses
/// back to the identical bits (non-finite values quoted).
char* FormatExactJsonNumber(char* out, double value);

class JsonWriter {
 public:
  static constexpr std::size_t kBufferSize = 64 * 1024;

  /// Appends everything written to `out`.
  explicit JsonWriter(std::string& out);
  /// Writes everything to `file`, which stays open and owned by the caller.
  explicit JsonWriter(std::FILE* file);
  /// Drains what is left; check Flush() first to see a failed file write.
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void Raw(std::string_view text) {
    if (text.size() <= static_cast<std::size_t>(end_ - pos_)) {
      std::char_traits<char>::copy(pos_, text.data(), text.size());
      pos_ += text.size();
    } else {
      RawSlow(text);
    }
  }
  void Char(char c) {
    Room(1);
    *pos_++ = c;
  }
  /// A quoted, escaped string literal.
  void String(std::string_view s) {
    Char('"');
    Escaped(s);
    Char('"');
  }
  /// The escaped contents of a string literal, without the quotes.
  void Escaped(std::string_view s);
  void Int(std::int64_t value);
  void UInt(std::uint64_t value);
  void Number(double value) {
    pos_ = FormatJsonNumber(Room(kMaxJsonNumberChars), value);
  }
  void ExactNumber(double value) {
    pos_ = FormatExactJsonNumber(Room(kMaxJsonNumberChars), value);
  }

  /// Drains the buffer into the sink. False when a file write has failed,
  /// now or at an earlier drain.
  bool Flush();

 private:
  /// At least `n` (<= kBufferSize) free bytes at the returned cursor.
  char* Room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - pos_) < n) Drain();
    return pos_;
  }
  void Drain();
  void RawSlow(std::string_view text);

  std::unique_ptr<char[]> buffer_;
  char* pos_;
  char* end_;
  std::string* string_ = nullptr;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
};

/// Escapes a string for inclusion inside a JSON double-quoted literal
/// (quotes, backslashes and control characters).
std::string JsonEscape(std::string_view s);

/// FormatJsonNumber as a string.
std::string JsonNumber(double value);

/// FormatExactJsonNumber as a string.
std::string ExactJsonNumber(double value);

namespace json_detail {
std::FILE* OpenForWriting(const std::string& path, const char* what);
void FinishWriting(std::FILE* file, bool ok, const std::string& path,
                   const char* what);
}  // namespace json_detail

/// Opens `path` for writing, runs `write` on a JsonWriter over it, and
/// closes it. Throws std::runtime_error naming `what` and the path when
/// the file cannot be opened or written.
template <class WriteFn>
void WriteJsonFile(const std::string& path, const char* what,
                   WriteFn&& write) {
  std::FILE* file = json_detail::OpenForWriting(path, what);
  bool ok = false;
  try {
    JsonWriter out(file);
    write(out);
    ok = out.Flush();
  } catch (...) {
    std::fclose(file);
    throw;
  }
  json_detail::FinishWriting(file, ok, path, what);
}

}  // namespace simmr::obs
