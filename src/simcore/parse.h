// Whole-token number parsing for the line-based text readers (job
// profiles, fault plans, fuzzer reproducers): each reader words its own
// error, and all of them accept exactly the same numbers.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace simmr {

/// Parses all of `token` as a T with std::from_chars, or returns nullopt:
/// no blank, no leading '+', no trailing characters ("263abc"), nothing
/// out of T's range, no '-' on an unsigned T, and only finite doubles.
template <typename T>
std::optional<T> ParseWhole(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace simmr
