// Test oracle: the observability writers' original number formatters,
// kept verbatim (renamed, header-only) so the differential test can check
// that the std::to_chars emitter in obs/json.h prints the same bytes.
//
// ReferenceExactJsonNumber prints with snprintf("%.15g") and re-parses
// with strtod, retrying at 16 and 17 digits; ReferenceJsonNumber is
// snprintf("%.12g"). They never ship in src/; change them only together
// with a deliberate change to a number format.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace simmr::obs {

inline std::string ReferenceExactJsonNumber(double value) {
  if (std::isnan(value)) return "\"NaN\"";
  if (value == std::numeric_limits<double>::infinity()) return "\"+Inf\"";
  if (value == -std::numeric_limits<double>::infinity()) return "\"-Inf\"";
  char buf[40];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

inline std::string ReferenceJsonNumber(double value) {
  if (value != value) return "\"NaN\"";
  if (value == std::numeric_limits<double>::infinity()) return "\"+Inf\"";
  if (value == -std::numeric_limits<double>::infinity()) return "\"-Inf\"";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace simmr::obs
