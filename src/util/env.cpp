#include "util/env.hpp"

#include <cstdlib>

#include "util/log.hpp"
#include "util/string_utils.hpp"
#include "util/text_cursor.hpp"

namespace hidap {

// Whitespace around the number is tolerated (quoting artifacts in CI
// configs); any other stray character rejects the value.

long env_long(const char* name, long fallback, long min_value, long max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  long value = 0;
  if (parse_number(trim(raw), value) != std::errc{}) {
    HIDAP_LOG_WARN("%s=\"%s\" is not a valid integer; using %ld", name, raw, fallback);
    return fallback;
  }
  if (value < min_value || value > max_value) {
    const long clamped = value < min_value ? min_value : max_value;
    HIDAP_LOG_WARN("%s=%ld is outside [%ld, %ld]; clamping to %ld", name, value,
                   min_value, max_value, clamped);
    return clamped;
  }
  return value;
}

double env_double(const char* name, double fallback, double min_value,
                  double max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  double value = 0;
  if (parse_number(trim(raw), value) != std::errc{}) {
    HIDAP_LOG_WARN("%s=\"%s\" is not a valid number; using %g", name, raw, fallback);
    return fallback;
  }
  if (value < min_value || value > max_value) {
    const double clamped = value < min_value ? min_value : max_value;
    HIDAP_LOG_WARN("%s=%g is outside [%g, %g]; clamping to %g", name, value, min_value,
                   max_value, clamped);
    return clamped;
  }
  return value;
}

}  // namespace hidap
