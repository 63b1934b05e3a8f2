// Whole-string number parsing shared by CLI flags, SIMSWEEP_* environment
// variables and the JSON reader's integer tokens, so "2x", "-3", "2.7" and
// "inf" fail the same way wherever a count or a duration is read.  `what`
// names the flag ("--trials") or the variable ("SIMSWEEP_JOBS") in the
// std::invalid_argument message.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace simsweep::core {

/// Non-negative decimal integer spanning all of `text`, or nullopt (also
/// for values >= 2^64).
inline std::optional<std::uint64_t> to_count(std::string_view text) noexcept {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

/// to_count, or std::invalid_argument naming `what`.
inline std::uint64_t parse_count(const std::string& text,
                                 const std::string& what) {
  if (const std::optional<std::uint64_t> out = to_count(text)) return *out;
  throw std::invalid_argument(what + " expects a non-negative integer, got '" +
                              text + "'");
}

/// Finite double spanning all of `text` (strtod also accepts "nan" and
/// "inf", which no flag or variable means).
inline double parse_finite(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw std::invalid_argument(what + " expects a number, got '" + text + "'");
  if (!std::isfinite(parsed))
    throw std::invalid_argument(what + " must be finite, got '" + text + "'");
  return parsed;
}

/// The environment variable's value, or nullptr when it is unset or empty.
inline const char* env_value(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : nullptr;
}

}  // namespace simsweep::core
