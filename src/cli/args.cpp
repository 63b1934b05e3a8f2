#include "cli/args.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

namespace simsweep::cli {

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Single-row Wagner–Fischer; flag names are short, so O(|a|·|b|) is fine.
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

std::string suggest_flag(const std::string& unknown,
                         const std::vector<std::string>& vocabulary) {
  // Accept a suggestion only when the typo is small relative to the name:
  // --trails → --trials, but --frobnicate suggests nothing.
  const std::size_t cap = std::max<std::size_t>(1, unknown.size() / 3);
  std::string best;
  std::size_t best_distance = cap + 1;
  for (const std::string& candidate : vocabulary) {
    const std::size_t d = edit_distance(unknown, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

Args::Args(std::vector<std::string> tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (body.empty())
      throw std::invalid_argument("Args: bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      flags_[body] = tokens[++i];
    } else {
      flags_[body] = "";  // boolean flag
    }
  }
  for (const auto& [name, _] : flags_) consumed_[name] = false;
}

std::optional<std::string> Args::raw(const std::string& flag) {
  queried_.insert(flag);
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  consumed_[flag] = true;
  return it->second;
}

bool Args::has(const std::string& flag) const {
  queried_.insert(flag);
  return flags_.contains(flag);
}

std::string Args::get_string(const std::string& flag,
                             const std::string& fallback) {
  const auto v = raw(flag);
  return v ? *v : fallback;
}

namespace {

/// Whole-string finite double; `what` names the flag's expectation in the
/// error ("a number", "numbers").  strtod accepts "nan" and "inf", which no
/// flag means, so they are rejected like any other non-number.
double parse_finite(const std::string& flag, const std::string& text,
                    const char* what) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw std::invalid_argument("Args: --" + flag + " expects " + what +
                                ", got '" + text + "'");
  if (!std::isfinite(parsed))
    throw std::invalid_argument("Args: --" + flag + " must be finite, got '" +
                                text + "'");
  return parsed;
}

long parse_long(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    throw std::invalid_argument("Args: --" + flag +
                                " expects an integer, got '" + text + "'");
  return parsed;
}

}  // namespace

double Args::get_double(const std::string& flag, double fallback) {
  const auto v = raw(flag);
  return v ? parse_finite(flag, *v, "a number") : fallback;
}

long Args::get_int(const std::string& flag, long fallback) {
  const auto v = raw(flag);
  return v ? parse_long(flag, *v) : fallback;
}

std::uint64_t Args::get_count(const std::string& flag, std::uint64_t fallback) {
  const auto v = raw(flag);
  if (!v) return fallback;
  const long parsed = parse_long(flag, *v);
  if (parsed < 0)
    throw std::invalid_argument("--" + flag + " must be >= 0, got " +
                                std::to_string(parsed));
  return static_cast<std::uint64_t>(parsed);
}

bool Args::get_bool(const std::string& flag) {
  const auto v = raw(flag);
  if (!v) return false;
  if (v->empty() || *v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  throw std::invalid_argument("Args: --" + flag + " expects a boolean, got '" +
                              *v + "'");
}

std::vector<double> Args::get_double_list(const std::string& flag,
                                          const std::vector<double>& fallback) {
  const auto v = raw(flag);
  if (!v) return fallback;
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= v->size()) {
    const std::size_t comma = v->find(',', start);
    const std::string item =
        v->substr(start, comma == std::string::npos ? std::string::npos
                                                    : comma - start);
    if (item.empty())
      throw std::invalid_argument("Args: --" + flag + " has an empty element");
    out.push_back(parse_finite(flag, item, "numbers"));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> Args::unused_flags() const {
  std::vector<std::string> out;
  for (const auto& [name, used] : consumed_)
    if (!used) out.push_back(name);
  return out;
}

std::vector<std::string> Args::queried_flags() const {
  return {queried_.begin(), queried_.end()};
}

}  // namespace simsweep::cli
