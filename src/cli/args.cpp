#include "cli/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/parse.hpp"

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
  return v ? core::parse_finite(*v, "--" + flag) : fallback;
}

long Args::get_int(const std::string& flag, long fallback) {
  const auto v = raw(flag);
  return v ? parse_long(flag, *v) : fallback;
}

std::uint64_t Args::get_count(const std::string& flag, std::uint64_t fallback) {
  const auto v = raw(flag);
  return v ? core::parse_count(*v, "--" + flag) : fallback;
}

bool Args::get_bool(const std::string& flag) {
  const auto v = raw(flag);
  if (!v) return false;
  if (v->empty() || *v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  throw std::invalid_argument("Args: --" + flag + " expects a boolean, got '" +
                              *v + "'");
}

std::vector<std::string> Args::get_list(const std::string& flag) {
  std::vector<std::string> out;
  const auto v = raw(flag);
  if (!v) return out;
  // The sentinel comma makes a trailing (or lone) empty element visible.
  std::istringstream in(*v + ",");
  for (std::string item; std::getline(in, item, ',');) {
    if (item.empty())
      throw std::invalid_argument("Args: --" + flag + " has an empty element");
    out.push_back(item);
  }
  return out;
}

std::vector<double> Args::get_double_list(const std::string& flag,
                                          const std::vector<double>& fallback) {
  if (!has(flag)) return fallback;
  std::vector<double> out;
  for (const std::string& item : get_list(flag))
    out.push_back(core::parse_finite(item, "--" + flag));
  return out;
}

std::vector<std::size_t> Args::get_count_list(const std::string& flag) {
  std::vector<std::size_t> out;
  for (const std::string& item : get_list(flag))
    out.push_back(
        static_cast<std::size_t>(core::parse_count(item, "--" + flag)));
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
