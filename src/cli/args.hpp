// Minimal command-line parsing for the simsweep CLI.
//
// Supports `--name=value`, `--name value`, bare boolean `--flag`, and
// positional arguments.  Unknown-flag detection is the caller's job via
// unused_flags(), so each subcommand can own its flag set.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace simsweep::cli {

/// A supplied flag no subcommand getter ever consumed — i.e. a typo.  The
/// message carries a nearest-match suggestion when one is close enough;
/// flags() lists the offending names (without "--") for tests and tooling.
class UnknownFlagError : public std::invalid_argument {
 public:
  UnknownFlagError(const std::string& message, std::vector<std::string> flags)
      : std::invalid_argument(message), flags_(std::move(flags)) {}

  [[nodiscard]] const std::vector<std::string>& flags() const noexcept {
    return flags_;
  }

 private:
  std::vector<std::string> flags_;
};

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b);

/// The vocabulary entry closest to `unknown`, or "" when nothing is close
/// enough to plausibly be a typo (distance capped at ~1/3 of the length).
[[nodiscard]] std::string suggest_flag(
    const std::string& unknown, const std::vector<std::string>& vocabulary);

class Args {
 public:
  /// Parses argv-style input (argv[0] excluded).
  explicit Args(std::vector<std::string> tokens);

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& flag) const;

  /// Typed getters; throw std::invalid_argument on malformed values.
  /// Doubles must be finite: "nan" and "inf" are rejected.
  [[nodiscard]] std::string get_string(const std::string& flag,
                                       const std::string& fallback);
  [[nodiscard]] double get_double(const std::string& flag, double fallback);
  [[nodiscard]] long get_int(const std::string& flag, long fallback);
  [[nodiscard]] bool get_bool(const std::string& flag);

  /// Non-negative integer (counts, sizes, seeds): a negative value throws
  /// before the unsigned cast can wrap it into an absurd count or seed.
  [[nodiscard]] std::uint64_t get_count(const std::string& flag,
                                        std::uint64_t fallback);

  /// Comma-separated list of finite doubles (e.g. --points=0,0.1,0.5).
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& flag, const std::vector<double>& fallback);

  /// Comma-separated list of non-negative integers (e.g. cell indices);
  /// empty when the flag is absent.
  [[nodiscard]] std::vector<std::size_t> get_count_list(
      const std::string& flag);

  /// Flags that were supplied but never read; nonempty means a typo.
  [[nodiscard]] std::vector<std::string> unused_flags() const;

  /// Every flag name a getter has asked about so far (whether or not it was
  /// supplied), sorted — the suggestion vocabulary for unknown-flag errors.
  [[nodiscard]] std::vector<std::string> queried_flags() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& flag);
  /// Comma-separated elements, none empty; empty when the flag is absent.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& flag);

  std::map<std::string, std::string> flags_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> queried_;
};

}  // namespace simsweep::cli
