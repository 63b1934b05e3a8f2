// Analysis over loaded artifacts: summarize one run, diff two runs with
// tolerances (the CI regression gate), rank the hot spots, detect dead runs.
//
// Diffing flattens each artifact into "<section>/<name>[/<field>]" keys so
// two runs compare structurally, key by key, independent of member order.
// Tolerances are boundary-inclusive (|delta| <= abs_tol, or <= rel_tol *
// max(|a|,|b|)); both-NaN compares equal (a quarantined cell that stayed
// quarantined is not a regression), NaN-vs-number is a regression in either
// direction (a cell that disappeared, or one that came back changed).  For
// lower-is-better keys (makespan, time lost, waits) only growth beyond
// tolerance is a regression; direction-less keys treat any drift as one —
// this repo promises bitwise identity, so unexplained drift must gate.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "report/artifact.hpp"

namespace simsweep::report {

struct DiffOptions {
  double abs_tol = 0.0;  ///< absolute tolerance, boundary inclusive
  double rel_tol = 0.0;  ///< relative tolerance vs max(|a|,|b|), inclusive
};

enum class Verdict : std::uint8_t {
  kOk,        ///< equal within tolerance (or both NaN)
  kImproved,  ///< lower-is-better key decreased beyond tolerance
  kRegressed, ///< worse beyond tolerance, or NaN appeared/disappeared
  kChanged,   ///< direction-less key drifted beyond tolerance (gates)
  kMissing,   ///< key present in A, absent in B (gates)
  kAdded,     ///< key present only in B (informational)
};

[[nodiscard]] std::string_view to_string(Verdict verdict) noexcept;

struct KeyDelta {
  std::string key;
  double a = 0.0, b = 0.0;  ///< NaN when absent or null
  Verdict verdict = Verdict::kOk;
};

struct DiffResult {
  std::size_t compared = 0;    ///< keys present on both sides
  std::size_t within_tol = 0;  ///< of those, equal within tolerance
  /// Every non-kOk delta, key order.
  std::vector<KeyDelta> deltas;

  /// True when any delta gates (kRegressed, kChanged, or kMissing) —
  /// `report diff` exits 3 on this.
  [[nodiscard]] bool regression() const noexcept;
};

/// Flattens an artifact into (key, value) pairs for structural comparison.
/// Wall-clock values (profile/status durations, timeline spans) are
/// deliberately excluded — they differ between any two runs and would make
/// every diff fail; structural counts (tasks, cells, events) stay in.
[[nodiscard]] std::vector<std::pair<std::string, double>> flatten(
    const Artifact& artifact);

/// Structural diff of two artifacts of the same kind.  Throws
/// std::invalid_argument when the kinds differ.
[[nodiscard]] DiffResult diff_artifacts(const Artifact& a, const Artifact& b,
                                        const DiffOptions& options);

/// Writes the human diff report (one line per non-ok delta plus a summary
/// tail).
void print_diff(std::ostream& os, const Artifact& a, const Artifact& b,
                const DiffResult& result);

/// Human summary of one artifact (kind-specific table).
void print_summary(std::ostream& os, const Artifact& artifact);

/// Canonical JSON summary of one artifact (no trailing newline): kind,
/// meta, and the same headline numbers the human table shows.
void write_summary_json(std::ostream& os, const Artifact& artifact);

/// One ranked hot-spot entry from `top`.
struct TopEntry {
  std::string label;
  double value = 0.0;
  std::string unit;
};

/// The `limit` hottest entries of an artifact: journal → slowest cells by
/// mean makespan; metrics → fullest histogram buckets; profile and status →
/// busiest workers.  Throws std::invalid_argument for kinds with nothing to
/// rank.
[[nodiscard]] std::vector<TopEntry> top_entries(const Artifact& artifact,
                                                std::size_t limit);

/// Seconds since the snapshot's heartbeat at wall-clock time `now_unix_s`.
[[nodiscard]] double staleness_s(const obs::StatusSnapshot& status,
                                 double now_unix_s);

/// A run is stale when it claims to be live ("running") but its heartbeat
/// is older than `threshold_s` — the writer was SIGKILLed or is wedged.
[[nodiscard]] bool is_stale(const obs::StatusSnapshot& status,
                            double now_unix_s, double threshold_s);

}  // namespace simsweep::report
