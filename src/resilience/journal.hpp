// Crash-consistent sweep journal: an append-only JSONL record of completed
// cells.
//
// The journal is the durability primitive behind `sweep --resume`: every
// completed cell appends one self-contained JSON line (cell digest, seed,
// outcome, serialized results), and the file is republished crash-
// consistently on every flush — the full contents are written to
// `<path>.tmp`, fsync'ed, and atomically renamed over `<path>`, so a reader
// only ever sees a complete journal from *some* prefix of the run, never a
// torn write.  SIGKILL at any instant loses at most the cells not yet
// flushed, and a resumed sweep replays the survivors byte-for-byte.
//
// The writer holds the lines in memory (a sweep journals one line per cell,
// hundreds at most) and is thread-safe: worker threads finishing cells call
// append() concurrently.  The writer stores opaque single-line strings;
// the lines' schema is JournalHeader and JournalRecord below, written by
// cli/sweep_runner and read by the typed journal loader
// (report::load_artifact).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "resilience/json_read.hpp"
#include "resilience/quarantine.hpp"

namespace simsweep::resilience {

/// What a valid list of trace events spans.
struct TraceFacts {
  std::size_t processes = 0;  ///< distinct pids
  double span_us = 0.0;       ///< max(ts + dur) over spans
};

/// The rules every event of a simsweep timeline keeps, as
/// obs::TimelineTracer writes it: phase "M", "X" or "i"; an integer
/// pid >= 1; a metadata event is named process_name or thread_name, any
/// other has a non-empty name and a number ts >= 0, and a span a number
/// dur >= 0; every pid has a process_name.  Returns the first rule `events`
/// breaks ("traceEvents[i] <rule>" or "pid <n> has no process_name"), or an
/// empty string after filling `facts`.  report::parse_timeline checks a
/// timeline file's events with it, and a journal record's walk the
/// fragment that sweep --resume splices into its timeline.
[[nodiscard]] std::string check_trace_events(
    const std::vector<JsonValue>& events, TraceFacts& facts);

/// check_trace_events over a journal record's timeline: the comma-joined
/// events obs::TimelineTracer::write_chrome_fragment wrote, at least one.
[[nodiscard]] std::string check_timeline_fragment(std::string_view fragment);

/// The journal's first line: which sweep the records belong to.
struct JournalHeader {
  std::uint64_t version = 0;
  std::string scenario;
  std::string sweep;  ///< ScenarioSpec::digest() of the sweep
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t points = 0;
  std::size_t cells = 0;
};

template <typename V>
void walk(V& v, JournalHeader& h) {
  std::string kind = "sweep-journal";
  v("kind", kind);
  if constexpr (V::kReading)
    v.check(kind == "sweep-journal", "kind is not sweep-journal");
  v("version", h.version);
  if constexpr (V::kReading) v.check(h.version >= 2, "version must be >= 2");
  v("scenario", h.scenario, obs::Accept::kNonEmpty);
  v("sweep", h.sweep, obs::Accept::kDigest);
  v("seed", h.seed);
  v("trials", h.trials);
  v("points", h.points);
  v("cells", h.cells);
  if constexpr (V::kReading)
    v.check(h.cells >= 1, "cells must be a positive integer");
}

/// One completed cell: everything a resumed sweep needs to replay it.
struct JournalRecord {
  std::size_t index = 0;
  std::string key;         ///< per-cell config digest
  std::uint64_t seed = 0;  ///< the header's seed, repeated
  std::size_t trials = 0;  ///< the header's trials, repeated
  std::string label;
  std::string outcome = "ok";
  core::TrialStats stats;
  /// The cell's merged metrics, stored as a JSON string (no meta block).
  std::optional<obs::MetricsSnapshot> metrics;
  /// The cell's traceEvents fragment, pids pre-assigned.
  std::optional<std::string> timeline;
};

/// A record is read against its journal's header.
template <typename V>
void walk(V& v, JournalRecord& r, const JournalHeader& header) {
  std::string kind = "cell";
  v("kind", kind);
  if constexpr (V::kReading) v.check(kind == "cell", "not a cell record");
  v("index", r.index);
  if constexpr (V::kReading)
    if (r.index >= header.cells)
      v.fail("index outside [0, " + std::to_string(header.cells) + ")");
  v("key", r.key, obs::Accept::kDigest);
  v("seed", r.seed);
  if constexpr (V::kReading)
    v.check(r.seed == header.seed, "seed differs from header");
  v("trials", r.trials);
  if constexpr (V::kReading)
    v.check(r.trials == header.trials, "trials differs from header");
  v("label", r.label);
  v("outcome", r.outcome);
  if constexpr (V::kReading) {
    bool known = false;
    for (const auto& entry : kOutcomeNames) known |= r.outcome == entry.second;
    if (!known) v.fail("unknown outcome '" + r.outcome + "'");
  }
  v.section("stats", r.stats);
  v.embedded("metrics", r.metrics);
  v("timeline", r.timeline, obs::Accept::kNonEmpty);
  if constexpr (V::kReading) {
    if (r.timeline) {
      const std::string rule = check_timeline_fragment(*r.timeline);
      if (!rule.empty()) v.fail("timeline: " + rule);
    }
  }
}

class JournalWriter {
 public:
  /// Binds the writer to `path`.  Nothing is written until the first
  /// append/flush; an existing file is only replaced then.
  explicit JournalWriter(std::string path);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record (must be a single line — no '\n') and, by default,
  /// flushes the whole journal durably.  Throws std::runtime_error when the
  /// temp file cannot be written or renamed.
  void append(std::string line, bool flush_now = true);

  /// Durably republishes the journal: write <path>.tmp, fsync, rename over
  /// <path>, fsync the directory.
  void flush();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t record_count() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

}  // namespace simsweep::resilience
