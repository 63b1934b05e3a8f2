// Typed, strict read-back of every JSON artifact the simulator emits: the
// one reader of each artifact schema.  Each loader runs the emitter's own
// walk (the struct's `walk(V&, T&)`, which names its keys once) with a
// strict reader over resilience::parse_json, so a loaded double is bitwise
// the one the simulator wrote and the loaded struct is the one the emitter
// wrote.  The schema is enforced while reading: keys and their order, value
// kinds, the provenance block, and the cross-field rules each walk states
// under `if constexpr (V::kReading)` (one more histogram count than bounds,
// status cells that add up, journal records that repeat their header's
// seed).  A violation throws ArtifactError naming the file and the rule.
//
// Consumers: `simsweep report` (summary / diff / top / validate),
// `simsweep status`, `sweep --resume`, and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/status.hpp"
#include "resilience/journal.hpp"
#include "resilience/quarantine.hpp"
#include "strategy/decision_trace.hpp"

namespace simsweep::report {

enum class ArtifactKind : std::uint8_t {
  kMetrics,     ///< merged metrics snapshot (--metrics)
  kTimeline,    ///< Chrome trace-event timeline (--timeline)
  kProfile,     ///< trial-engine wall-clock profile (--profile-json)
  kJournal,     ///< sweep journal, JSONL (--journal)
  kQuarantine,  ///< quarantine report (--quarantine)
  kStatus,      ///< live status snapshot (--status)
  kSeries,      ///< a SeriesReport printed with --json (sweep)
  kStats,       ///< TrialStats printed with --json (run)
  kDecisions,   ///< decision trace, JSONL (--trace-decisions)
};

[[nodiscard]] std::string_view to_string(ArtifactKind kind) noexcept;

/// A malformed or unrecognizable artifact.  what() reads
/// "report: '<path>': <rule>".
class ArtifactError : public std::runtime_error {
 public:
  ArtifactError(const std::string& path, const std::string& rule)
      : std::runtime_error("report: '" + path + "': " + rule),
        path_(path),
        rule_(rule) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& rule() const noexcept { return rule_; }

 private:
  std::string path_;
  std::string rule_;
};

/// Timelines are too big to model event-by-event; the summary facts suffice.
struct TimelineModel {
  std::size_t events = 0;     ///< traceEvents entries (metadata included)
  std::size_t processes = 0;  ///< distinct pids
  double span_us = 0.0;       ///< max(ts + dur) over duration events
};

struct JournalModel {
  resilience::JournalHeader header;
  struct Cell {
    resilience::JournalRecord record;
    std::string raw;  ///< the record line, verbatim
  };
  /// Recorded cells, index order, last record per index (the resume rule).
  std::vector<Cell> cells;
};

/// One loaded artifact.  Only the member matching `kind` is populated;
/// doubles written as null read back as NaN.
struct Artifact {
  ArtifactKind kind = ArtifactKind::kMetrics;
  std::string path;
  /// The provenance block; every file artifact except the journal and the
  /// decision trace has one.
  std::optional<obs::Provenance> meta;

  obs::MetricsSnapshot metrics;
  TimelineModel timeline;
  obs::TrialProfiler::Report profile;
  JournalModel journal;
  std::vector<resilience::QuarantineRecord> quarantine;
  obs::StatusSnapshot status;
  core::SeriesReport series;
  core::TrialStats stats;
  std::vector<strategy::TraceLine> decisions;
};

/// Loads `path`, sniffs the artifact kind from the document structure (a
/// "kind" member, or the emitter's distinctive top-level keys), checks it
/// against that kind's schema and parses it into the matching typed model.
/// Throws ArtifactError on a missing file, malformed JSON, an unrecognizable
/// document or a schema violation.  A torn final journal line (a write that
/// was never durable) is ignored, exactly as `--resume` ignores it.  An
/// empty decision trace (a run that decided nothing writes no line) names
/// no kind and fails.
[[nodiscard]] Artifact load_artifact(const std::string& path);

}  // namespace simsweep::report
