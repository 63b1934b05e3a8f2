// Typed, strict read-back of every JSON artifact the simulator emits: the
// one reader of each artifact schema.  Each loader inverts its emitter
// through resilience::parse_json (a loaded double is bitwise the one the
// simulator wrote) and enforces the schema while it reads: keys and their
// order, value kinds, the provenance block, and cross-field invariants (one
// more histogram count than bounds, status cells that add up, journal
// records that repeat their header's seed).  A violation throws
// ArtifactError naming the file and the rule.
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
#include "obs/provenance.hpp"

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

using MetricsModel = obs::MetricsSnapshot;

/// Timelines are too big to model event-by-event; the summary facts suffice.
struct TimelineModel {
  std::size_t events = 0;     ///< traceEvents entries (metadata included)
  std::size_t processes = 0;  ///< distinct pids
  double span_us = 0.0;       ///< max(ts + dur) over duration events
};

struct ProfileModel {
  struct Worker {
    std::size_t worker = 0, tasks = 0;
    double busy_s = 0.0, utilization = 0.0;
  };
  std::size_t tasks = 0;
  double wall_s = 0.0;
  double mean_task_s = 0.0, min_task_s = 0.0, max_task_s = 0.0;
  double mean_queue_wait_s = 0.0, max_queue_wait_s = 0.0;
  std::vector<Worker> workers;
};

struct JournalModel {
  std::string scenario;
  std::uint64_t version = 0;
  std::string sweep_digest;
  std::uint64_t seed = 0;
  std::size_t trials = 0, points = 0, cells_total = 0;

  struct Cell {
    std::size_t index = 0;
    std::string key;
    std::string label;
    std::string outcome;
    core::TrialStats stats;
    std::optional<MetricsModel> metrics;  ///< embedded snapshot (no meta)
    std::optional<std::string> timeline;  ///< traceEvents fragment
    std::string raw;                      ///< the record line, verbatim
  };
  /// Recorded cells, index order, last record per index (the resume rule).
  std::vector<Cell> cells;
};

struct QuarantineModel {
  struct Record {
    std::size_t index = 0;
    std::string key, label, outcome, error;
    std::uint64_t seed = 0;
    std::size_t trials = 0, attempts = 0;
  };
  std::vector<Record> records;
};

struct StatusModel {
  std::string scenario;
  std::string state;  ///< "running" | "done" | "interrupted"
  double heartbeat_unix_s = 0.0;
  double elapsed_s = 0.0;
  double heartbeat_s = 0.0;
  std::size_t jobs = 0, trials = 0;
  std::size_t cells_total = 0, cells_done = 0, cells_reused = 0;
  std::size_t cells_executed = 0, cells_in_flight = 0;
  std::size_t retries = 0, quarantined = 0;
  struct Group {
    std::string name;
    std::size_t done = 0, total = 0;
  };
  std::vector<Group> groups;
  double ewma_cell_s = 0.0, eta_s = 0.0, percent = 0.0;
  std::vector<ProfileModel::Worker> workers;
};

struct SeriesModel {
  std::string title, x_label;
  std::vector<double> x;
  struct Series {
    std::string name;
    std::vector<double> makespan;     ///< NaN where the JSON held null
    std::vector<double> adaptations;  ///< NaN where the JSON held null
  };
  std::vector<Series> series;
};

/// One loaded artifact.  Only the member matching `kind` is populated.
struct Artifact {
  ArtifactKind kind = ArtifactKind::kMetrics;
  std::string path;
  /// The provenance block; every file artifact except the journal has one.
  std::optional<obs::Provenance> meta;

  MetricsModel metrics;
  TimelineModel timeline;
  ProfileModel profile;
  JournalModel journal;
  QuarantineModel quarantine;
  StatusModel status;
  SeriesModel series;
  core::TrialStats stats;  ///< doubles written as null read as NaN
};

/// Loads `path`, sniffs the artifact kind from the document structure (a
/// "kind" member, or the emitter's distinctive top-level keys), checks it
/// against that kind's schema and parses it into the matching typed model.
/// Throws ArtifactError on a missing file, malformed JSON, an unrecognizable
/// document or a schema violation.  A torn final journal line (a write that
/// was never durable) is ignored, exactly as `--resume` ignores it.
[[nodiscard]] Artifact load_artifact(const std::string& path);

}  // namespace simsweep::report
