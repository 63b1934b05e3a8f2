// Typed read-back of every JSON artifact the simulator emits.
//
// PR 5/6 gave the repo rich artifacts — metrics snapshots, Chrome
// timelines, trial-engine profiles, sweep journals, quarantine reports —
// and PR 10 adds live status snapshots; until now nothing in-tree could
// read any of them back.  This library inverts the emitters through the
// same minimal JSON reader the resume path trusts
// (resilience::parse_json), so a value loaded here compares bitwise-equal
// to the double the simulator wrote (shortest round-trip out, from_chars
// back in).  `load_artifact` sniffs the kind from the document structure —
// no filename conventions — and returns one typed model per kind.
//
// Consumers: `simsweep report` (summary / diff / top), `simsweep status`,
// and tests that want to assert on artifact contents without regexes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace simsweep::resilience {
class JsonValue;
}

namespace simsweep::report {

enum class ArtifactKind : std::uint8_t {
  kMetrics,     ///< merged metrics snapshot (--metrics)
  kTimeline,    ///< Chrome trace-event timeline (--timeline)
  kProfile,     ///< trial-engine wall-clock profile (--profile-json)
  kJournal,     ///< sweep journal, JSONL (--journal)
  kQuarantine,  ///< quarantine report (--quarantine)
  kStatus,      ///< live status snapshot (--status)
  kSeries,      ///< a SeriesReport printed with --json
};

[[nodiscard]] std::string_view to_string(ArtifactKind kind) noexcept;

/// The provenance "meta" block, when the artifact carries one.
struct Meta {
  bool present = false;
  std::string version;
  std::string build_type;
  std::uint64_t seed = 0;
  std::string config_digest;
  bool partial = false;
};

struct MetricsModel {
  struct Gauge {
    double last = 0.0, min = 0.0, max = 0.0;
  };
  struct Histogram {
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    std::vector<double> bounds;           ///< upper bucket bounds
    std::vector<std::uint64_t> counts;    ///< bounds.size() + 1 buckets
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
};

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
  };
  /// Completed cells, index order, last record per index (the resume rule).
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
  Meta meta;

  MetricsModel metrics;
  TimelineModel timeline;
  ProfileModel profile;
  JournalModel journal;
  QuarantineModel quarantine;
  StatusModel status;
  SeriesModel series;
};

/// Reads back a TrialStats::print_json object (its fields, not the meta
/// block).  Null-tolerant: doubles written as null (non-finite) read as
/// NaN; every finite double reads back bitwise-equal.
[[nodiscard]] core::TrialStats parse_stats(const resilience::JsonValue& v);

/// Loads `path`, sniffs the artifact kind from the document structure (a
/// "kind" member, or the emitter's distinctive top-level keys), and parses
/// it into the matching typed model.  Throws std::runtime_error on missing
/// files and unrecognizable documents, resilience::JsonError on malformed
/// JSON.
[[nodiscard]] Artifact load_artifact(const std::string& path);

}  // namespace simsweep::report
