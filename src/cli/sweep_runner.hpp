// Crash-safe, resumable sweep orchestration over a declarative scenario.
//
// A sweep is any Kind::kGrid ScenarioSpec — `simsweep run` (a one-cell
// scenario), the classic `simsweep sweep` dynamism grid, every `simsweep
// bench` figure/ablation, and the golden fixtures all route through here.
// The unit of work is one trial: trial t of a cell is one task on a single
// core::TrialRunner, running core::run_single at the cell's seed + t, and
// whichever worker finishes a cell's last trial reduces, merges and
// journals the cell in trial order.  One pathological cell (axis point ×
// variant) used to cost the whole grid; this runner makes the sweep an
// interruptible, resumable unit of work:
//
//   * every completed cell appends one self-contained record to a
//     crash-consistent journal (resilience::JournalWriter), carrying its
//     stats and — when requested — its serialized metrics snapshot and
//     timeline fragment;
//   * `--resume=FILE` replays matching records instead of re-simulating,
//     and the final artifacts are assembled from per-cell canonical data in
//     cell-index order either way, so an interrupted-then-resumed sweep is
//     byte-identical to an uninterrupted one at any --jobs;
//   * a wall-clock watchdog (resilience::Watchdog) cancels trials that
//     exceed --trial-timeout cooperatively, failed/hung trials retry with
//     capped backoff, and a trial that exhausts the budget quarantines its
//     cell while the sweep continues degraded;
//   * SIGINT/SIGTERM (or the deterministic stop_after_cells test hook)
//     stop starting new cells (a started cell runs all its trials), flush
//     the journal, and mark every artifact's provenance "partial":true.
//
// Journal records are keyed by config_digest(cell config, cell key extra),
// and the header carries ScenarioSpec::digest() — the scenario name plus
// its full canonical serialization — so a resumed journal proves it
// describes the same experiment down to the load model and policy lineup.
//
// Factored out of main() so tests can drive interruption, resumption and
// fault injection in-process and compare artifact bytes directly.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "resilience/quarantine.hpp"
#include "scenario/scenario.hpp"

namespace simsweep::obs {
class StatusBoard;
}

namespace simsweep::cli {

/// Test/CI hooks; all inert by default.
struct SweepHooks {
  /// Stop claiming new cells once this many have been executed (not
  /// reused) in this process — a deterministic stand-in for SIGKILL in
  /// resume-identity tests.  0 = no limit.
  std::size_t stop_after_cells = 0;

  /// Cell indices whose every attempt throws (exercises retry exhaustion
  /// and the quarantine path).
  std::vector<std::size_t> inject_fail;

  /// Cell indices whose every attempt spins until the watchdog cancels it
  /// (exercises the hung-outcome path; requires trial_timeout_s > 0).
  std::vector<std::size_t> inject_hang;

  /// Polled before each cell; true stops the sweep gracefully.  Defaults
  /// to resilience::interrupted() (the SIGINT/SIGTERM flag).
  std::function<bool()> interrupted;
};

struct SweepPlan {
  scenario::ScenarioSpec spec;  ///< must be Kind::kGrid
  std::size_t trials = 0;       ///< trials per cell; 0 = spec.trials
  std::size_t jobs = 0;         ///< trial-level parallelism; 0 = default

  /// Invariant auditing applied to every cell (checks are read-only, so
  /// results are bitwise identical with auditing on or off).
  audit::AuditMode audit = audit::AuditMode::kOff;

  bool metrics = false;   ///< collect + merge per-cell metrics registries
  bool timeline = false;  ///< collect + splice per-cell timeline fragments
  /// Collect every trial's decision trace as JSON lines.  Not journaled: a
  /// resumed run re-executes the cells it replays.
  bool trace_decisions = false;

  double trial_timeout_s = 0.0;   ///< wall-clock budget per trial; 0 = off
  std::size_t trial_retries = 1;  ///< extra attempts before quarantine
  double retry_backoff_s = 0.1;   ///< first backoff; doubles, capped at 1 s

  std::string journal_path;  ///< write the journal here; "" = no journal
  std::string resume_path;   ///< replay this journal first; "" = fresh run

  /// Optional wall-clock profiler attached to the runner (one entry per
  /// executed trial).  Must outlive run_sweep.
  obs::TrialProfiler* profiler = nullptr;

  /// Optional live-telemetry board (--status): every cell lifecycle event
  /// is reported through a null check here, and the board periodically
  /// publishes an atomic status snapshot.  Status observation never touches
  /// the simulation, so results are bitwise identical with it on or off.
  /// Must outlive run_sweep.
  obs::StatusBoard* status = nullptr;

  SweepHooks hooks;
};

struct SweepResult {
  /// One SeriesReport per scenario ReportSpec (a scenario with none gets a
  /// default makespan report); quarantined/skipped cells hold NaN.
  std::vector<core::SeriesReport> reports;
  /// Paper expectation per report, parallel to `reports` (may span lines).
  std::vector<std::string> expectations;

  obs::Provenance provenance;  ///< partial flag already set

  /// Complete artifact bodies (trailing newline included); empty unless the
  /// corresponding plan switch was set.  Assembled from per-cell canonical
  /// data in cell-index order, so they are identical for a fresh and a
  /// resumed sweep.
  std::string metrics_json;
  std::string timeline_json;
  std::string decisions_jsonl;

  /// Per-cell stats in index order; empty for cells neither run nor reused.
  std::vector<std::optional<core::TrialStats>> stats;

  std::vector<resilience::QuarantineRecord> quarantined;  ///< index order

  std::size_t cells_total = 0;
  std::size_t cells_reused = 0;    ///< replayed from the resume journal
  std::size_t cells_executed = 0;  ///< simulated in this process
  std::size_t cells_skipped = 0;   ///< unclaimed due to interrupt/stop hook
  bool partial = false;            ///< some cell neither done nor quarantined
};

/// Runs (or resumes) the sweep described by `plan`.  Throws
/// report::ArtifactError when the resume journal breaks the journal schema,
/// std::runtime_error when it belongs to a different sweep,
/// scenario::ScenarioError when the spec is not a runnable grid,
/// std::invalid_argument on a malformed plan (empty axis, zero trials, hang
/// injection without a watchdog), and std::runtime_error when the scenario
/// forbids stalls and a cell deadlocked.
[[nodiscard]] SweepResult run_sweep(const SweepPlan& plan);

}  // namespace simsweep::cli
