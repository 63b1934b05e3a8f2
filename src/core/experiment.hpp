// Top-level experiment API: configure a platform + load model + application,
// run strategies on it, repeat across seeds, and report series shaped like
// the paper's figures.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "app/app_spec.hpp"
#include "audit/auditor.hpp"
#include "fault/fault.hpp"
#include "load/load_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "platform/cluster.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::core {

/// Per-run observability switches.  Both collectors only *read* simulation
/// state, so an observed run is bitwise identical to a plain one.
struct ObsConfig {
  /// Attach a per-trial obs::MetricsRegistry (RunResult::metrics).
  bool metrics = false;

  /// Attach a per-trial obs::TimelineTracer (RunResult::timeline).
  bool timeline = false;
};

struct ExperimentConfig {
  platform::ClusterSpec cluster;
  app::AppSpec app;

  /// Over-allocated spare processors (M) granted to SWAP and CR.
  std::size_t spare_count = 0;

  /// Pre-execution scheduler policy (the paper's default ranks by current
  /// effective speed).
  strategy::InitialSchedule initial_schedule =
      strategy::InitialSchedule::kFastestEffective;

  /// Root seed; platform speeds, load sources and any strategy randomness
  /// all derive from it.
  std::uint64_t seed = 1;

  /// Safety cap on simulated time; runs that exceed it are reported
  /// unfinished with makespan == horizon.
  double horizon_s = 120.0 * 24.0 * 3600.0;

  /// Fault model (disabled by default).  When enabled each trial derives
  /// its fault streams from the trial seed, so fault histories are as
  /// deterministic as everything else.
  fault::FaultSpec faults;

  /// Safety cap on events fired per trial; a runaway simulation throws
  /// sim::EventBudgetExceeded instead of spinning forever.  0 = unlimited.
  std::uint64_t max_events = 250'000'000;

  /// Collect per-decision records (candidate swaps weighed, rejection
  /// reasons, recovery actions) into RunResult::decision_trace.  Tracing
  /// never touches the simulation, so makespans are identical either way.
  bool trace_decisions = false;

  /// Invariant auditing.  kOff (the default) skips every check; kFail
  /// throws audit::AuditFailure at the first violation; kWarn collects
  /// violations into RunResult::audit_report.  Audit checks are read-only —
  /// makespans are bitwise identical with auditing on or off.  When left
  /// kOff, the SIMSWEEP_AUDIT environment variable ("fail"/"warn") applies
  /// instead, so whole test suites can run audited without code changes.
  audit::AuditMode audit = audit::AuditMode::kOff;

  /// Observability collection (metrics registry / timeline tracer per
  /// trial).  Off by default: every instrumentation site is a null-pointer
  /// check, so a run without observability does no extra work.
  ObsConfig obs;
};

/// Deterministic hex digest of everything in `config` that shapes a run
/// except the seed (which provenance reports separately).  The load model
/// and strategy are not part of ExperimentConfig, so callers fold them in
/// through `extra` (canonically `model.describe() + ";" + strategy.name()`);
/// with that done, equal digests + equal seeds produce bitwise-identical
/// runs.
[[nodiscard]] std::string config_digest(const ExperimentConfig& config,
                                        std::string_view extra = {});

/// One simulated run of `strategy` under `model`.  Fully deterministic in
/// (config, model parameters, strategy).
[[nodiscard]] strategy::RunResult run_single(const ExperimentConfig& config,
                                             const load::LoadModel& model,
                                             strategy::Strategy& strategy);

/// Summary over repeated trials (seeds config.seed, config.seed+1, ...).
struct TrialStats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t trials = 0;
  std::size_t unfinished = 0;
  /// Runs whose simulation went idle before the horizon with the
  /// application unfinished (deadlocked strategies) or that gave up after
  /// exhausting recovery resources; always a subset of `unfinished`.
  std::size_t stalled = 0;
  /// Runs that gave up because no usable host remained for crash recovery;
  /// a subset of `stalled`.
  std::size_t resource_exhausted = 0;
  double mean_adaptations = 0.0;

  // Fault-injection aggregates; all zero when faults are disabled.
  double mean_crashes = 0.0;
  double mean_transfer_failures = 0.0;
  double mean_recoveries = 0.0;
  double mean_checkpoint_failures = 0.0;
  double mean_time_lost_s = 0.0;

  /// Total invariant violations collected across trials (warn-mode audits
  /// only; fail mode throws before reaching the reduction).
  std::size_t audit_violations = 0;

  /// One-line JSON object with every field above — the form `--json`
  /// prints and sweep journals store.  When `meta` is non-null the object
  /// leads with a "meta" provenance block.
  void print_json(std::ostream& os, const obs::Provenance* meta) const;
  void print_json(std::ostream& os) const { print_json(os, nullptr); }
};

/// Doubles may be null (non-finite), read back as NaN.
template <typename V>
void walk(V& v, TrialStats& s) {
  using obs::Accept;
  v("mean", s.mean, Accept::kNull);
  v("stddev", s.stddev, Accept::kNull);
  v("min", s.min, Accept::kNull);
  v("max", s.max, Accept::kNull);
  v("trials", s.trials);
  v("unfinished", s.unfinished);
  v("stalled", s.stalled);
  v("resource_exhausted", s.resource_exhausted);
  v("mean_adaptations", s.mean_adaptations, Accept::kNull);
  v("mean_crashes", s.mean_crashes, Accept::kNull);
  v("mean_transfer_failures", s.mean_transfer_failures, Accept::kNull);
  v("mean_recoveries", s.mean_recoveries, Accept::kNull);
  v("mean_checkpoint_failures", s.mean_checkpoint_failures, Accept::kNull);
  v("mean_time_lost_s", s.mean_time_lost_s, Accept::kNull);
  v("audit_violations", s.audit_violations);
  if constexpr (V::kReading)
    v.check(s.resource_exhausted <= s.stalled && s.stalled <= s.unfinished &&
                s.unfinished <= s.trials,
            "needs resource_exhausted <= stalled <= unfinished <= trials");
}

/// Folds per-trial results, in trial order, into summary statistics.
/// Variance uses Welford's online algorithm, so makespans around 1e9 s do
/// not suffer the catastrophic cancellation of the naive sum-of-squares
/// form.  Results arrive in trial order at any parallelism, so the stats
/// are bitwise identical at any `jobs`.
[[nodiscard]] TrialStats reduce_trials(
    const std::vector<strategy::RunResult>& results);

/// Runs `trials` independent trials (trial t with seed config.seed + t) on
/// a worker pool and returns their results in trial order; summary
/// statistics are reduce_trials() of the vector.  `jobs` == 0 uses the
/// process-wide shared pool (sized by SIMSWEEP_JOBS or hardware
/// concurrency); any other value runs on a dedicated pool of exactly that
/// many executors, so `jobs` == 1 runs every trial on the calling thread.
/// Requires `strategy.launch` to be safe to call concurrently, which holds
/// for all in-tree strategies (launch only reads configuration and builds
/// per-run state).  Throws std::invalid_argument for zero trials or more
/// than a result vector can hold.
[[nodiscard]] std::vector<strategy::RunResult> run_trials_results(
    ExperimentConfig config, const load::LoadModel& model,
    strategy::Strategy& strategy, std::size_t trials, std::size_t jobs = 1);

/// Folds the per-trial metrics registries of `results` into one snapshot,
/// in trial-index order — the same order regardless of --jobs, so the
/// merged snapshot is bitwise identical at any parallelism.  Trials without
/// a registry (obs disabled) are skipped.
[[nodiscard]] std::unique_ptr<obs::MetricsRegistry> merge_trial_metrics(
    const std::vector<strategy::RunResult>& results);

/// A figure-shaped result: one x axis, one y series per strategy.
struct SeriesReport {
  std::string title;
  std::string x_label;
  std::vector<double> x;
  struct Series {
    std::string name;
    std::vector<double> y;             ///< mean makespan per x point
    std::vector<double> adaptations;   ///< mean adaptation count per x point
  };
  std::vector<Series> series;

  /// Aligned human-readable table.
  void print_table(std::ostream& os) const;

  /// Machine-readable CSV block (x, then one column per series).
  void print_csv(std::ostream& os) const;

  /// Machine-readable JSON object: title, x_label, x, and per-series mean
  /// makespans and adaptation counts.  Doubles round-trip exactly.  When
  /// `meta` is non-null the object leads with a "meta" provenance block.
  void print_json(std::ostream& os, const obs::Provenance* meta) const;
  void print_json(std::ostream& os) const { print_json(os, nullptr); }
};

/// A series is read back with one entry per x point in each column, null
/// (a cell that never ran) as NaN.
template <typename V>
void walk(V& v, SeriesReport::Series& s, std::size_t points) {
  v("name", s.name);
  v("mean_makespan_s", s.y, obs::Accept::kNull, points);
  v("mean_adaptations", s.adaptations, obs::Accept::kNull, points);
}

template <typename V>
void walk(V& v, SeriesReport& r) {
  v("title", r.title);
  v("x_label", r.x_label);
  v("x", r.x, "x entry");
  v.list("series", r.series, obs::Need::kRequired,
         [points = r.x.size()](auto& s, SeriesReport::Series& series,
                               std::size_t) { walk(s, series, points); });
}

}  // namespace simsweep::core
