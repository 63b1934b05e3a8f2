// Benchmark workloads and the runs the benchmark times.
//
// A workload is a fixed list of scenario files under simbench/workloads/ plus
// how its trials fan out.  Every run goes through the library's public entry
// points: scenario::load_scenario_file + materialize, then one
// core::run_trials_results call per (cell, trial), so the benchmark measures
// exactly what a caller of the library pays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "core/experiment.hpp"
#include "core/trial_runner.hpp"
#include "fault/fault.hpp"
#include "load/load_model.hpp"
#include "net/shared_link.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "platform/cluster.hpp"
#include "scenario/scenario.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "strategy/strategy.hpp"

namespace simbench {

namespace ss = simsweep;

/// The seed every shipped scenario uses; reference makespans are recorded at
/// it.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct LoadedScenario {
  ss::scenario::ScenarioSpec spec;
  ss::scenario::MaterializedGrid grid;
};

/// One trial of one cell: the unit of work the trial pool runs.
struct Item {
  std::size_t scenario = 0;
  std::size_t cell = 0;
  std::size_t trial = 0;
};

struct Workload {
  /// Trials fan out over min(4, nproc) workers; otherwise they run serially.
  bool pooled = false;
  std::vector<LoadedScenario> scenarios;
  std::vector<Item> items;  ///< scenario-major, then cell, then trial

  [[nodiscard]] const ss::scenario::Cell& cell(const Item& item) const;
  /// The cell's config with trial `item.trial`'s seed (base seed + trial).
  [[nodiscard]] ss::core::ExperimentConfig trial_config(const Item& item) const;
  /// "scenario<TAB>cell label<TAB>trial": the reference-file key.
  [[nodiscard]] std::string key(const Item& item) const;
};

/// Loads and materializes `name`'s scenarios from `dir` with every scenario's
/// seed replaced by `seed`.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload load_workload(const std::string& name,
                                     const std::string& dir,
                                     std::uint64_t seed);

enum class Mode {
  kPlain,     ///< what a user pays for `bench`
  kObserved,  ///< with ExperimentConfig::obs.metrics on
  kTraced,    ///< metrics on and audit::AuditMode::kFail
};

/// What one trial produced.  A trial that threw is `failed` with the reason.
struct Outcome {
  double makespan_s = 0.0;
  std::size_t adaptations = 0;
  std::size_t recoveries = 0;
  bool failed = false;
  std::string error;
  std::shared_ptr<ss::obs::MetricsRegistry> metrics;  ///< null in kPlain
};

/// Runs every item of `workload` on `runner`, one run_trials_results call
/// each, results in item order.
[[nodiscard]] std::vector<Outcome> run_workload(const Workload& workload,
                                                Mode mode,
                                                ss::core::TrialRunner& runner);

/// Folds per-trial registries in item order, as core::merge_trial_metrics
/// does, and returns the snapshot JSON.
[[nodiscard]] std::string merged_metrics_json(
    const std::vector<Outcome>& outcomes);

/// Host seconds spent in each public construction call of a trial, summed
/// over the trials built.
struct SetupSpans {
  double scenario_s = 0.0;  ///< load_scenario_file + materialize
  double cluster_s = 0.0;   ///< platform::Cluster
  double attach_s = 0.0;    ///< load::LoadModel::attach_all
  double network_s = 0.0;   ///< net::SharedLinkNetwork
  double fault_s = 0.0;     ///< fault::FaultInjector + arm
  double launch_s = 0.0;    ///< Strategy::launch

  [[nodiscard]] double total() const {
    return scenario_s + cluster_s + attach_s + network_s + fault_s + launch_s;
  }
};

/// One trial assembled from the same public calls, in the same order, as
/// core::run_single, so its construction can be timed call by call and its
/// result checked against run_single's.
class ComposedTrial {
 public:
  /// Builds the trial up to the first event, adding each construction call's
  /// host time to `spans`.  `timeline` (may be null) is attached before any
  /// subsystem is built, as run_single does with its own tracer.  `config`
  /// must outlive the trial.
  ComposedTrial(const ss::core::ExperimentConfig& config,
                const ss::load::LoadModel& model, ss::strategy::Strategy& strat,
                SetupSpans& spans, ss::obs::TimelineTracer* timeline);
  ComposedTrial(const ComposedTrial&) = delete;
  ComposedTrial& operator=(const ComposedTrial&) = delete;

  /// Runs the event loop to completion and returns the result with
  /// run_single's end-of-run fix-ups applied.
  [[nodiscard]] ss::strategy::RunResult run();

  [[nodiscard]] std::uint64_t events_fired() const noexcept {
    return simulator_.events_fired();
  }

 private:
  const ss::core::ExperimentConfig& config_;
  ss::audit::InvariantAuditor auditor_;
  ss::sim::Simulator simulator_;
  ss::sim::Rng platform_rng_;
  std::unique_ptr<ss::platform::Cluster> cluster_;
  std::vector<std::unique_ptr<ss::load::LoadSource>> sources_;
  std::unique_ptr<ss::net::SharedLinkNetwork> network_;
  std::unique_ptr<ss::fault::FaultInjector> injector_;
  std::unique_ptr<ss::strategy::StrategyContext> ctx_;
  std::unique_ptr<ss::strategy::IterativeExecution> exec_;
};

/// Reference makespans keyed by Workload::key, read from / written to a
/// tab-separated file (key columns, then the makespan in shortest
/// round-trip form).
using ReferenceTable = std::vector<std::pair<std::string, double>>;
[[nodiscard]] ReferenceTable read_reference(const std::string& path);
void write_reference(const std::string& path, const ReferenceTable& table);

}  // namespace simbench
