// Declarative experiment scenarios: every figure, ablation and golden
// fixture as data.
//
// A ScenarioSpec captures everything that shapes an experiment — platform,
// application, load model, fault spec, strategy/policy lineup, the sweep
// axis and what it binds to, trial count, and the paper expectation — and
// round-trips through JSON bitwise: parse(serialize(s)) == s for every
// field, including doubles (numbers are written shortest-round-trip by
// obs::write_json_number and re-read with std::from_chars via
// resilience::parse_json).
//
// The same spec feeds three consumers that used to own divergent copies of
// this logic:
//   * `simsweep bench <name|file>` materializes the spec into a cell grid
//     and routes it through cli::run_sweep (journaling, --resume, watchdog,
//     retry/quarantine and metrics/timeline included);
//   * `simsweep run`/`sweep` build their flag defaults on top of a spec;
//   * the golden-identity tests load the shipped scenarios/golden_*.json
//     so goldens and benches can never drift.
//
// ScenarioSpec::digest() is the single provenance entry point: it folds the
// scenario name and the full canonical serialization (load model, strategy
// lineup, axis — everything) into core::config_digest, closing the gap
// where callers had to remember to pass `extra` by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "load/load_model.hpp"
#include "simcore/step_series.hpp"
#include "strategy/strategy.hpp"
#include "swap/policy.hpp"

namespace simsweep::scenario {

/// Malformed scenario text or an inconsistent spec.  Parse errors carry
/// "<source>:<line>:<col>: " context.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A scenario name that matches no registered scenario file.  Carries the
/// registry contents so callers can build a did-you-mean suggestion; the
/// CLI maps this to exit code 2.
class UnknownScenarioError : public ScenarioError {
 public:
  UnknownScenarioError(const std::string& message, std::string name,
                       std::vector<std::string> available)
      : ScenarioError(message),
        name_(std::move(name)),
        available_(std::move(available)) {}

  /// The name that failed to resolve (suggestion input).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] const std::vector<std::string>& available() const noexcept {
    return available_;
  }

 private:
  std::string name_;
  std::vector<std::string> available_;
};

/// What shape of experiment the scenario describes.  kGrid is the common
/// case (x-axis × variants, run through the sweep runner); the other kinds
/// cover the paper's illustrative figures whose output is not a series
/// report.
enum class Kind {
  kGrid,               ///< sweep axis × strategy variants -> SeriesReport(s)
  kPayback,            ///< fig 1: the payback-distance worked example
  kLoadTrace,          ///< figs 2/3: one host's load trace as CSV
  kDecisionHistogram,  ///< decision-trace rejection histogram per policy
};

/// The kind's JSON name ("grid", "payback", ...).
[[nodiscard]] const char* kind_name(Kind kind);

enum class LoadKind { kOnOff, kHyperExp, kReclaim, kTrace };

/// Declarative load model.  Only the fields of the active `kind` are
/// meaningful (and serialized); a reclamation model may wrap a base model.
struct LoadSpec {
  LoadKind kind = LoadKind::kOnOff;

  // kOnOff (paper defaults; OnOffParams::dynamism(x) == p = q = x).
  double p = 0.3;
  double q = 0.08;
  double step_s = 100.0;
  bool stationary_start = true;

  // kHyperExp.
  double mean_lifetime_s = 100.0;
  double long_prob = 0.2;
  double mean_interarrival_s = 200.0;

  // kReclaim.
  double mean_available_s = 7200.0;
  double mean_reclaimed_s = 600.0;
  bool start_available = true;
  std::shared_ptr<LoadSpec> base;  ///< competing load while available

  // kTrace: a measured load replayed inline (load::TraceModel), repeating
  // every period_s; each host starts at a random phase unless switched off.
  std::vector<sim::Sample> samples;
  double period_s = 0.0;
  bool random_phase = true;

  friend bool operator==(const LoadSpec& a, const LoadSpec& b);
  friend bool operator!=(const LoadSpec& a, const LoadSpec& b) {
    return !(a == b);
  }
};

/// Swap policy: a named paper base plus explicit overrides.  Only set
/// overrides serialize, so a spec stays diffable against the paper presets.
struct PolicySpec {
  std::string base = "greedy";  ///< greedy | safe | friendly
  std::optional<double> payback_threshold_iters;
  std::optional<double> min_process_improvement;
  std::optional<double> min_app_improvement;
  std::optional<double> history_window_s;
  std::optional<double> max_swaps_per_decision;

  bool operator==(const PolicySpec&) const = default;
};

enum class EstimatorKind {
  kPolicy,  ///< null estimator: the policy's own history window applies
  kWindow,  ///< flat averaging window of window_s seconds
  kEwma,    ///< forecast::make_ewma(tau_s)
  kMedian,  ///< forecast::make_sliding_median(k)
  kNws,     ///< forecast::make_default_ensemble()
};

struct EstimatorSpec {
  EstimatorKind kind = EstimatorKind::kPolicy;
  double window_s = 0.0;  ///< kWindow
  double tau_s = 120.0;   ///< kEwma
  std::size_t k = 5;      ///< kMedian

  bool operator==(const EstimatorSpec&) const = default;
};

enum class StrategyKind { kNone, kSwap, kDlb, kDlbSwap, kCr };

struct StrategySpec {
  StrategyKind kind = StrategyKind::kNone;
  PolicySpec policy;        ///< kSwap / kDlbSwap / kCr
  EstimatorSpec estimator;  ///< kSwap only
  bool guard = false;       ///< kSwap: eviction watchdog
  double stall_factor = 3.0;

  bool operator==(const StrategySpec&) const = default;
};

/// One report series (a line in the figure): which variant's column and
/// which statistic it plots.
enum class Metric {
  kMakespan,        ///< y = mean makespan, adaptations column alongside
  kAdaptations,     ///< y = mean adaptation count
  kCompletionRate,  ///< y = finished/trials, adaptations = mean recoveries
};

/// One plotted line of a grid scenario's report; `variant` indexes
/// ScenarioSpec::variants.
struct SeriesSpec {
  std::string name;
  std::size_t variant = 0;
  Metric metric = Metric::kMakespan;

  bool operator==(const SeriesSpec&) const = default;
};

/// One emitted report.  A scenario without explicit reports gets a default
/// one: spec title/expectation, one makespan series per variant.
struct ReportSpec {
  std::string title;
  std::string expectation;
  std::vector<SeriesSpec> series;

  bool operator==(const ReportSpec&) const = default;
};

/// Which knob the sweep-axis x values turn.
enum class AxisBinding {
  kNone,                    ///< single-point grids (golden fixtures)
  kLoadDynamism,            ///< ON/OFF p = q = x
  kSparesPercentOfActive,   ///< spares = round(active * x / 100)
  kHyperexpLifetime,        ///< mean lifetime = x (see interarrival_factor)
  kFaultMtbfHours,          ///< host MTBF = x hours (see on_positive_*)
  kReclaimedMinutes,        ///< mean reclaimed stretch = x minutes
  kPolicyPayback,           ///< payback_threshold_iters = x
  kPolicyHistoryWindow,     ///< history_window_s = x
  kPolicyMinProcess,        ///< min_process_improvement = x
  kPolicyMaxSwaps,          ///< max_swaps_per_decision = x
};

struct AxisSpec {
  std::string label = "x";  ///< report x_label
  AxisBinding binding = AxisBinding::kNone;
  std::vector<double> x;

  /// kHyperexpLifetime: when > 0, mean_interarrival_s = factor * x, so the
  /// axis varies persistence at constant offered load.
  double interarrival_factor = 0.0;

  /// kFaultMtbfHours: transient failure probabilities applied only at
  /// points with x > 0 (x == 0 disables fault injection bitwise).
  double on_positive_swap_fail_prob = 0.0;
  double on_positive_checkpoint_fail_prob = 0.0;

  bool operator==(const AxisSpec&) const = default;
};

/// One line of the strategy lineup, with optional per-variant overrides of
/// the base platform/load (fig 6 state sizes, per-dynamism ablations).
struct VariantSpec {
  std::string name;
  StrategySpec strategy;
  std::optional<double> state_mb;
  std::optional<LoadSpec> load;
  std::optional<strategy::InitialSchedule> initial_schedule;

  bool operator==(const VariantSpec&) const = default;
};

struct ScenarioSpec {
  std::string name;
  Kind kind = Kind::kGrid;
  std::string title;
  std::string expectation;  ///< may span lines for the trace kinds

  // Platform / application (paper defaults).
  std::size_t hosts = 32;
  std::size_t active = 4;
  std::size_t iterations = 60;
  double iter_minutes = 2.0;
  double state_mb = 1.0;
  double comm_kb = 100.0;
  std::size_t spares = 28;
  std::uint64_t seed = 1;
  double horizon_hours = 2880.0;
  strategy::InitialSchedule initial_schedule =
      strategy::InitialSchedule::kFastestEffective;
  std::uint64_t max_events = 250'000'000;

  // Fault injection (FaultSpec defaults; disabled unless mtbf_hours > 0 or
  // a probability is set).
  double mtbf_hours = 0.0;
  double swap_fail_prob = 0.0;
  double checkpoint_fail_prob = 0.0;
  std::size_t max_transfer_retries = 3;
  double retry_backoff_s = 2.0;
  double retry_backoff_cap_s = 120.0;
  std::size_t blacklist_after = 6;

  std::size_t trials = 8;
  /// Fail (throw) instead of reporting when any run stalls — a deadlocked
  /// strategy must not pollute a figure as an ordinary slow point.
  bool forbid_stalls = false;

  LoadSpec load;
  AxisSpec axis;
  std::vector<VariantSpec> variants;
  std::vector<ReportSpec> reports;

  // Kind::kPayback parameters.
  double payback_iter_s = 10.0;
  double payback_swap_s = 10.0;

  // Kind::kLoadTrace parameters.
  double trace_horizon_s = 2000.0;
  std::uint64_t trace_seed = 1;

  // Kind::kDecisionHistogram parameters.
  std::vector<std::string> histogram_policies;
  std::vector<double> histogram_dynamisms;

  bool operator==(const ScenarioSpec&) const = default;

  /// Provenance digest over everything that shapes the scenario's runs
  /// except the seed: the base ExperimentConfig plus the scenario name and
  /// its full canonical serialization, so the load model, strategy lineup
  /// and axis are always folded in (no caller-supplied `extra` to forget).
  [[nodiscard]] std::string digest() const;
};

/// Parses a scenario from JSON.  Strict: unknown keys, wrong value kinds
/// and inconsistent specs throw ScenarioError with "<source>:<line>:<col>"
/// context.  Bitwise: every number is kept as its raw token and re-read
/// with std::from_chars.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text,
                                          std::string_view source_name);

/// Reads and parses `path` (the file name becomes the error-context source).
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

/// Canonical JSON serialization: fixed key order, shortest-round-trip
/// numbers, optional fields only when set.  parse(serialize(s)) == s.
[[nodiscard]] std::string serialize_scenario(const ScenarioSpec& spec);

// ---------------------------------------------------------------------------
// Materialization: spec -> runnable objects.

/// The spec's base ExperimentConfig (no axis point or variant overrides
/// applied).  Throws std::invalid_argument when active + spares exceed the
/// host count, mirroring the CLI validation.
[[nodiscard]] core::ExperimentConfig base_config(const ScenarioSpec& spec);

[[nodiscard]] std::shared_ptr<const load::LoadModel> make_load_model(
    const LoadSpec& spec);

[[nodiscard]] swap::PolicyParams make_policy(const PolicySpec& spec);

[[nodiscard]] std::unique_ptr<strategy::Strategy> make_strategy(
    const StrategySpec& spec);

/// One runnable cell of a grid scenario: the config with every override and
/// axis binding applied, plus its model, strategy, human label and journal
/// key extra (fed to config_digest to key the cell's journal record).
struct Cell {
  core::ExperimentConfig config;
  std::shared_ptr<const load::LoadModel> model;
  std::shared_ptr<strategy::Strategy> strategy;
  std::string label;
  std::string key_extra;
};

struct MaterializedGrid {
  std::vector<double> points;
  std::string x_label;
  std::size_t variant_count = 0;
  std::vector<Cell> cells;  ///< points.size() * variant_count, x-major
  std::vector<ReportSpec> reports;  ///< defaulted when the spec had none
  std::string digest;               ///< ScenarioSpec::digest()
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  bool forbid_stalls = false;
};

/// Expands a Kind::kGrid scenario into its cell grid.  `trials_override`
/// (0 = use spec.trials) participates in the per-cell journal keys.
/// Throws ScenarioError for non-grid kinds or empty variants, and
/// std::invalid_argument for an empty axis, zero trials, a trial count
/// whose per-cell results or cells x trials tasks would not fit a vector
/// ("sweep: trial count N exceeds the limit of M for C cell(s)"), and a
/// config base_config rejects.
[[nodiscard]] MaterializedGrid materialize(const ScenarioSpec& spec,
                                           std::size_t trials_override = 0);

/// The classic `simsweep sweep` scenario: NONE/SWAP(greedy)/DLB/CR across
/// ON/OFF dynamism, paper platform defaults.
[[nodiscard]] ScenarioSpec sweep_scenario();

// ---------------------------------------------------------------------------
// Registry: shipped scenarios/*.json by name.

/// SIMSWEEP_SCENARIO_DIR when set and non-empty, else the compiled-in
/// source-tree scenarios/ directory.
[[nodiscard]] std::string default_scenario_dir();

/// Stems of every *.json in `dir`, sorted.  Missing directory = empty list.
[[nodiscard]] std::vector<std::string> list_scenarios(const std::string& dir);

/// Loads a scenario by registry name or explicit path.  Anything containing
/// a path separator or ending in ".json" is read as a file; otherwise
/// `dir/<name>.json` must exist (its spec name must equal the stem) or
/// UnknownScenarioError carrying the registry listing is thrown.
[[nodiscard]] ScenarioSpec find_scenario(const std::string& name_or_path,
                                         const std::string& dir);

}  // namespace simsweep::scenario
