// ScenarioSpec -> runnable objects: ExperimentConfig, load models, policies,
// strategies, and the expanded cell grid the sweep runner executes.
#include "scenario/scenario.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "load/hyperexp.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "load/reclamation.hpp"
#include "strategy/estimator.hpp"

namespace simsweep::scenario {

core::ExperimentConfig base_config(const ScenarioSpec& spec) {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = spec.hosts;
  cfg.app = app::AppSpec::with_iteration_minutes(spec.active, spec.iterations,
                                                 spec.iter_minutes);
  cfg.app.state_bytes_per_process = spec.state_mb * app::kMiB;
  cfg.app.comm_bytes_per_process = spec.comm_kb * app::kKiB;
  cfg.app.validate();
  cfg.spare_count = spec.spares;
  cfg.seed = spec.seed;
  if (!(spec.horizon_hours > 0.0))
    throw std::invalid_argument("config: horizon_hours must be > 0, got " +
                                load::describe_number(spec.horizon_hours));
  cfg.horizon_s = spec.horizon_hours * 3600.0;
  cfg.initial_schedule = spec.initial_schedule;
  cfg.max_events = spec.max_events;
  cfg.faults.host_mtbf_s = spec.mtbf_hours * 3600.0;
  cfg.faults.swap_fail_prob = spec.swap_fail_prob;
  cfg.faults.checkpoint_fail_prob = spec.checkpoint_fail_prob;
  cfg.faults.max_transfer_retries = spec.max_transfer_retries;
  cfg.faults.retry_backoff_s = spec.retry_backoff_s;
  cfg.faults.retry_backoff_cap_s = spec.retry_backoff_cap_s;
  cfg.faults.blacklist_after = spec.blacklist_after;
  cfg.faults.validate();
  if (spec.active + cfg.spare_count > cfg.cluster.host_count)
    throw std::invalid_argument("config: active + spares exceeds --hosts");
  return cfg;
}

std::shared_ptr<const load::LoadModel> make_load_model(const LoadSpec& spec) {
  switch (spec.kind) {
    case LoadKind::kOnOff: {
      load::OnOffParams params;
      params.p = spec.p;
      params.q = spec.q;
      params.step_s = spec.step_s;
      params.stationary_start = spec.stationary_start;
      return std::make_shared<load::OnOffModel>(params);
    }
    case LoadKind::kHyperExp: {
      load::HyperExpParams params;
      params.mean_lifetime_s = spec.mean_lifetime_s;
      params.long_prob = spec.long_prob;
      params.mean_interarrival_s = spec.mean_interarrival_s;
      return std::make_shared<load::HyperExpModel>(params);
    }
    case LoadKind::kReclaim: {
      load::ReclamationParams params;
      params.mean_available_s = spec.mean_available_s;
      params.mean_reclaimed_s = spec.mean_reclaimed_s;
      params.start_available = spec.start_available;
      std::shared_ptr<const load::LoadModel> base;
      if (spec.base != nullptr) base = make_load_model(*spec.base);
      return std::make_shared<load::ReclamationModel>(std::move(base), params);
    }
    case LoadKind::kTrace:
      return std::make_shared<load::TraceModel>(spec.samples, spec.period_s,
                                                spec.random_phase);
  }
  throw ScenarioError("scenario: unhandled load kind");
}

namespace {

/// Thresholds and windows are distances or fractions: never negative.
void require_non_negative(const char* field, const std::optional<double>& v) {
  if (v.has_value() && !(*v >= 0.0))
    throw ScenarioError(std::string("policy: '") + field +
                        "' must be >= 0, got " + load::describe_number(*v));
}

}  // namespace

swap::PolicyParams make_policy(const PolicySpec& spec) {
  swap::PolicyParams policy;
  if (spec.base == "greedy") {
    policy = swap::greedy_policy();
  } else if (spec.base == "safe") {
    policy = swap::safe_policy();
  } else if (spec.base == "friendly") {
    policy = swap::friendly_policy();
  } else {
    throw ScenarioError("unknown policy base '" + spec.base +
                        "' (greedy|safe|friendly)");
  }
  require_non_negative("payback_threshold_iters", spec.payback_threshold_iters);
  require_non_negative("min_process_improvement", spec.min_process_improvement);
  require_non_negative("min_app_improvement", spec.min_app_improvement);
  require_non_negative("history_window_s", spec.history_window_s);
  if (spec.payback_threshold_iters.has_value())
    policy.payback_threshold_iters = *spec.payback_threshold_iters;
  if (spec.min_process_improvement.has_value())
    policy.min_process_improvement = *spec.min_process_improvement;
  if (spec.min_app_improvement.has_value())
    policy.min_app_improvement = *spec.min_app_improvement;
  if (spec.history_window_s.has_value())
    policy.history_window_s = *spec.history_window_s;
  if (spec.max_swaps_per_decision.has_value()) {
    // A swap cap is a count: the cast below is only defined for whole
    // numbers that fit a size_t.
    const double cap = *spec.max_swaps_per_decision;
    if (!(cap >= 0.0) || cap != std::floor(cap) ||
        cap >= static_cast<double>(std::numeric_limits<std::size_t>::max()))
      throw ScenarioError(
          "policy: 'max_swaps_per_decision' must be a whole number in "
          "[0, 2^64), got " + load::describe_number(cap));
    policy.max_swaps_per_decision = static_cast<std::size_t>(cap);
  }
  return policy;
}

namespace {

/// The estimator's parameter is checked here, before any trial builds the
/// forecaster that would reject it mid-run.
std::shared_ptr<strategy::SpeedEstimator> make_estimator(
    const EstimatorSpec& spec) {
  switch (spec.kind) {
    case EstimatorKind::kPolicy:
      return nullptr;  // policy window semantics
    case EstimatorKind::kWindow:
      if (!(spec.window_s >= 0.0))
        throw ScenarioError("estimator: 'window_s' must be >= 0, got " +
                            load::describe_number(spec.window_s));
      return strategy::make_window_estimator(spec.window_s);
    case EstimatorKind::kEwma: {
      if (!(spec.tau_s > 0.0))
        throw ScenarioError("estimator: 'tau_s' must be > 0, got " +
                            load::describe_number(spec.tau_s));
      const double tau = spec.tau_s;
      return strategy::make_forecast_estimator(
          [tau] { return forecast::make_ewma(tau); },
          "ewma_" + std::to_string(static_cast<int>(tau)) + "s");
    }
    case EstimatorKind::kMedian: {
      if (spec.k < 1)
        throw ScenarioError("estimator: 'k' must be >= 1, got 0");
      const std::size_t k = spec.k;
      return strategy::make_forecast_estimator(
          [k] { return forecast::make_sliding_median(k); },
          "median_" + std::to_string(k));
    }
    case EstimatorKind::kNws:
      return strategy::make_forecast_estimator(
          [] { return forecast::make_default_ensemble(); }, "nws_adaptive");
  }
  throw ScenarioError("scenario: unhandled estimator kind");
}

}  // namespace

std::unique_ptr<strategy::Strategy> make_strategy(const StrategySpec& spec) {
  switch (spec.kind) {
    case StrategyKind::kNone:
      return std::make_unique<strategy::NoneStrategy>();
    case StrategyKind::kDlb:
      return std::make_unique<strategy::DlbStrategy>();
    case StrategyKind::kDlbSwap:
      return std::make_unique<strategy::DlbSwapStrategy>(
          make_policy(spec.policy));
    case StrategyKind::kCr:
      return std::make_unique<strategy::CrStrategy>(make_policy(spec.policy));
    case StrategyKind::kSwap: {
      if (!(spec.stall_factor > 0.0))
        throw ScenarioError("strategy: 'stall_factor' must be > 0, got " +
                            load::describe_number(spec.stall_factor));
      strategy::SwapOptions options;
      options.estimator = make_estimator(spec.estimator);
      options.eviction_guard = spec.guard;
      options.stall_factor = spec.stall_factor;
      return std::make_unique<strategy::SwapStrategy>(make_policy(spec.policy),
                                                      options);
    }
  }
  throw ScenarioError("scenario: unhandled strategy kind");
}

MaterializedGrid materialize(const ScenarioSpec& spec,
                             std::size_t trials_override) {
  if (spec.kind != Kind::kGrid)
    throw ScenarioError("scenario '" + spec.name +
                        "' is not a grid scenario and cannot be swept");
  if (spec.variants.empty())
    throw ScenarioError("scenario '" + spec.name + "' has no variants");
  // The empty-grid / zero-trials messages predate the scenario layer; the
  // resilience tests (and any caller catching them) pin the exact text.
  if (spec.axis.x.empty())
    throw std::invalid_argument("sweep: empty --points grid");
  const std::size_t trials =
      trials_override != 0 ? trials_override : spec.trials;
  if (trials == 0) throw std::invalid_argument("sweep: zero --trials");

  MaterializedGrid grid;
  grid.points = spec.axis.x;
  grid.x_label = spec.axis.label;
  grid.variant_count = spec.variants.size();
  grid.digest = spec.digest();
  grid.seed = spec.seed;
  grid.trials = trials;
  grid.forbid_stalls = spec.forbid_stalls;

  for (const double x : spec.axis.x) {
    for (const VariantSpec& variant : spec.variants) {
      Cell cell;
      cell.config = base_config(spec);
      if (variant.state_mb.has_value())
        cell.config.app.state_bytes_per_process = *variant.state_mb * app::kMiB;
      if (variant.initial_schedule.has_value())
        cell.config.initial_schedule = *variant.initial_schedule;
      cell.config.app.validate();

      LoadSpec load = variant.load.has_value() ? *variant.load : spec.load;
      StrategySpec strat = variant.strategy;

      switch (spec.axis.binding) {
        case AxisBinding::kNone:
          break;
        case AxisBinding::kLoadDynamism:
          if (load.kind != LoadKind::kOnOff)
            throw ScenarioError("scenario '" + spec.name +
                                "': axis binds load.dynamism but the load "
                                "model is not onoff");
          load.p = x;
          load.q = x;
          break;
        case AxisBinding::kSparesPercentOfActive: {
          // Checked before the cast, which is undefined for a negative or
          // huge count.  base_config guarantees hosts >= active.
          if (!(x >= 0.0))
            throw ScenarioError("scenario '" + spec.name + "': axis point " +
                                load::describe_number(x) +
                                "% is a negative over-allocation");
          const double spares =
              std::floor(static_cast<double>(spec.active) * x / 100.0 + 0.5);
          if (spares > static_cast<double>(spec.hosts - spec.active))
            throw ScenarioError("scenario '" + spec.name +
                                "': axis point " + load::describe_number(x) +
                                "% over-allocates beyond the host count");
          cell.config.spare_count = static_cast<std::size_t>(spares);
          break;
        }
        case AxisBinding::kHyperexpLifetime:
          if (load.kind != LoadKind::kHyperExp)
            throw ScenarioError("scenario '" + spec.name +
                                "': axis binds load.mean_lifetime_s but the "
                                "load model is not hyperexp");
          load.mean_lifetime_s = x;
          if (spec.axis.interarrival_factor > 0.0)
            load.mean_interarrival_s = spec.axis.interarrival_factor * x;
          break;
        case AxisBinding::kFaultMtbfHours:
          cell.config.faults.host_mtbf_s = x * 3600.0;
          if (x > 0.0) {
            cell.config.faults.swap_fail_prob =
                spec.axis.on_positive_swap_fail_prob;
            cell.config.faults.checkpoint_fail_prob =
                spec.axis.on_positive_checkpoint_fail_prob;
          }
          cell.config.faults.validate();
          break;
        case AxisBinding::kReclaimedMinutes:
          if (load.kind != LoadKind::kReclaim)
            throw ScenarioError("scenario '" + spec.name +
                                "': axis binds load.mean_reclaimed_min but "
                                "the load model is not reclaim");
          load.mean_reclaimed_s = x * 60.0;
          break;
        case AxisBinding::kPolicyPayback:
          strat.policy.payback_threshold_iters = x;
          break;
        case AxisBinding::kPolicyHistoryWindow:
          strat.policy.history_window_s = x;
          break;
        case AxisBinding::kPolicyMinProcess:
          strat.policy.min_process_improvement = x;
          break;
        case AxisBinding::kPolicyMaxSwaps:
          strat.policy.max_swaps_per_decision = x;
          break;
      }

      cell.model = make_load_model(load);
      cell.strategy = make_strategy(strat);
      cell.label = "x=" + load::describe_number(x) +
                   " strategy=" + variant.name;
      cell.key_extra = "cell;scenario=" + spec.name +
                       ";point=" + load::describe_number(x) +
                       ";variant=" + variant.name +
                       ";model=" + cell.model->describe() +
                       ";strategy=" + cell.strategy->name() +
                       ";trials=" + std::to_string(trials);
      grid.cells.push_back(std::move(cell));
    }
  }

  grid.reports = spec.reports;
  if (grid.reports.empty()) {
    ReportSpec report;
    report.title = spec.title;
    report.expectation = spec.expectation;
    for (std::size_t i = 0; i < spec.variants.size(); ++i)
      report.series.push_back(
          {spec.variants[i].name, i, Metric::kMakespan});
    grid.reports.push_back(std::move(report));
  }
  return grid;
}

ScenarioSpec sweep_scenario() {
  ScenarioSpec spec;
  spec.name = "sweep";
  spec.title = "sweep: techniques vs ON/OFF dynamism";
  spec.axis.label = "load_probability";
  spec.axis.binding = AxisBinding::kLoadDynamism;
  spec.axis.x = {0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0};
  VariantSpec none;
  none.name = "NONE";
  VariantSpec swap;
  swap.name = "SWAP(greedy)";
  swap.strategy.kind = StrategyKind::kSwap;
  VariantSpec dlb;
  dlb.name = "DLB";
  dlb.strategy.kind = StrategyKind::kDlb;
  VariantSpec cr;
  cr.name = "CR";
  cr.strategy.kind = StrategyKind::kCr;
  spec.variants = {none, swap, dlb, cr};
  return spec;
}

}  // namespace simsweep::scenario
