// Translates CLI flags into declarative scenario specs.  Factored out of
// main() so it is unit-testable.
//
// Flags are overlays on a ScenarioSpec: the spec carries the paper defaults
// (or a shipped scenario's values), apply_config_flags / apply_load_flags /
// apply_strategy_flags fold the flags in, and the runnable objects come from
// scenario::materialize — one construction path shared by `run`, `sweep`,
// `bench` and the golden tests.
#pragma once

#include <string>

#include "cli/args.hpp"
#include "cli/sweep_runner.hpp"
#include "scenario/scenario.hpp"

namespace simsweep::cli {

/// Applies the platform/application/fault flags onto `spec`: --hosts
/// --active --spares --iters --iter-minutes --state-mb --comm-kb --seed
/// --horizon-hours --mtbf-hours --swap-fail-prob --ckpt-fail-prob
/// --fault-retries --blacklist-after --max-events.  Absent flags leave the
/// spec's values in place (--spares defaults to hosts - active).
void apply_config_flags(Args& args, scenario::ScenarioSpec& spec);

/// Lays the load flags over `spec`: --model=onoff|hyperexp|reclaim|trace
/// restarts the section from that model's defaults in scenario::LoadSpec
/// (the JSON defaults), then the flags of the section's model overlay it
/// (--lifetime also resets the interarrival to twice the lifetime;
/// --trace-file reads its samples into the spec).
void apply_load_flags(Args& args, scenario::LoadSpec& spec);

/// Lays the strategy flags over `spec`: --strategy=none|swap|dlb|dlbswap|cr
/// (and --predictor, for the estimator) restarts the section from that
/// kind's defaults, then the policy and swap flags of its kind overlay it.
void apply_strategy_flags(Args& args, scenario::StrategySpec& spec);

/// --audit[=fail|warn]; kOff when the flag is absent (the SIMSWEEP_AUDIT
/// env var still applies downstream, inside run_single).
[[nodiscard]] audit::AuditMode parse_audit_flag(Args& args);

/// Observability outputs requested on the command line.
struct ObsOptions {
  std::string metrics_path;    ///< merged metrics JSON; empty = off
  std::string timeline_path;   ///< Chrome trace JSON; empty = off
  std::string profile_path;    ///< trial-engine profile as JSON; empty = off
  std::string decisions_path;  ///< decision-trace JSONL (run); empty = off
  bool profile = false;       ///< print the trial-engine profile

  /// The wall-clock profiler is needed for either profile output.
  [[nodiscard]] bool want_profiler() const noexcept {
    return profile || !profile_path.empty();
  }
};

/// Flags: --metrics=FILE --timeline=FILE --profile --profile-json=FILE.
/// When a flag is absent the corresponding env value applies instead (pass
/// the raw getenv result; null or empty means unset), so whole suites can be
/// observed without editing command lines.
[[nodiscard]] ObsOptions parse_obs_options(Args& args,
                                           const char* metrics_env,
                                           const char* timeline_env);

/// parse_obs_options with SIMSWEEP_METRICS / SIMSWEEP_TIMELINE from the
/// process environment.
[[nodiscard]] ObsOptions parse_obs_options(Args& args);

/// Live-telemetry surface (sweep, bench): periodic atomic status snapshots
/// plus an opt-in stderr progress line.
struct StatusOptions {
  std::string path;          ///< snapshot file; empty = telemetry off
  double heartbeat_s = 1.0;  ///< min seconds between periodic snapshots
  bool progress = false;     ///< stderr progress line per snapshot

  [[nodiscard]] bool enabled() const noexcept { return !path.empty(); }
};

/// Flags: --status=FILE --status-interval=SECONDS --progress.  `status_env`
/// (SIMSWEEP_STATUS in the one-argument overload) fills the path when the
/// flag is absent; null or empty means unset.
[[nodiscard]] StatusOptions parse_status_options(Args& args,
                                                 const char* status_env);
[[nodiscard]] StatusOptions parse_status_options(Args& args);

/// What a grid run (`run`, `sweep`, `bench`) takes from the command line:
/// the plan, plus where the epilogue publishes its artifacts.
struct GridFlags {
  SweepPlan plan;
  ObsOptions obs;
  StatusOptions status;
  std::string quarantine_path;  ///< quarantine report; empty = stderr only
};

/// The flags `run`, `sweep` and `bench` share: --trials (absent =
/// `default_trials`) --jobs --audit --trial-timeout and the observability
/// flags.  The plan's spec is left to the caller.
[[nodiscard]] GridFlags parse_trial_flags(Args& args,
                                          std::size_t default_trials);

/// parse_trial_flags plus --trial-retries --journal --resume --quarantine
/// --stop-after-cells and the status flags (`sweep`, `bench`).
[[nodiscard]] GridFlags parse_grid_flags(Args& args,
                                         std::size_t default_trials);

/// Throws std::invalid_argument listing any unconsumed flags.
void reject_unused(const Args& args);

}  // namespace simsweep::cli
