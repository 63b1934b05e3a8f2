#include "cli/config_build.hpp"

#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "audit/auditor.hpp"
#include "load/trace_io.hpp"

namespace simsweep::cli {

void apply_config_flags(Args& args, scenario::ScenarioSpec& spec) {
  spec.hosts = args.get_count("hosts", spec.hosts);
  spec.active = args.get_count("active", spec.active);
  spec.iterations = args.get_count("iters", spec.iterations);
  spec.iter_minutes = args.get_double("iter-minutes", spec.iter_minutes);
  spec.state_mb = args.get_double("state-mb", spec.state_mb);
  spec.comm_kb = args.get_double("comm-kb", spec.comm_kb);
  // Every host not active is a spare.  With more active processes than
  // hosts there is nothing to spare, and base_config rejects the shape
  // instead of hosts - active wrapping into an absurd pool.
  spec.spares = args.get_count(
      "spares", spec.hosts >= spec.active ? spec.hosts - spec.active : 0);
  spec.seed = args.get_count("seed", spec.seed);
  spec.horizon_hours = args.get_double("horizon-hours", spec.horizon_hours);
  // Fault injection (all off by default).
  spec.mtbf_hours = args.get_double("mtbf-hours", spec.mtbf_hours);
  spec.swap_fail_prob = args.get_double("swap-fail-prob", spec.swap_fail_prob);
  spec.checkpoint_fail_prob =
      args.get_double("ckpt-fail-prob", spec.checkpoint_fail_prob);
  spec.max_transfer_retries =
      args.get_count("fault-retries", spec.max_transfer_retries);
  spec.blacklist_after = args.get_count("blacklist-after", spec.blacklist_after);
  spec.max_events = args.get_count("max-events", spec.max_events);
}

audit::AuditMode parse_audit_flag(Args& args) {
  // Bare --audit means fail-fast; --audit=warn collects into the report.
  if (!args.has("audit")) return audit::AuditMode::kOff;
  return audit::parse_mode(args.get_string("audit", ""));
}

namespace {

/// The value of --`flag` among `choices`; anything else throws
/// std::invalid_argument listing them.
template <typename E, std::size_t N>
E choose(Args& args, const std::string& flag,
         const std::pair<const char*, E> (&choices)[N]) {
  const std::string value = args.get_string(flag, "");
  std::string names;
  for (const auto& [name, e] : choices) {
    if (value == name) return e;
    if (!names.empty()) names += '|';
    names += name;
  }
  throw std::invalid_argument("unknown --" + flag + " '" + value + "' (" +
                              names + ")");
}

}  // namespace

void apply_load_flags(Args& args, scenario::LoadSpec& spec) {
  using scenario::LoadKind;
  if (args.has("model")) {
    spec = scenario::LoadSpec{};
    spec.kind = choose<LoadKind>(args, "model",
                                 {{"onoff", LoadKind::kOnOff},
                                  {"hyperexp", LoadKind::kHyperExp},
                                  {"reclaim", LoadKind::kReclaim},
                                  {"trace", LoadKind::kTrace}});
  }
  switch (spec.kind) {
    case LoadKind::kOnOff:
      if (args.has("dynamism")) {
        spec.p = spec.q = args.get_double("dynamism", 0.0);
      } else {
        spec.p = args.get_double("p", spec.p);
        spec.q = args.get_double("q", spec.q);
      }
      spec.step_s = args.get_double("step", spec.step_s);
      break;
    case LoadKind::kHyperExp:
      if (args.has("lifetime")) {
        spec.mean_lifetime_s = args.get_double("lifetime", 0.0);
        spec.mean_interarrival_s = 2.0 * spec.mean_lifetime_s;
      }
      spec.long_prob = args.get_double("long-prob", spec.long_prob);
      spec.mean_interarrival_s =
          args.get_double("interarrival", spec.mean_interarrival_s);
      break;
    case LoadKind::kReclaim:
      if (args.has("avail-min"))
        spec.mean_available_s = args.get_double("avail-min", 0.0) * 60.0;
      if (args.has("reclaim-min"))
        spec.mean_reclaimed_s = args.get_double("reclaim-min", 0.0) * 60.0;
      if (args.has("dynamism")) {
        auto base = std::make_shared<scenario::LoadSpec>();
        base->p = base->q = args.get_double("dynamism", 0.0);
        spec.base = std::move(base);
      }
      break;
    case LoadKind::kTrace: {
      const std::string path = args.get_string("trace-file", "");
      if (!path.empty()) {
        spec.samples = load::read_trace_file(path);
        spec.period_s = spec.samples.back().time + 1.0;
      }
      if (spec.samples.empty())
        throw std::invalid_argument("--model=trace requires --trace-file");
      spec.period_s = args.get_double("period", spec.period_s);
      if (args.has("no-phase")) spec.random_phase = !args.get_bool("no-phase");
      break;
    }
  }
}

void apply_strategy_flags(Args& args, scenario::StrategySpec& spec) {
  using scenario::StrategyKind;
  if (args.has("strategy")) {
    spec = scenario::StrategySpec{};
    spec.kind = choose<StrategyKind>(args, "strategy",
                                     {{"none", StrategyKind::kNone},
                                      {"swap", StrategyKind::kSwap},
                                      {"dlb", StrategyKind::kDlb},
                                      {"dlbswap", StrategyKind::kDlbSwap},
                                      {"cr", StrategyKind::kCr}});
  }
  if (spec.kind == StrategyKind::kNone || spec.kind == StrategyKind::kDlb)
    return;
  scenario::PolicySpec& policy = spec.policy;
  if (args.has("policy"))
    policy.base = choose<const char*>(
        args, "policy",
        {{"greedy", "greedy"}, {"safe", "safe"}, {"friendly", "friendly"}});
  const auto overlay = [&args](const char* flag, std::optional<double>& v) {
    if (args.has(flag)) v = args.get_double(flag, 0.0);
  };
  overlay("payback", policy.payback_threshold_iters);
  overlay("min-process", policy.min_process_improvement);
  overlay("min-app", policy.min_app_improvement);
  overlay("history", policy.history_window_s);
  if (spec.kind != StrategyKind::kSwap) return;

  using scenario::EstimatorKind;
  if (args.has("predictor")) {
    spec.estimator = scenario::EstimatorSpec{};
    // window = the policy's own history window
    spec.estimator.kind = choose<EstimatorKind>(
        args, "predictor",
        {{"window", EstimatorKind::kPolicy}, {"nws", EstimatorKind::kNws},
         {"ewma", EstimatorKind::kEwma}, {"median", EstimatorKind::kMedian}});
  }
  if (spec.estimator.kind == EstimatorKind::kEwma)
    spec.estimator.tau_s = args.get_double("ewma-tau", spec.estimator.tau_s);
  if (spec.estimator.kind == EstimatorKind::kMedian)
    spec.estimator.k = args.get_count("median-k", spec.estimator.k);
  if (args.has("guard")) spec.guard = args.get_bool("guard");
  spec.stall_factor = args.get_double("stall-factor", spec.stall_factor);
}

ObsOptions parse_obs_options(Args& args, const char* metrics_env,
                             const char* timeline_env) {
  ObsOptions opts;
  // Flags win over the environment; an env var set to "" counts as unset.
  opts.metrics_path = args.get_string("metrics", "");
  if (opts.metrics_path.empty() && metrics_env != nullptr)
    opts.metrics_path = metrics_env;
  opts.timeline_path = args.get_string("timeline", "");
  if (opts.timeline_path.empty() && timeline_env != nullptr)
    opts.timeline_path = timeline_env;
  opts.profile_path = args.get_string("profile-json", "");
  opts.profile = args.get_bool("profile");
  return opts;
}

ObsOptions parse_obs_options(Args& args) {
  return parse_obs_options(args, std::getenv("SIMSWEEP_METRICS"),
                           std::getenv("SIMSWEEP_TIMELINE"));
}

StatusOptions parse_status_options(Args& args, const char* status_env) {
  StatusOptions opts;
  opts.path = args.get_string("status", "");
  if (opts.path.empty() && status_env != nullptr) opts.path = status_env;
  opts.heartbeat_s = args.get_double("status-interval", opts.heartbeat_s);
  if (opts.heartbeat_s < 0.0)
    throw std::invalid_argument("--status-interval must be >= 0");
  opts.progress = args.get_bool("progress");
  if (opts.progress && opts.path.empty()) {
    // --progress without --status still wants the ETA machinery; aim the
    // snapshots at the bit bucket so only the stderr line remains.
    opts.path = "/dev/null";
  }
  return opts;
}

StatusOptions parse_status_options(Args& args) {
  return parse_status_options(args, std::getenv("SIMSWEEP_STATUS"));
}

GridFlags parse_trial_flags(Args& args, std::size_t default_trials) {
  GridFlags flags;
  SweepPlan& plan = flags.plan;
  plan.trials = args.get_count("trials", default_trials);
  plan.jobs = args.get_count("jobs", 0);
  plan.audit = parse_audit_flag(args);
  flags.obs = parse_obs_options(args);
  plan.metrics = !flags.obs.metrics_path.empty();
  plan.timeline = !flags.obs.timeline_path.empty();
  plan.trial_timeout_s = args.get_double("trial-timeout", 0.0);
  return flags;
}

GridFlags parse_grid_flags(Args& args, std::size_t default_trials) {
  GridFlags flags = parse_trial_flags(args, default_trials);
  SweepPlan& plan = flags.plan;
  flags.status = parse_status_options(args);
  plan.trial_retries = args.get_count("trial-retries", 1);
  plan.resume_path = args.get_string("resume", "");
  // --resume without --journal keeps journaling into the resumed file, so
  // a twice-interrupted run still resumes from its full history.
  plan.journal_path = args.get_string("journal", plan.resume_path);
  flags.quarantine_path = args.get_string("quarantine", "");
  plan.hooks.stop_after_cells = args.get_count("stop-after-cells", 0);
  return flags;
}

void reject_unused(const Args& args) {
  const auto unused = args.unused_flags();
  if (unused.empty()) return;
  // The suggestion vocabulary is exactly the flags this subcommand asked
  // about, so --trails suggests --trials under `sweep` but not under a
  // subcommand that has no such flag.
  const auto vocabulary = args.queried_flags();
  std::string message = "unknown flag(s):";
  for (const std::string& f : unused) {
    message += " --" + f;
    const std::string suggestion = suggest_flag(f, vocabulary);
    if (!suggestion.empty()) message += " (did you mean '--" + suggestion + "'?)";
  }
  throw UnknownFlagError(message, unused);
}

}  // namespace simsweep::cli
