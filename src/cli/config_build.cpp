#include "cli/config_build.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "audit/auditor.hpp"
#include "load/misc_models.hpp"
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

core::ExperimentConfig build_config(Args& args) {
  scenario::ScenarioSpec spec;
  apply_config_flags(args, spec);
  core::ExperimentConfig cfg = scenario::base_config(spec);
  cfg.audit = parse_audit_flag(args);
  return cfg;
}

std::shared_ptr<const load::LoadModel> build_load_model(Args& args) {
  const std::string model = args.get_string("model", "onoff");
  if (model == "trace") {
    // Trace files stay a CLI affordance (replay a measured load); the
    // declarative scenarios cover the paper's generative models only.
    const std::string path = args.get_string("trace-file", "");
    if (path.empty())
      throw std::invalid_argument("--model=trace requires --trace-file");
    auto samples = load::read_trace_file(path);
    const double period =
        args.get_double("period", samples.back().time + 1.0);
    return std::make_shared<load::TraceModel>(
        std::move(samples), period, !args.get_bool("no-phase"));
  }
  scenario::LoadSpec spec;
  if (model == "onoff") {
    spec.kind = scenario::LoadKind::kOnOff;
    if (args.has("dynamism")) {
      const double d = args.get_double("dynamism", 0.2);
      spec.p = d;
      spec.q = d;
    } else {
      spec.p = args.get_double("p", spec.p);
      spec.q = args.get_double("q", spec.q);
    }
    spec.step_s = args.get_double("step", spec.step_s);
  } else if (model == "hyperexp") {
    spec.kind = scenario::LoadKind::kHyperExp;
    spec.mean_lifetime_s = args.get_double("lifetime", 300.0);
    spec.long_prob = args.get_double("long-prob", 0.2);
    spec.mean_interarrival_s =
        args.get_double("interarrival", 2.0 * spec.mean_lifetime_s);
  } else if (model == "reclaim") {
    spec.kind = scenario::LoadKind::kReclaim;
    spec.mean_available_s = args.get_double("avail-min", 60.0) * 60.0;
    spec.mean_reclaimed_s = args.get_double("reclaim-min", 10.0) * 60.0;
    if (args.has("dynamism")) {
      auto base = std::make_shared<scenario::LoadSpec>();
      const double d = args.get_double("dynamism", 0.2);
      base->p = d;
      base->q = d;
      spec.base = std::move(base);
    }
  } else {
    throw std::invalid_argument("unknown --model '" + model +
                                "' (onoff|hyperexp|reclaim|trace)");
  }
  return scenario::make_load_model(spec);
}

namespace {

scenario::PolicySpec build_policy(Args& args) {
  scenario::PolicySpec spec;
  spec.base = args.get_string("policy", "greedy");
  if (spec.base != "greedy" && spec.base != "safe" && spec.base != "friendly")
    throw std::invalid_argument("unknown --policy '" + spec.base +
                                "' (greedy|safe|friendly)");
  if (args.has("payback"))
    spec.payback_threshold_iters = args.get_double("payback", 0.0);
  if (args.has("min-process"))
    spec.min_process_improvement = args.get_double("min-process", 0.0);
  if (args.has("min-app"))
    spec.min_app_improvement = args.get_double("min-app", 0.0);
  if (args.has("history"))
    spec.history_window_s = args.get_double("history", 0.0);
  return spec;
}

scenario::EstimatorSpec build_estimator(Args& args) {
  const std::string predictor = args.get_string("predictor", "window");
  scenario::EstimatorSpec spec;
  if (predictor == "window") {
    spec.kind = scenario::EstimatorKind::kPolicy;  // policy window semantics
  } else if (predictor == "nws") {
    spec.kind = scenario::EstimatorKind::kNws;
  } else if (predictor == "ewma") {
    spec.kind = scenario::EstimatorKind::kEwma;
    spec.tau_s = args.get_double("ewma-tau", 120.0);
  } else if (predictor == "median") {
    spec.kind = scenario::EstimatorKind::kMedian;
    spec.k = args.get_count("median-k", 5);
  } else {
    throw std::invalid_argument("unknown --predictor '" + predictor +
                                "' (window|nws|ewma|median)");
  }
  return spec;
}

}  // namespace

std::unique_ptr<strategy::Strategy> build_strategy(Args& args) {
  const std::string name = args.get_string("strategy", "swap");
  scenario::StrategySpec spec;
  if (name == "none") {
    spec.kind = scenario::StrategyKind::kNone;
  } else if (name == "dlb") {
    spec.kind = scenario::StrategyKind::kDlb;
  } else if (name == "dlbswap") {
    spec.kind = scenario::StrategyKind::kDlbSwap;
    spec.policy = build_policy(args);
  } else if (name == "cr") {
    spec.kind = scenario::StrategyKind::kCr;
    spec.policy = build_policy(args);
  } else if (name == "swap") {
    spec.kind = scenario::StrategyKind::kSwap;
    spec.policy = build_policy(args);
    spec.estimator = build_estimator(args);
    spec.guard = args.get_bool("guard");
    spec.stall_factor = args.get_double("stall-factor", 3.0);
  } else {
    throw std::invalid_argument("unknown --strategy '" + name +
                                "' (none|swap|dlb|dlbswap|cr)");
  }
  return scenario::make_strategy(spec);
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

GridFlags parse_grid_flags(Args& args, std::size_t default_trials) {
  GridFlags flags;
  SweepPlan& plan = flags.plan;
  plan.trials = args.get_count("trials", default_trials);
  plan.jobs = args.get_count("jobs", 0);
  plan.audit = parse_audit_flag(args);
  flags.obs = parse_obs_options(args);
  flags.status = parse_status_options(args);
  plan.metrics = !flags.obs.metrics_path.empty();
  plan.timeline = !flags.obs.timeline_path.empty();
  plan.trial_timeout_s = args.get_double("trial-timeout", 0.0);
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
