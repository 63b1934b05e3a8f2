#include "cli/bench_cmd.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/parse.hpp"
#include "load/hyperexp.hpp"
#include "load/onoff.hpp"
#include "load/trace_io.hpp"
#include "obs/atomic_write.hpp"
#include "obs/status.hpp"
#include "platform/host.hpp"
#include "resilience/quarantine.hpp"
#include "resilience/signal.hpp"
#include "simcore/simulator.hpp"
#include "strategy/decision_trace.hpp"
#include "swap/payback.hpp"
#include "swap/policy.hpp"

namespace simsweep::cli {

namespace {

/// printf into an ostream; the retired bench binaries were printf-based and
/// their byte-exact formats (field widths, %g, %.6f) are easiest kept as
/// format strings.
__attribute__((format(printf, 2, 3))) void oprintf(std::ostream& os,
                                                   const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string buffer(static_cast<std::size_t>(n) + 1, '\0');
  std::vsnprintf(buffer.data(), buffer.size(), fmt, ap2);
  va_end(ap2);
  buffer.resize(static_cast<std::size_t>(n));
  os << buffer;
}

/// "# paper expectation: <line 1>\n# <line 2>\n..." — multi-line
/// expectations render as a block of comment lines, exactly as the retired
/// binaries printed them.
void write_expectation(std::ostream& os, const std::string& expectation) {
  std::size_t start = 0;
  bool first = true;
  for (;;) {
    const std::size_t nl = expectation.find('\n', start);
    const std::string_view line(expectation.data() + start,
                                (nl == std::string::npos ? expectation.size()
                                                         : nl) -
                                    start);
    os << (first ? "# paper expectation: " : "# ") << line << "\n";
    first = false;
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
}

/// 0 when unset: the scenario's own trial count applies.
std::size_t env_trials() {
  const char* env = core::env_value("SIMSWEEP_TRIALS");
  return env != nullptr ? core::parse_count(env, "SIMSWEEP_TRIALS") : 0;
}

/// 0 when unset: no watchdog.
double env_trial_timeout() {
  const char* env = core::env_value("SIMSWEEP_TRIAL_TIMEOUT");
  if (env == nullptr) return 0.0;
  const double v = core::parse_finite(env, "SIMSWEEP_TRIAL_TIMEOUT");
  if (v < 0.0)
    throw std::invalid_argument("SIMSWEEP_TRIAL_TIMEOUT must be >= 0, got '" +
                                std::string(env) + "'");
  return v;
}

/// Flag > SIMSWEEP_TRIALS env > scenario.
std::size_t resolve_trials(const SweepPlan& plan) {
  if (plan.trials != 0) return plan.trials;
  if (const std::size_t env = env_trials(); env != 0) return env;
  return plan.spec.trials;
}

// ---------------------------------------------------------------------------
// Kind::kGrid — through the shared grid path.

int run_bench_grid(GridFlags flags, std::ostream& out) {
  flags.plan.trials = resolve_trials(flags.plan);
  // Same convention the standalone benches used: a zero budget defers to
  // SIMSWEEP_TRIAL_TIMEOUT.
  if (flags.plan.trial_timeout_s <= 0.0)
    flags.plan.trial_timeout_s = env_trial_timeout();
  const SweepResult result = run_grid("bench", std::move(flags));
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    const core::SeriesReport& report = result.reports[i];
    out << "==== " << report.title << " ====\n";
    write_expectation(out, result.expectations[i]);
    report.print_table(out);
    out << "\n-- csv --\n";
    report.print_csv(out);
    out << "\n-- json --\n";
    report.print_json(out);
    out << "\n\n";
    out.flush();
  }
  return resilience::interrupted() ? 130 : 0;
}

// ---------------------------------------------------------------------------
// Kind::kPayback — the §5 worked example (retired fig1 binary).

/// Progress (iterations completed, fractional) at time t for an execution
/// that pauses `swap_time` at t=0 (first) and then iterates every
/// `iter_time` seconds.
double progress(double t, double swap_time, double iter_time) {
  if (t <= swap_time) return 0.0;
  return (t - swap_time) / iter_time;
}

int run_payback(const scenario::ScenarioSpec& spec, std::ostream& out) {
  const double iter = spec.payback_iter_s;
  const double swap = spec.payback_swap_s;

  out << "==== " << spec.title << " ====\n";
  write_expectation(out, spec.expectation);

  const double payback2 = swap::payback_distance(swap, iter, 1.0, 2.0);
  const double payback4 = swap::payback_distance(swap, iter, 1.0, 4.0);
  const double payback_drop = swap::payback_distance(swap, iter, 1.0, 0.8);
  oprintf(out, "payback(2x) = %.6f iterations (paper: 2)\n", payback2);
  oprintf(out, "payback(4x) = %.6f iterations (paper: 1 1/3)\n", payback4);
  oprintf(out,
          "payback(0.8x) = %s (swap can only hurt: never pays back, "
          "no finite threshold accepts it)\n\n",
          std::isinf(payback_drop) ? "inf" : "FINITE?!");

  out << "-- csv --\n";
  out << "time,no_swap,swap_2x,swap_4x,swap_regression_0.8x\n";
  for (double t = 0.0; t <= 60.0; t += 2.5) {
    oprintf(out, "%.1f,%.4f,%.4f,%.4f,%.4f\n", t, t / iter,
            progress(t, swap, iter / 2.0), progress(t, swap, iter / 4.0),
            progress(t, swap, iter / 0.8));
  }

  // Crossover check: the 2x trajectory must meet the no-swap line exactly
  // payback2 iterations (at the new rate) after the swap completes.
  const double cross_t = swap + payback2 * (iter / 2.0);
  oprintf(out, "\ncrossover(2x) at t=%.2f s: no_swap=%.4f swap=%.4f\n",
          cross_t, cross_t / iter, progress(cross_t, swap, iter / 2.0));
  return 0;
}

// ---------------------------------------------------------------------------
// Kind::kLoadTrace — one host's load history as CSV (retired fig2/fig3).

int run_load_trace(const scenario::ScenarioSpec& spec, std::ostream& out) {
  const double horizon = spec.trace_horizon_s;

  // The concrete model type matters here: the trailer quotes model-specific
  // analytics (stationary ON fraction / offered load).
  const auto model = scenario::make_load_model(spec.load);
  const auto* onoff = dynamic_cast<const load::OnOffModel*>(model.get());
  const auto* hyperexp = dynamic_cast<const load::HyperExpModel*>(model.get());
  if (onoff == nullptr && hyperexp == nullptr)
    throw scenario::ScenarioError(
        "scenario '" + spec.name +
        "': load_trace supports onoff and hyperexp models");

  sim::Simulator simulator;
  platform::Host host(simulator, 0, 300.0e6, "traced");
  auto source = model->make_source(sim::Rng(spec.trace_seed));
  source->start(simulator, host);
  simulator.run_until(horizon);

  out << "==== " << spec.title << " ====\n";
  if (hyperexp != nullptr)
    oprintf(out, "# offered load %.2f, lifetime CV^2 %.1f\n",
            hyperexp->offered_load(), hyperexp->lifetime_cv2());
  write_expectation(out, spec.expectation);

  const std::vector<sim::Sample>& history = host.load_history();
  out << "-- csv --\n";
  load::write_step_trace_csv(out, history, horizon);

  const double mean_load = sim::mean_step_series(history, 0.0, horizon);
  if (onoff != nullptr) {
    oprintf(out, "\nempirical ON fraction %.3f vs stationary %.3f\n",
            mean_load, onoff->stationary_on_fraction());
  } else {
    int peak = 0;
    for (const sim::Sample& s : history) {
      if (s.time > horizon) break;
      peak = std::max(peak, static_cast<int>(s.value));
    }
    oprintf(out, "\nmean load %.3f (offered %.3f), peak simultaneous %d\n",
            mean_load, hyperexp->offered_load(), peak);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Kind::kDecisionHistogram — rejection-reason histograms per policy
// (retired abl_decision_trace binary).

struct Histogram {
  std::size_t boundaries = 0;
  std::size_t swaps_applied = 0;
  // Indexed by swap::RejectReason (kAccepted..kAppGain).
  std::array<std::size_t, 5> by_reason{};
  double accepted_payback_sum = 0.0;

  [[nodiscard]] std::size_t considered() const {
    std::size_t n = 0;
    for (const std::size_t c : by_reason) n += c;
    return n;
  }
};

Histogram fold(const std::vector<strategy::RunResult>& results) {
  Histogram h;
  for (const strategy::RunResult& r : results) {
    for (const strategy::DecisionRecord& rec : r.decision_trace) {
      if (rec.kind != strategy::TraceKind::kBoundary) continue;
      ++h.boundaries;
      h.swaps_applied += rec.swaps_applied;
      for (const swap::CandidateEvaluation& c : rec.considered) {
        ++h.by_reason[static_cast<std::size_t>(c.rejection)];
        if (c.accepted()) h.accepted_payback_sum += c.payback_iters;
      }
    }
  }
  return h;
}

int run_decision_histogram(const SweepPlan& plan, std::ostream& out) {
  const scenario::ScenarioSpec& spec = plan.spec;
  core::ExperimentConfig cfg = scenario::base_config(spec);
  cfg.trace_decisions = true;
  cfg.audit = plan.audit;
  const std::size_t trials = resolve_trials(plan);

  struct Cell {
    std::string policy;
    double dynamism;
    Histogram h;
  };
  std::vector<Cell> cells;
  for (const std::string& policy : spec.histogram_policies) {
    for (const double d : spec.histogram_dynamisms) {
      scenario::PolicySpec policy_spec;
      policy_spec.base = policy;
      strategy::SwapStrategy strategy{scenario::make_policy(policy_spec)};
      const load::OnOffModel model(load::OnOffParams::dynamism(d));
      const auto results =
          core::run_trials_results(cfg, model, strategy, trials, plan.jobs);
      cells.push_back({policy, d, fold(results)});
    }
  }

  out << "==== " << spec.title << " ====\n";
  write_expectation(out, spec.expectation);
  oprintf(out, "%-9s %9s %10s %10s %9s %15s %12s %9s %8s %12s\n", "policy",
          "dynamism", "boundaries", "considered", "accepted",
          "no_faster_spare", "min_process", "payback", "min_app",
          "mean_payback");
  for (const Cell& cell : cells) {
    const Histogram& h = cell.h;
    const std::size_t accepted = h.by_reason[0];
    oprintf(out, "%-9s %9.2f %10zu %10zu %9zu %15zu %12zu %9zu %8zu %12.3f\n",
            cell.policy.c_str(), cell.dynamism, h.boundaries, h.considered(),
            accepted, h.by_reason[1], h.by_reason[2], h.by_reason[3],
            h.by_reason[4],
            accepted > 0
                ? h.accepted_payback_sum / static_cast<double>(accepted)
                : 0.0);
  }
  oprintf(out, "\n-- csv --\n");
  oprintf(out,
          "policy,dynamism,boundaries,considered,accepted,"
          "no_faster_spare,min_process_improvement,payback_threshold,"
          "min_app_improvement,swaps_applied,mean_accepted_payback\n");
  for (const Cell& cell : cells) {
    const Histogram& h = cell.h;
    const std::size_t accepted = h.by_reason[0];
    oprintf(out, "%s,%g,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%.6g\n",
            cell.policy.c_str(), cell.dynamism, h.boundaries, h.considered(),
            accepted, h.by_reason[1], h.by_reason[2], h.by_reason[3],
            h.by_reason[4], h.swaps_applied,
            accepted > 0
                ? h.accepted_payback_sum / static_cast<double>(accepted)
                : 0.0);
  }
  return 0;
}

}  // namespace

SweepResult run_grid(const char* command, GridFlags flags) {
  const SweepPlan& plan = flags.plan;
  std::unique_ptr<obs::StatusBoard> status;
  if (flags.status.enabled()) {
    obs::StatusBoard::Options board_opts;
    board_opts.path = flags.status.path;
    board_opts.heartbeat_s = flags.status.heartbeat_s;
    board_opts.progress = flags.status.progress;
    status = std::make_unique<obs::StatusBoard>(board_opts);
    flags.plan.status = status.get();
  }

  SweepResult result = run_sweep(plan);

  if (result.cells_reused > 0)
    std::fprintf(stderr, "%s: resumed %zu of %zu cell(s) from '%s'\n",
                 command, result.cells_reused, result.cells_total,
                 plan.resume_path.c_str());
  for (const auto& record : result.quarantined)
    std::fprintf(stderr,
                 "%s: quarantined cell %zu (%s): %s after %zu attempt(s): "
                 "%s\n",
                 command, record.index, record.label.c_str(),
                 std::string(resilience::to_string(record.outcome)).c_str(),
                 record.attempts, record.error.c_str());
  if (!flags.quarantine_path.empty()) {
    std::ostringstream os;
    resilience::write_quarantine_json(os, result.quarantined,
                                      &result.provenance);
    obs::atomic_write_file(flags.quarantine_path, os.str());
  }
  const ObsOptions& opts = flags.obs;
  if (!opts.metrics_path.empty())
    obs::atomic_write_file(opts.metrics_path, result.metrics_json);
  if (!opts.timeline_path.empty())
    obs::atomic_write_file(opts.timeline_path, result.timeline_json);
  if (!opts.decisions_path.empty())
    obs::atomic_write_file(opts.decisions_path, result.decisions_jsonl);
  if (!opts.profile_path.empty() && plan.profiler != nullptr) {
    std::ostringstream os;
    plan.profiler->write_json(os, &result.provenance);
    os << '\n';
    obs::atomic_write_file(opts.profile_path, os.str());
  }
  if (result.partial)
    std::fprintf(stderr,
                 "%s: interrupted — %zu cell(s) not run; artifacts are "
                 "partial (provenance carries \"partial\":true), resume with "
                 "--resume=%s\n",
                 command, result.cells_skipped,
                 plan.journal_path.empty() ? "JOURNAL"
                                           : plan.journal_path.c_str());
  return result;
}

int run_bench_scenario(const GridFlags& flags, std::ostream& out) {
  const scenario::ScenarioSpec& spec = flags.plan.spec;
  switch (spec.kind) {
    case scenario::Kind::kGrid:
      return run_bench_grid(flags, out);
    case scenario::Kind::kPayback:
      return run_payback(spec, out);
    case scenario::Kind::kLoadTrace:
      return run_load_trace(spec, out);
    case scenario::Kind::kDecisionHistogram:
      return run_decision_histogram(flags.plan, out);
  }
  throw scenario::ScenarioError("scenario: unhandled kind");
}

int cmd_bench(Args& args) {
  const std::string dir = scenario::default_scenario_dir();
  if (args.get_bool("list")) {
    reject_unused(args);
    for (const std::string& name : scenario::list_scenarios(dir)) {
      const scenario::ScenarioSpec spec =
          scenario::load_scenario_file(dir + "/" + name + ".json");
      std::printf("%-26s %s\n", name.c_str(), spec.title.c_str());
    }
    return 0;
  }

  resilience::arm_interrupt_handlers();
  GridFlags flags = parse_grid_flags(args, /*default_trials=*/0);
  if (args.positional().empty())
    throw std::invalid_argument(
        "bench: missing scenario name or file (try `simsweep bench --list`)");
  flags.plan.spec = scenario::find_scenario(args.positional().front(), dir);
  const scenario::ScenarioSpec& spec = flags.plan.spec;
  // The other kinds never reach the grid path (decision_histogram runs its
  // own loop, honouring --trials/--jobs/--audit), so these flags would be
  // dropped without a word.
  if (spec.kind != scenario::Kind::kGrid)
    for (const char* flag :
         {"metrics", "timeline", "profile", "profile-json", "trial-timeout",
          "trial-retries", "journal", "resume", "quarantine",
          "stop-after-cells", "status", "status-interval", "progress"})
      if (args.has(flag))
        throw UnknownFlagError("bench: --" + std::string(flag) +
                                   " does not apply to " +
                                   scenario::kind_name(spec.kind) +
                                   " scenario '" + spec.name +
                                   "' (grid scenarios only)",
                               {flag});
  reject_unused(args);

  obs::TrialProfiler profiler;
  if (flags.obs.want_profiler()) flags.plan.profiler = &profiler;
  const int code = run_bench_scenario(flags, std::cout);
  // The profile goes to stderr so stdout stays the byte-exact report.
  if (flags.obs.profile) profiler.print(std::cerr);
  return code;
}

}  // namespace simsweep::cli
