// simsweep — command-line front end to the simulation library.
//
//   simsweep run   [platform/app flags] --strategy=... --trials=8
//   simsweep sweep [platform/app flags] --points=0,0.05,0.1,...   (all four
//                  techniques across ON/OFF dynamism)
//   simsweep bench <scenario>  (a shipped figure/ablation, or --list)
//   simsweep trace --model=onoff --duration=2000      (load trace as CSV)
//   simsweep help
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/bench_cmd.hpp"
#include "cli/config_build.hpp"
#include "cli/report_cmd.hpp"
#include "cli/sweep_runner.hpp"
#include "load/trace_io.hpp"
#include "obs/profiler.hpp"
#include "resilience/quarantine.hpp"
#include "resilience/signal.hpp"
#include "scenario/scenario.hpp"

namespace cli = simsweep::cli;
namespace core = simsweep::core;
namespace scenario = simsweep::scenario;

namespace {

constexpr const char* kUsage = R"(simsweep — MPI process swapping policy simulator

usage: simsweep <command> [flags]

commands:
  run     simulate one strategy, print per-trial statistics
  sweep   compare NONE/SWAP/DLB/CR across ON/OFF dynamism
  bench   run a declarative scenario (paper figures, ablations) by name
  trace   emit a CPU-load trace as CSV
  status  pretty-print a live --status snapshot (exit 4 when stale)
  report  analyze artifacts: summary | diff A B (exit 3 on regression) | top
          | validate (exit 1 when an artifact breaks its schema)
  help    this text

scenario flags (run, bench):
  bench <name|file.json>  run a shipped scenario (scenarios/*.json; override
             the directory with SIMSWEEP_SCENARIO_DIR) or an explicit file;
             grid scenarios inherit the sweep resilience/observability
             surface below, which the other kinds refuse.  --trials
             overrides the scenario's trial count (SIMSWEEP_TRIALS env var
             sits between flag and file).
  bench --list            list shipped scenarios with their titles
  --scenario=<name|file>  (run) start from a scenario's platform, app, load
             and first strategy; the platform, load and strategy flags
             below override it field by field (--model and --strategy
             start their section over)

platform/application flags (run, sweep):
  --hosts=32 --active=4 --spares=<hosts-active> --iters=60
  --iter-minutes=2 --state-mb=1 --comm-kb=100 --seed=1 --trials=8

execution/output flags (run, sweep):
  --jobs=N   worker threads for independent trials (default: SIMSWEEP_JOBS
             env var, else hardware concurrency; results are identical to
             --jobs=1)
  --json     print machine-readable JSON instead of tables
  --trace-decisions=FILE  (run) write one JSON line per policy decision —
             candidates weighed, payback distance, rejection reason,
             recovery actions — across all trials; makespans are unchanged
  --audit[=fail|warn]  run the invariant auditor over every trial: fail
             (the default) throws on the first violation, warn collects
             violations and reports their count.  Checks are read-only, so
             makespans are bitwise identical with auditing on or off.  The
             SIMSWEEP_AUDIT env var applies the same modes suite-wide.

observability flags (run, sweep, bench):
  --metrics=FILE   write a merged metrics snapshot (counters, gauges,
             histograms from every simulation layer) as JSON; identical at
             any --jobs, and makespans are unchanged.  Env fallback:
             SIMSWEEP_METRICS.
  --timeline=FILE  write a Chrome trace-event JSON timeline (load in
             https://ui.perfetto.dev): one process per trial, named by
             its cell (point x strategy), one track per host/subsystem,
             virtual seconds as trace microseconds.  Env fallback:
             SIMSWEEP_TIMELINE.
  --profile  measure the trial engine itself (wall-clock): per-trial
             duration, queue wait, per-worker utilization.  Printed after
             the results (stderr under --json and bench).
  --profile-json=FILE  write the same trial-engine profile as a JSON
             artifact (readable by `simsweep report`).
  All artifact files (--metrics/--timeline/--quarantine/--status/
  --profile-json, and the journal) are published atomically: write-temp +
  fsync + rename, so a SIGKILL can never leave a torn file.

live telemetry flags (sweep, bench):
  --status=FILE    periodically publish an atomic status snapshot JSON:
             cells done/total per strategy, retries, quarantines, worker
             utilization, and an EWMA-based wall-clock ETA.  The file is
             written before the first cell runs and marked "partial":true
             until the sweep completes, so a killed run always leaves a
             parseable snapshot.  Env fallback: SIMSWEEP_STATUS.  Inspect
             with `simsweep status FILE`.
  --status-interval=SECONDS  min seconds between heartbeats (default 1)
  --progress       one-line progress/ETA updates on stderr (implies status
             tracking; without --status the snapshots go to /dev/null)

artifact analysis (report, status):
  report summary FILE...      per-artifact summary (human table; --json for
             one canonical JSON document)
  report diff A B             compare two runs' artifacts key by key;
             --abs-tol/--rel-tol bound acceptable drift (default 0 = exact);
             exits 3 when a metric regressed beyond tolerance, so CI can
             gate on it
  report top FILE [--limit=N] slowest cells of a profile / hottest
             histogram buckets of a metrics snapshot
  report validate FILE...     check each artifact (metrics, timeline,
             profile, journal, quarantine, status, series, stats) against
             its schema: one "ok <kind> <path>" or "FAIL <path>: <rule>"
             line per file; exits 1 when any file fails
  status FILE [--stale-after=SECONDS]  pretty-print a --status snapshot;
             exits 4 when the run claims to be live but the heartbeat is
             older than --stale-after (default 30)

resilience flags:
  --trial-timeout=SECONDS  (run, sweep, bench) wall-clock watchdog per
             trial; an overdue trial is cancelled cooperatively and reported
             as hung (run fails).  0 (default) disables the watchdog (bench
             falls back to SIMSWEEP_TRIAL_TIMEOUT).
  --journal=FILE  (sweep, bench) append each completed cell to a
             crash-consistent journal (write-temp + fsync + atomic rename);
             a killed sweep loses at most the in-flight cells.
  --resume=FILE   (sweep, bench) replay completed cells from a journal
             instead of re-simulating them; the finished artifacts are
             byte-identical to an uninterrupted run at any --jobs.
             Journaling continues into the same file unless --journal says
             otherwise.  The journal records the scenario name and config
             digests, so resuming against an edited scenario is refused.
  --trial-retries=N  (sweep, bench) extra attempts (capped backoff) for a
             failed or hung trial; a trial out of attempts quarantines its
             cell (default 1)
  --quarantine=FILE  (sweep, bench) write the quarantine report (config
             digest, seed, outcome, attempts, error per abandoned cell) as
             JSON; without it, abandoned cells are summarized on stderr.
             The sweep continues degraded either way and exits 0.
  SIGINT/SIGTERM flush the journal and emit partial artifacts whose
  provenance meta carries "partial":true; exit code is 130.
  testing hooks (sweep): --stop-after-cells=N (stop claiming cells after N,
  a deterministic stand-in for SIGKILL), --inject-fail=I,J / --inject-hang=K
  (force cell failures to exercise retry and quarantine)

load model flags (run, trace; with --scenario they overlay its load):
  --model=onoff   --dynamism=0.2 | --p=0.3 --q=0.08 [--step=100]
  --model=hyperexp --lifetime=300 [--long-prob=0.2] [--interarrival=600]
  --model=reclaim --avail-min=60 --reclaim-min=10 [--dynamism=...]
  --model=trace --trace-file=FILE [--period=...] [--no-phase]

strategy flags (run; with --scenario they overlay its first strategy):
  --strategy=none|swap|dlb|dlbswap|cr
  --policy=greedy|safe|friendly  [--payback --min-process --min-app --history]
  --predictor=window|nws|ewma|median  [--ewma-tau --median-k]
  --guard [--stall-factor=3]          (eviction watchdog)

fault-injection flags (run, sweep; all off by default):
  --mtbf-hours=24       per-host mean time between permanent crashes
  --swap-fail-prob=0.1  probability one swap state transfer attempt fails
  --ckpt-fail-prob=0.1  probability one checkpoint write fails (CR)
  --fault-retries=3     resends allowed per transfer before abandoning
  --blacklist-after=6   failed attempts before a host is blacklisted
  --max-events=N        simulator event budget (runaway-schedule guard)

examples:
  simsweep run --strategy=swap --policy=safe --dynamism=0.2 --trials=10
  simsweep sweep --points=0,0.05,0.1,0.2,0.4,0.8 --state-mb=100
  simsweep bench fig4
  simsweep bench fig7 --trials=2 --jobs=2 --journal=fig7.journal
  simsweep trace --model=hyperexp --lifetime=150 --duration=2000
)";

int cmd_run(cli::Args& args) {
  // `run` is a one-cell scenario: --scenario (or the paper default) with
  // its first variant's strategy and the axis pinned to one point, the
  // flags laid over it, on the grid path sweep and bench take.
  cli::GridFlags flags = cli::parse_trial_flags(args, /*default_trials=*/8);
  flags.plan.trial_retries = 0;  // a failed trial fails the run
  flags.obs.decisions_path = args.get_string("trace-decisions", "");
  flags.plan.trace_decisions = !flags.obs.decisions_path.empty();
  const bool json = args.get_bool("json");
  scenario::ScenarioSpec& spec = flags.plan.spec;
  scenario::VariantSpec variant;
  variant.strategy.kind = scenario::StrategyKind::kSwap;
  spec.name = "run";
  if (args.has("scenario")) {
    spec = scenario::find_scenario(args.get_string("scenario", ""),
                                   scenario::default_scenario_dir());
    if (!spec.variants.empty())
      variant.strategy = spec.variants.front().strategy;
  }
  cli::apply_config_flags(args, spec);
  cli::apply_load_flags(args, spec.load);
  cli::apply_strategy_flags(args, variant.strategy);
  cli::reject_unused(args);
  if (flags.plan.trials == 0) throw std::invalid_argument("run: zero --trials");
  variant.name = scenario::make_strategy(variant.strategy)->name();
  spec.kind = scenario::Kind::kGrid;
  spec.forbid_stalls = false;
  spec.axis.binding = scenario::AxisBinding::kNone;
  spec.axis.x = {0.0};
  spec.variants = {variant};
  spec.reports.clear();

  simsweep::obs::TrialProfiler profiler;
  if (flags.obs.want_profiler()) flags.plan.profiler = &profiler;
  const cli::SweepResult result = cli::run_grid("run", flags);
  if (!result.quarantined.empty()) {
    const auto& failed = result.quarantined.front();
    if (failed.outcome == simsweep::resilience::TrialOutcomeKind::kHung)
      throw std::runtime_error(
          "trial hung: exceeded --trial-timeout after " +
          std::to_string(flags.plan.trial_timeout_s) +
          " s of wall-clock time");
    throw std::runtime_error(failed.error);
  }
  const core::TrialStats& stats = result.stats.front().value();
  if (json) {
    stats.print_json(std::cout, &result.provenance);
    std::cout << '\n';
    // The profile goes to stderr under --json so stdout stays one
    // parseable JSON document.
    if (flags.obs.profile) profiler.print(std::cerr);
    return 0;
  }
  std::printf("strategy        %s\n", variant.name.c_str());
  std::printf("trials          %zu (seeds %llu..%llu)\n", stats.trials,
              static_cast<unsigned long long>(spec.seed),
              static_cast<unsigned long long>(spec.seed + stats.trials - 1));
  std::printf("makespan mean   %.1f s\n", stats.mean);
  std::printf("makespan stddev %.1f s\n", stats.stddev);
  std::printf("makespan range  [%.1f, %.1f] s\n", stats.min, stats.max);
  std::printf("adaptations     %.1f per run\n", stats.mean_adaptations);
  if (flags.plan.audit == simsweep::audit::AuditMode::kWarn)
    std::printf("audit           %zu violation(s) across all trials\n",
                stats.audit_violations);
  if (scenario::base_config(spec).faults.enabled()) {
    std::printf("host crashes    %.1f per run\n", stats.mean_crashes);
    std::printf("xfer failures   %.1f per run\n", stats.mean_transfer_failures);
    std::printf("ckpt failures   %.1f per run\n",
                stats.mean_checkpoint_failures);
    std::printf("recoveries      %.1f per run\n", stats.mean_recoveries);
    std::printf("time lost       %.1f s per run\n", stats.mean_time_lost_s);
  }
  if (stats.resource_exhausted > 0)
    std::printf("WARNING: %zu run(s) exhausted the spare pool and stopped\n",
                stats.resource_exhausted);
  // Runs that exhausted the spare pool count as stalled too, but they gave
  // up cleanly; only the rest deadlocked.
  if (stats.stalled > stats.resource_exhausted)
    std::printf("WARNING: %zu run(s) stalled before the horizon "
                "(strategy deadlock)\n",
                stats.stalled - stats.resource_exhausted);
  if (stats.unfinished > stats.stalled)
    std::printf("WARNING: %zu run(s) hit the simulation horizon\n",
                stats.unfinished - stats.stalled);
  if (flags.obs.profile) profiler.print(std::cout);
  return 0;
}

int cmd_sweep(cli::Args& args) {
  simsweep::resilience::arm_interrupt_handlers();

  // The classic sweep is the built-in "sweep" scenario with the
  // platform/app flags layered on top, run through bench's grid path.
  cli::GridFlags flags = cli::parse_grid_flags(args, /*default_trials=*/8);
  if (flags.plan.trials == 0)
    throw std::invalid_argument("sweep: zero --trials");
  const bool json = args.get_bool("json");
  flags.plan.hooks.inject_fail = args.get_count_list("inject-fail");
  flags.plan.hooks.inject_hang = args.get_count_list("inject-hang");
  flags.plan.spec = scenario::sweep_scenario();
  cli::apply_config_flags(args, flags.plan.spec);
  flags.plan.spec.axis.x = args.get_double_list(
      "points", {0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0});
  cli::reject_unused(args);

  simsweep::obs::TrialProfiler profiler;
  if (flags.obs.want_profiler()) flags.plan.profiler = &profiler;
  const bool profile = flags.obs.profile;
  const cli::SweepResult result = cli::run_grid("sweep", std::move(flags));

  const core::SeriesReport& report = result.reports.front();
  if (json) {
    report.print_json(std::cout, &result.provenance);
    std::cout << '\n';
    if (profile) profiler.print(std::cerr);
  } else {
    report.print_table(std::cout);
    std::cout << "\n";
    report.print_csv(std::cout);
    if (profile) profiler.print(std::cout);
  }
  return simsweep::resilience::interrupted() ? 130 : 0;
}

int cmd_trace(cli::Args& args) {
  const double duration = args.get_double("duration", 2000.0);
  if (!(duration > 0.0))
    throw std::invalid_argument("trace: --duration must be > 0, got " +
                                simsweep::load::describe_number(duration));
  scenario::LoadSpec load;
  cli::apply_load_flags(args, load);
  const auto model = scenario::make_load_model(load);
  const auto seed = args.get_count("seed", 1);
  cli::reject_unused(args);
  simsweep::load::write_step_trace_csv(
      std::cout, simsweep::load::trace_single_host(*model, seed, duration),
      duration);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> tokens(argv + 1, argv + argc);
  if (tokens.empty() || tokens[0] == "help" || tokens[0] == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string command = tokens[0];
  tokens.erase(tokens.begin());
  try {
    cli::Args args(std::move(tokens));
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "bench") return cli::cmd_bench(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "status") return cli::cmd_status(args);
    if (command == "report") return cli::cmd_report(args);
    std::fprintf(stderr, "simsweep: unknown command '%s'\n\n%s",
                 command.c_str(), kUsage);
    return 2;
  } catch (const scenario::UnknownScenarioError& e) {
    std::string message = e.what();
    const std::string suggestion = cli::suggest_flag(e.name(), e.available());
    if (!suggestion.empty())
      message += " (did you mean '" + suggestion + "'?)";
    std::fprintf(stderr, "simsweep: %s\n", message.c_str());
    if (!e.available().empty()) {
      std::string names;
      for (const std::string& n : e.available()) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      std::fprintf(stderr, "available scenarios: %s\n", names.c_str());
    }
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simsweep: %s\n", e.what());
    return 1;
  }
}
