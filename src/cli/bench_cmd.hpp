// `simsweep bench <name|file>` — run one declarative scenario and print its
// report(s) in the classic bench format — and the grid path it shares with
// `simsweep sweep`.
//
// Grid scenarios route through run_grid (cli::run_sweep plus the artifact
// epilogue), so every figure inherits the resilience surface
// (journal/--resume, watchdog, retry/quarantine) and the observability
// surface (--metrics/--timeline/--profile).  `sweep` is the built-in sweep
// scenario on the same path.  The illustrative kinds (payback, load_trace,
// decision_histogram) have dedicated emitters that reproduce the retired
// standalone bench binaries byte-for-byte.
//
// run_bench_scenario is the testable core: tests drive it with an
// ostringstream and compare bytes against the recorded pre-refactor output.
#pragma once

#include <iosfwd>
#include <string>

#include "cli/args.hpp"
#include "cli/config_build.hpp"
#include "cli/sweep_runner.hpp"

namespace simsweep::cli {

/// The grid path `run`, `sweep` and `bench` share: runs `flags.plan` (with a
/// status board when flags.status asks for one), then the epilogue.
/// Diagnostics go to stderr prefixed with `command`: cells resumed, cells
/// quarantined and the interrupted notice.  Publishes the quarantine report
/// and every artifact flags.obs names, each atomically.  The caller prints
/// the reports.
[[nodiscard]] SweepResult run_grid(const char* command, GridFlags flags);

/// Runs `flags.plan.spec` and writes its report(s) to `out` (the byte-exact
/// bench format).  plan.trials == 0 means the SIMSWEEP_TRIALS env var, else
/// the spec's count; a zero plan.trial_timeout_s falls back to
/// SIMSWEEP_TRIAL_TIMEOUT.  Only grid scenarios journal, resume or publish
/// artifacts.  Returns the process exit code (130 when interrupted, 0
/// otherwise); throws on malformed specs and I/O failures.
int run_bench_scenario(const GridFlags& flags, std::ostream& out);

/// `simsweep bench` entry point: `--list`, or a positional scenario name /
/// file path plus the resilience and observability flags.  Unknown names
/// throw scenario::UnknownScenarioError (main maps it to exit code 2 with a
/// did-you-mean suggestion).
int cmd_bench(Args& args);

}  // namespace simsweep::cli
