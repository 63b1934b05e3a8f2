// Replaying a recorded load trace (the paper's "future work" extension).
//
// Builds a synthetic office-hours load profile — machines idle at night,
// loaded during the working day with a lunchtime dip — replays it against
// the 32-host platform with per-host random phases, and compares NONE, DLB
// and SWAP(safe) over a run long enough to straddle the morning load surge.
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "load/misc_models.hpp"
#include "swap/policy.hpp"

namespace core = simsweep::core;
namespace app = simsweep::app;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace sim = simsweep::sim;

namespace {

/// One synthetic "day" compressed to 4 simulated hours, sampled at 5-minute
/// resolution: quiet first hour, ramp to busy, lunchtime dip, busy
/// afternoon, quiet tail.
std::vector<sim::Sample> office_day() {
  std::vector<sim::Sample> trace;
  const double five_min = 300.0;
  auto block = [&](double start_slot, double end_slot, double level) {
    for (double s = start_slot; s < end_slot; s += 1.0)
      trace.push_back(sim::Sample{s * five_min, level});
  };
  block(0, 12, 0.0);   // hour 1: idle
  block(12, 18, 1.0);  // ramp: one competitor
  block(18, 24, 2.0);  // busy: two competitors
  block(24, 27, 1.0);  // lunch dip
  block(27, 39, 2.0);  // afternoon: busy
  block(39, 48, 0.0);  // evening: idle
  return trace;
}

}  // namespace

int main() {
  const double day = 4.0 * 3600.0;
  const load::TraceModel model(office_day(), day, /*random_phase=*/true);

  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 32;
  cfg.app = app::AppSpec::with_iteration_minutes(4, 80, 2.0);
  cfg.app.comm_bytes_per_process = 100.0 * app::kKiB;
  cfg.app.state_bytes_per_process = 10.0 * app::kMiB;
  cfg.spare_count = 28;
  cfg.seed = 11;

  std::puts("trace_scenario: office-hours load replay (4h day, random "
            "per-host phase)");
  std::printf("%-12s %14s %14s %10s\n", "strategy", "makespan[s]", "vs NONE",
              "moves");

  strat::NoneStrategy none;
  const auto base =
      core::reduce_trials(core::run_trials_results(cfg, model, none, 6));
  std::printf("%-12s %14.0f %13.2fx %10.1f\n", "NONE", base.mean, 1.0, 0.0);

  strat::DlbStrategy dlb;
  const auto dlb_stats =
      core::reduce_trials(core::run_trials_results(cfg, model, dlb, 6));
  std::printf("%-12s %14.0f %13.2fx %10.1f\n", "DLB", dlb_stats.mean,
              base.mean / dlb_stats.mean, dlb_stats.mean_adaptations);

  strat::SwapStrategy safe{simsweep::swap::safe_policy()};
  const auto swap_stats =
      core::reduce_trials(core::run_trials_results(cfg, model, safe, 6));
  std::printf("%-12s %14.0f %13.2fx %10.1f\n", "SWAP(safe)", swap_stats.mean,
              base.mean / swap_stats.mean, swap_stats.mean_adaptations);

  std::puts("\nWith per-host phases, some machines are already busy when\n"
            "the application starts while others load up mid-run; swapping\n"
            "follows the idle machines around the office.");
  return 0;
}
