// Quickstart: simulate one application on a shared 32-workstation platform
// and compare do-nothing against policy-driven process swapping.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/experiment.hpp"
#include "load/onoff.hpp"
#include "swap/policy.hpp"

namespace core = simsweep::core;
namespace app = simsweep::app;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;

int main() {
  // A 32-host LAN of 100-500 Mflop/s workstations on a 6 MB/s shared link
  // (the paper's platform), with moderately dynamic ON/OFF CPU load.
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 32;
  cfg.seed = 2003;

  // The application: 4 processes, 60 iterations of ~2 minutes each,
  // 100 KiB of boundary exchange and 1 MiB of process state per process.
  cfg.app = app::AppSpec::with_iteration_minutes(/*active=*/4,
                                                 /*iterations=*/60,
                                                 /*minutes=*/2.0);
  cfg.app.comm_bytes_per_process = 100.0 * app::kKiB;
  cfg.app.state_bytes_per_process = app::kMiB;
  cfg.spare_count = 4;  // 100 % over-allocation

  const load::OnOffModel environment(load::OnOffParams::dynamism(0.25));

  strat::NoneStrategy none;
  strat::SwapStrategy greedy{simsweep::swap::greedy_policy()};
  strat::SwapStrategy safe{simsweep::swap::safe_policy()};

  std::printf("strategy        makespan[s]   vs NONE   swaps\n");
  const auto baseline =
      core::reduce_trials(core::run_trials_results(cfg, environment, none, 5));
  std::printf("%-14s %12.1f %8.2fx %7.1f\n", "NONE", baseline.mean, 1.0, 0.0);
  for (auto* s : {static_cast<strat::Strategy*>(&greedy),
                  static_cast<strat::Strategy*>(&safe)}) {
    const auto stats =
        core::reduce_trials(core::run_trials_results(cfg, environment, *s, 5));
    std::printf("%-14s %12.1f %8.2fx %7.1f\n", s->name().c_str(), stats.mean,
                baseline.mean / stats.mean, stats.mean_adaptations);
  }
  std::puts(
      "\nSwapping moves work off loaded processors at iteration boundaries;\n"
      "see DESIGN.md and `simsweep bench` for the paper's full figures.");
  return 0;
}
