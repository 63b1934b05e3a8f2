// Compares the paper's three swapping policies (and NONE) on the simulated
// platform at three levels of environment dynamism, and prints a short
// narrative of when each policy is the right choice.
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "load/onoff.hpp"
#include "swap/policy.hpp"

namespace core = simsweep::core;
namespace app = simsweep::app;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace swp = simsweep::swap;

int main() {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 32;
  cfg.app = app::AppSpec::with_iteration_minutes(4, 50, 2.0);
  cfg.app.comm_bytes_per_process = 100.0 * app::kKiB;
  cfg.app.state_bytes_per_process = 100.0 * app::kMiB;
  cfg.spare_count = 28;
  cfg.seed = 7;

  struct Entry {
    const char* label;
    swp::PolicyParams policy;
  };
  const std::vector<Entry> policies{
      {"greedy", swp::greedy_policy()},
      {"safe", swp::safe_policy()},
      {"friendly", swp::friendly_policy()},
  };
  const std::vector<std::pair<const char*, double>> environments{
      {"quiescent (x=0.02)", 0.02},
      {"moderate  (x=0.10)", 0.10},
      {"chaotic   (x=0.80)", 0.80},
  };

  std::printf("%-20s %12s", "environment", "NONE");
  for (const Entry& e : policies) std::printf(" %11s", e.label);
  std::printf("   (makespan seconds, lower is better)\n");

  for (const auto& [env_label, dynamism] : environments) {
    const load::OnOffModel model(load::OnOffParams::dynamism(dynamism));
    strat::NoneStrategy none;
    const auto base =
        core::reduce_trials(core::run_trials_results(cfg, model, none, 6));
    std::printf("%-20s %12.0f", env_label, base.mean);
    for (const Entry& e : policies) {
      strat::SwapStrategy s{e.policy};
      const auto stats =
          core::reduce_trials(core::run_trials_results(cfg, model, s, 6));
      std::printf(" %11.0f", stats.mean);
    }
    std::printf("\n");
  }

  std::puts(
      "\nReading the table (paper §7.2):\n"
      " * greedy chases every predicted gain: best when load persists for\n"
      "   several iterations, worst when the environment decorrelates;\n"
      " * safe swaps only for >=20% gains recovered within half an\n"
      "   iteration, judged on 5 minutes of history: smaller upside, small\n"
      "   and bounded downside;\n"
      " * friendly adds a whole-application improvement test so it never\n"
      "   hoards fast processors for marginal wins.");
  return 0;
}
