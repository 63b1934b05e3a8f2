// Technique (c), DLB: repartition work every iteration so that iteration
// times are balanced for the processors' current performance.
// Redistribution itself is free (a lower bound, as in the paper).
#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "strategy/runtime.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::strategy {

namespace {

class DlbTechnique final : public TechniqueRuntime {
 public:
  using TechniqueRuntime::TechniqueRuntime;

 private:
  void at_boundary(std::function<void()> resume) override {
    rebalance();
    ++exec().result().adaptations;
    resume();
  }

  /// Dead slots are reassigned round-robin to the surviving allocated hosts
  /// (online first, fastest first) and the work repartitioned, at zero cost
  /// like every DLB adaptation.  All hosts dead is terminal.
  void recover() override {
    IterativeExecution& e = exec();
    std::vector<std::size_t> dead;
    std::vector<platform::HostId> survivors;
    for (std::size_t slot = 0; slot < e.placement().size(); ++slot) {
      const platform::HostId h = e.placement()[slot];
      if (e.cluster().host(h).crashed()) {
        dead.push_back(slot);
      } else if (std::find(survivors.begin(), survivors.end(), h) ==
                 survivors.end()) {
        survivors.push_back(h);
      }
    }
    std::stable_sort(survivors.begin(), survivors.end(),
                     [&](platform::HostId a, platform::HostId b) {
                       const auto& ha = e.cluster().host(a);
                       const auto& hb = e.cluster().host(b);
                       if (ha.online() != hb.online()) return ha.online();
                       return ha.effective_speed() > hb.effective_speed();
                     });
    if (survivors.empty()) {
      mark_resource_exhausted();
      return;
    }
    for (std::size_t i = 0; i < dead.size(); ++i)
      e.move_process(dead[i], survivors[i % survivors.size()]);
    e.result().failures.crash_recoveries += dead.size();
    rebalance();
    trace_recovery("rebalance_onto_survivors", dead.size());
    e.restart_iteration();
  }

  /// Rebalances for the placement's current effective speeds.
  void rebalance() {
    exec().set_partition(
        proportional_to_effective_speeds(exec().cluster(), exec().placement()));
  }
};

}  // namespace

std::unique_ptr<IterativeExecution> DlbStrategy::launch(StrategyContext& ctx) {
  const std::size_t n = ctx.spec.active_processes;
  Allocation alloc = pick_allocation(ctx.cluster, n, 0, ctx.initial_schedule);
  // Initial partition balances iteration times for the speeds observed at
  // startup; each boundary rebalances for current speeds, at zero cost.
  auto initial = proportional_to_effective_speeds(ctx.cluster, alloc.active);
  return TechniqueRuntime::launch(ctx, std::make_unique<DlbTechnique>(ctx),
                                  std::move(alloc.active), std::move(initial),
                                  ctx.cluster.startup_cost(n));
}

}  // namespace simsweep::strategy
