// Technique (a), NONE: fixed placement and equal partition for the whole
// run.  No boundary adaptation; a crash means the job is resubmitted from
// scratch.
#include <memory>
#include <utility>
#include <vector>

#include "strategy/runtime.hpp"
#include "strategy/schedule.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::strategy {

namespace {

class NoneTechnique final : public TechniqueRuntime {
 public:
  using TechniqueRuntime::TechniqueRuntime;

 private:
  /// NONE's failure semantics: the job is resubmitted from scratch — pay
  /// startup again and recompute every iteration on the fastest hosts still
  /// alive.  No spare pool exists, so too few online hosts is terminal.
  void recover() override {
    begin_recovery();
    exec().rollback_to_iteration(0);
    const std::size_t n = exec().spec().active_processes;
    exec().simulator().after(exec().cluster().startup_cost(n), [this, n] {
      IterativeExecution& e = exec();
      std::vector<platform::HostId> fastest;
      for (platform::HostId h : e.cluster().by_effective_speed())
        if (e.cluster().host(h).online()) fastest.push_back(h);
      if (fastest.size() < n) {
        mark_resource_exhausted();
        return;
      }
      fastest.resize(n);
      e.set_placement(std::move(fastest));
      ++e.result().failures.crash_recoveries;
      charge_recovery_pause();
      trace_recovery("restart_from_scratch", n);
      e.restart_iteration();
    });
  }
};

}  // namespace

std::unique_ptr<IterativeExecution> NoneStrategy::launch(StrategyContext& ctx) {
  const std::size_t n = ctx.spec.active_processes;
  Allocation alloc = pick_allocation(ctx.cluster, n, 0, ctx.initial_schedule);
  return TechniqueRuntime::launch(ctx, std::make_unique<NoneTechnique>(ctx),
                                  std::move(alloc.active),
                                  app::WorkPartition::equal(n),
                                  ctx.cluster.startup_cost(n));
}

}  // namespace simsweep::strategy
