// Technique (d), CR: when moving to a better processor set passes the same
// policy criteria as swapping (with checkpoint/restart's true cost in the
// payback computation), every process writes its state to a central store,
// the application restarts on the best processors of the pool, and every
// process reads the checkpoint.  A crash rolls back to the last successful
// checkpoint.
#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "strategy/runtime.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::strategy {

namespace {

class CrTechnique final : public TechniqueRuntime {
 public:
  CrTechnique(const StrategyContext& ctx, swap::PolicyParams policy,
              std::vector<platform::HostId> pool)
      : TechniqueRuntime(ctx, make_policy_estimator(policy)),
        policy_(std::move(policy)),
        pool_(std::move(pool)) {}

 private:
  void at_boundary(std::function<void()> resume) override {
    IterativeExecution& e = exec();
    std::vector<platform::HostId> idle;
    for (platform::HostId h : pool_)
      if (std::find(e.placement().begin(), e.placement().end(), h) ==
          e.placement().end())
        idle.push_back(h);
    const BoundaryPlan planned = plan_swaps(policy_, idle, adaptation_cost());
    if (planned.plan.decisions.empty()) {
      resume();
      return;
    }
    checkpoint_and_restart(planned.trace_index, std::move(resume));
  }

  /// Dead hosts leave the pool for good.
  void on_host_crashed(platform::HostId host) override {
    std::erase(pool_, host);
  }

  /// Roll back to the last successful checkpoint (from scratch when none
  /// exists), pay the restart startup, re-read the checkpoint from the
  /// reliable store and resume on the best pool hosts still alive.  Too few
  /// online pool hosts is terminal.
  void recover() override {
    begin_recovery();
    IterativeExecution& e = exec();
    e.rollback_to_iteration(has_ckpt_ ? last_ckpt_iter_ : 0);
    const std::size_t n = e.spec().active_processes;
    e.simulator().after(e.cluster().startup_cost(n), [this, n] {
      if (!has_ckpt_) {
        finish_restart();
        return;
      }
      reliable_broadcast(n, [this] { finish_restart(); });
    });
  }

  /// CR's true adaptation cost, charged in the payback computation via
  /// PlanContext::adaptation_cost_s: write N states, restart the
  /// application, read N states.
  [[nodiscard]] double adaptation_cost() {
    const std::size_t n = exec().spec().active_processes;
    const double transfer_each = exec().cluster().link().transfer_time(
        exec().spec().state_bytes_per_process * static_cast<double>(n));
    return 2.0 * transfer_each + exec().cluster().startup_cost(n);
  }

  /// The N fastest of `pool` by the estimator, fastest first.
  [[nodiscard]] std::vector<platform::HostId> best_of(
      std::vector<platform::HostId> pool, std::size_t n) {
    std::vector<platform::HostId> sorted = fastest_first(std::move(pool));
    sorted.resize(n);
    return sorted;
  }

  /// Checkpoint: all processes write state to the central store.  The
  /// write may fail (drawn once per checkpoint): the transfer time is still
  /// spent, but the store keeps the previous successful checkpoint and the
  /// planned restart is skipped.  On success: pay startup, move to the best
  /// pool hosts, and every process reads the checkpoint on the new
  /// placement.
  void checkpoint_and_restart(std::size_t trace_index,
                              std::function<void()> resume) {
    const std::size_t n = exec().spec().active_processes;
    const bool write_fails =
        faults() != nullptr && faults()->draw_checkpoint_failure();
    const std::size_t ckpt_iter = exec().iteration();
    const sim::SimTime ckpt_begin = now();
    begin_adaptation_pause();
    reliable_broadcast(n, [this, resume = std::move(resume), n, write_fails,
                           ckpt_iter, ckpt_begin, trace_index] {
      sim::Simulator& simulator = exec().simulator();
      if (obs::MetricsRegistry* metrics = simulator.metrics())
        metrics->add(obs::labelled("cr.checkpoints", "result",
                                   write_fails ? "failed" : "ok"));
      if (obs::TimelineTracer* timeline = simulator.timeline())
        timeline->span(timeline->track("strategy"), "checkpoint write", "cr",
                       ckpt_begin, simulator.now(),
                       {{"iter", static_cast<double>(ckpt_iter)},
                        {"failed", write_fails ? 1.0 : 0.0}});
      if (write_fails) {
        ++exec().result().failures.checkpoint_failures;
        charge_failure_pause();
        trace_swaps_applied(trace_index, 0);
        resume();
        return;
      }
      has_ckpt_ = true;
      last_ckpt_iter_ = ckpt_iter;
      simulator.after(exec().cluster().startup_cost(n), [this, resume, n,
                                                         trace_index] {
        exec().set_placement(best_of(pool_, n));
        reliable_broadcast(n, [this, resume, trace_index] {
          ++exec().result().adaptations;
          charge_adaptation_pause();
          trace_swaps_applied(trace_index, 1);
          resume();
        });
      });
    });
  }

  /// Tail of a crash restart: re-check the pool (more hosts may have died
  /// during the startup pause), place on the best N survivors and resume.
  /// Crashed hosts were pruned on the crash callback; reclaimed-offline
  /// ones are skipped too.
  void finish_restart() {
    IterativeExecution& e = exec();
    const std::size_t n = e.spec().active_processes;
    std::vector<platform::HostId> usable;
    for (platform::HostId h : pool_)
      if (e.cluster().host(h).online()) usable.push_back(h);
    if (usable.size() < n) {
      mark_resource_exhausted();
      return;
    }
    e.set_placement(best_of(std::move(usable), n));
    ++e.result().adaptations;
    ++e.result().failures.crash_recoveries;
    charge_recovery_pause();
    trace_recovery("checkpoint_restore", n);
    e.restart_iteration();
  }

  swap::PolicyParams policy_;
  std::vector<platform::HostId> pool_;  // every allocated host still alive
  bool has_ckpt_ = false;           // a checkpoint write has succeeded
  std::size_t last_ckpt_iter_ = 0;  // iterations covered by that checkpoint
};

}  // namespace

std::unique_ptr<IterativeExecution> CrStrategy::launch(StrategyContext& ctx) {
  const std::size_t n = ctx.spec.active_processes;
  Allocation alloc =
      pick_allocation(ctx.cluster, n, ctx.spare_count, ctx.initial_schedule);
  std::vector<platform::HostId> pool = alloc.active;
  pool.insert(pool.end(), alloc.spares.begin(), alloc.spares.end());
  return TechniqueRuntime::launch(
      ctx, std::make_unique<CrTechnique>(ctx, policy_, std::move(pool)),
      std::move(alloc.active), app::WorkPartition::equal(n),
      ctx.cluster.startup_cost(n));
}

}  // namespace simsweep::strategy
