#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "strategy/components.hpp"

namespace simsweep::strategy {

double CrComponent::adaptation_cost(IterativeExecution& exec) {
  const std::size_t n = exec.spec().active_processes;
  const double transfer_each = exec.cluster().link().transfer_time(
      exec.spec().state_bytes_per_process * static_cast<double>(n));
  return 2.0 * transfer_each + exec.cluster().startup_cost(n);
}

/// N fastest pool hosts by the runtime's estimator, fastest first.
std::vector<platform::HostId> CrComponent::best_of_pool(
    TechniqueRuntime& rt, const std::vector<platform::HostId>& pool,
    std::size_t n) const {
  IterativeExecution& exec = rt.exec();
  const sim::SimTime now = rt.now();
  std::vector<platform::HostId> sorted = pool;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](platform::HostId a, platform::HostId b) {
                     return rt.estimator().estimate(exec.cluster().host(a),
                                                    now) >
                            rt.estimator().estimate(exec.cluster().host(b),
                                                    now);
                   });
  sorted.resize(n);
  return sorted;
}

/// Pool hosts currently usable for a restart (crashed ones were pruned on
/// the crash callback; reclaimed-offline ones are skipped too).
std::vector<platform::HostId> CrComponent::online_pool(
    TechniqueRuntime& rt) const {
  IterativeExecution& exec = rt.exec();
  std::vector<platform::HostId> out;
  for (platform::HostId h : pool_)
    if (exec.cluster().host(h).online()) out.push_back(h);
  return out;
}

void CrComponent::at_boundary(TechniqueRuntime& rt,
                              std::function<void()> resume) {
  IterativeExecution& exec = rt.exec();
  std::vector<platform::HostId> idle;
  for (platform::HostId h : pool_)
    if (std::find(exec.placement().begin(), exec.placement().end(), h) ==
        exec.placement().end())
      idle.push_back(h);
  const BoundaryPlan planned =
      plan_boundary_swaps(rt, policy_, idle, adaptation_cost(exec));
  if (planned.plan.decisions.empty()) {
    resume();
    return;
  }
  checkpoint_and_restart(rt, planned.trace_index, std::move(resume));
}

/// Checkpoint: all processes write state to the central store.  The write
/// may fail (drawn once per checkpoint): the transfer time is still spent,
/// but the store keeps the previous successful checkpoint and the planned
/// restart is skipped.  On success: pay startup, move to the best pool
/// hosts, and every process reads the checkpoint on the new placement.
void CrComponent::checkpoint_and_restart(TechniqueRuntime& rt,
                                         std::size_t trace_index,
                                         std::function<void()> resume) {
  IterativeExecution& exec = rt.exec();
  const std::size_t n = exec.spec().active_processes;
  const bool write_fails =
      rt.faults() != nullptr && rt.faults()->draw_checkpoint_failure();
  const std::size_t ckpt_iter = exec.iteration();
  const sim::SimTime ckpt_begin = rt.now();
  rt.begin_adaptation_pause();
  auto self = rt.shared_from_this();
  rt.reliable_broadcast(n, [this, self, resume = std::move(resume), n,
                            write_fails, ckpt_iter, ckpt_begin, trace_index] {
    sim::Simulator& simulator = self->exec().simulator();
    if (obs::MetricsRegistry* metrics = simulator.metrics())
      metrics->add(obs::labelled("cr.checkpoints", "result",
                                 write_fails ? "failed" : "ok"));
    if (obs::TimelineTracer* timeline = simulator.timeline())
      timeline->span(timeline->track("strategy"), "checkpoint write", "cr",
                     ckpt_begin, simulator.now(),
                     {{"iter", static_cast<double>(ckpt_iter)},
                      {"failed", write_fails ? 1.0 : 0.0}});
    if (write_fails) {
      ++self->exec().result().failures.checkpoint_failures;
      self->charge_failure_pause();
      self->trace_swaps_applied(trace_index, 0);
      resume();
      return;
    }
    has_ckpt_ = true;
    last_ckpt_iter_ = ckpt_iter;
    self->exec().simulator().after(
        self->exec().cluster().startup_cost(n),
        [this, self, resume, n, trace_index] {
          self->exec().set_placement(best_of_pool(*self, pool_, n));
          self->reliable_broadcast(n, [this, self, resume, trace_index] {
            ++self->exec().result().adaptations;
            self->charge_adaptation_pause();
            self->trace_swaps_applied(trace_index, 1);
            resume();
          });
        });
  });
}

void CrComponent::recover(TechniqueRuntime& rt) {
  rt.begin_recovery();
  IterativeExecution& exec = rt.exec();
  exec.rollback_to_iteration(has_ckpt_ ? last_ckpt_iter_ : 0);
  const std::size_t n = exec.spec().active_processes;
  auto self = rt.shared_from_this();
  exec.simulator().after(exec.cluster().startup_cost(n), [this, self, n] {
    if (!has_ckpt_) {
      finish_restart(*self);
      return;
    }
    self->reliable_broadcast(n, [this, self] { finish_restart(*self); });
  });
}

/// Tail of a crash restart: re-check the pool (more hosts may have died
/// during the startup pause), place on the best N survivors and resume.
void CrComponent::finish_restart(TechniqueRuntime& rt) {
  IterativeExecution& exec = rt.exec();
  const std::size_t n = exec.spec().active_processes;
  const auto usable = online_pool(rt);
  if (usable.size() < n) {
    rt.mark_resource_exhausted();
    return;
  }
  exec.set_placement(best_of_pool(rt, usable, n));
  ++exec.result().adaptations;
  ++exec.result().failures.crash_recoveries;
  rt.charge_recovery_pause();
  rt.trace_recovery("checkpoint_restore", n);
  exec.restart_iteration();
}

}  // namespace simsweep::strategy
