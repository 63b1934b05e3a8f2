// Technique (b), SWAP: process swapping onto over-allocated spares under a
// policy, with the optional eviction-guard watchdog.  The hybrid DLB+SWAP
// is the same class plus a repartition after every adaptation.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "strategy/runtime.hpp"
#include "strategy/strategy.hpp"
#include "swap/planner.hpp"

namespace simsweep::strategy {

namespace {

/// The paper's swap mechanism: a spare pool, faulty state transfers with
/// strike-based blacklisting of unreliable destinations, all-or-nothing
/// crash recovery onto spares, and the optional eviction-guard watchdog.
class SwapTechnique : public TechniqueRuntime {
 public:
  SwapTechnique(const StrategyContext& ctx, swap::PolicyParams policy,
                std::vector<platform::HostId> spares,
                const SwapOptions& options)
      : TechniqueRuntime(ctx, make_policy_estimator(policy, options.estimator)),
        policy_(std::move(policy)),
        spares_(std::move(spares)),
        guard_enabled_(options.eviction_guard),
        stall_factor_(options.stall_factor) {}

 private:
  /// Runs after a boundary with no swaps, after the swaps land and after a
  /// crash recovery, before the application resumes.  SWAP keeps its
  /// partition; DLB+SWAP repartitions here.
  virtual void rebalance() {}

  void at_boundary(std::function<void()> resume) override {
    const BoundaryPlan planned = plan_swaps(policy_, spares_);
    if (planned.plan.decisions.empty()) {
      rebalance();
      resume();
      return;
    }
    execute(planned.plan.decisions, planned.trace_index, std::move(resume));
  }

  /// A dead spare is no candidate.
  void on_host_crashed(platform::HostId host) override {
    std::erase(spares_, host);
  }

  void recover() override {
    begin_recovery();
    recovery_begin_recoveries_ = exec().result().failures.crash_recoveries;
    recover_round();
  }

  void on_iteration_start() override {
    if (guard_enabled_) arm_watchdog();
  }

  // ------------------------------------------------------------- adaptation

  /// Transfers every swapped process's state concurrently over the shared
  /// link; the application stays paused (full barrier) until the last
  /// transfer lands or is abandoned, then the surviving placement changes
  /// take effect (an abandoned move leaves the evicted process in place).
  void execute(const std::vector<swap::SwapDecision>& decisions,
               std::size_t trace_index, std::function<void()> resume) {
    begin_adaptation_pause();
    std::vector<PlannedMove> moves;
    moves.reserve(decisions.size());
    for (const swap::SwapDecision& d : decisions)
      moves.push_back({d.slot, static_cast<platform::HostId>(d.to)});
    transfer_moves(
        moves, [this](platform::HostId to) { note_strike(to); },
        [this](std::size_t slot, platform::HostId to) { apply_move(slot, to); },
        [this, trace_index, resume = std::move(resume)](std::size_t landed) {
          charge_adaptation_pause();
          trace_swaps_applied(trace_index, landed);
          rebalance();
          resume();
        });
  }

  /// Moves `slot`'s process onto `to`, updating the spare pool.  A vacated
  /// host returns to the pool unless it is dead or blacklisted.
  void apply_move(std::size_t slot, platform::HostId to) {
    IterativeExecution& e = exec();
    const platform::HostId from = e.placement()[slot];
    e.move_process(slot, to);
    std::erase(spares_, to);
    if (!e.cluster().host(from).crashed() && !blacklist_.contains(from))
      spares_.push_back(from);
    ++e.result().adaptations;
  }

  /// Books one failed transfer attempt against destination `to`; repeated
  /// offenders are blacklisted out of the spare pool.
  void note_strike(platform::HostId to) {
    if (faults() == nullptr) return;
    if (++strikes_[to] != faults()->spec().blacklist_after) return;
    if (!blacklist_.insert(to).second) return;
    std::erase(spares_, to);
    ++exec().result().failures.hosts_blacklisted;
    if (obs::MetricsRegistry* metrics = exec().simulator().metrics())
      metrics->add("strategy.hosts_blacklisted");
    trace_recovery("host_blacklisted", 1);
  }

  /// Online spares (blacklisted hosts were already removed), fastest first
  /// by the estimator.
  [[nodiscard]] std::vector<platform::HostId> usable_spares() {
    std::vector<platform::HostId> out;
    for (platform::HostId h : spares_)
      if (exec().cluster().host(h).online()) out.push_back(h);
    return fastest_first(std::move(out));
  }

  // --------------------------------------------------------- crash recovery

  /// One round of crash recovery: every dead slot gets a replacement spun
  /// up on an online spare, paying a full state transfer each (boundary
  /// state is re-materialised from the surviving peers).  Rounds repeat
  /// until no dead slot remains — transfers can fail or their targets can
  /// crash mid-round — and recovery is all-or-nothing: fewer usable spares
  /// than dead slots is terminal, since a partially-replaced application
  /// cannot make progress.
  void recover_round() {
    IterativeExecution& e = exec();
    std::vector<std::size_t> dead;
    for (std::size_t slot = 0; slot < e.placement().size(); ++slot)
      if (e.cluster().host(e.placement()[slot]).crashed())
        dead.push_back(slot);
    if (dead.empty()) {
      finish_recovery();
      return;
    }
    const auto candidates = usable_spares();
    if (candidates.size() < dead.size()) {
      mark_resource_exhausted();
      return;
    }
    std::vector<PlannedMove> moves;
    moves.reserve(dead.size());
    for (std::size_t i = 0; i < dead.size(); ++i)
      moves.push_back({dead[i], candidates[i]});
    transfer_moves(
        moves, [this](platform::HostId to) { note_strike(to); },
        [this](std::size_t slot, platform::HostId to) {
          apply_move(slot, to);
          ++exec().result().failures.crash_recoveries;
        },
        [this](std::size_t) { recover_round(); });
  }

  /// All crashed slots replaced: charge the recovery pause and resume.
  void finish_recovery() {
    charge_recovery_pause();
    trace_recovery("replace_on_spares",
                   exec().result().failures.crash_recoveries -
                       recovery_begin_recoveries_);
    rebalance();
    exec().restart_iteration();
  }

  // --------------------------------------------------------- eviction guard

  /// (Re-)arms the stall watchdog for the iteration that just started.
  void arm_watchdog() {
    IterativeExecution& e = exec();
    watchdog().cancel();
    // Expected duration: the last measured iteration, or a prediction
    // from current estimates for the very first one.
    double expected;
    if (e.result().iterations_completed > 0) {
      expected = e.last_iteration_time();
    } else {
      expected = swap::predict_iteration_time(
          active_estimates(), estimate_comm_time(e.spec(), e.cluster().link()));
    }
    if (!std::isfinite(expected) || expected <= 0.0) expected = 60.0;
    watchdog() = e.simulator().after(stall_factor_ * expected,
                                     [this] { handle_stall(); });
  }

  /// Forced relocation of every slot stuck on an offline host; fires from
  /// the stall watchdog.  The iteration is aborted (its partial work is
  /// lost), the suspended processes' state is transferred off the reclaimed
  /// hosts, and the iteration restarts on the new placement.
  void handle_stall() {
    IterativeExecution& e = exec();
    if (!e.iteration_in_flight() || e.done() || recovering()) return;

    std::vector<std::size_t> stuck;
    for (std::size_t slot = 0; slot < e.placement().size(); ++slot)
      if (!e.cluster().host(e.placement()[slot]).online())
        stuck.push_back(slot);

    const auto candidates = usable_spares();

    if (stuck.empty() || candidates.empty()) {
      // Slow but not evicted, or nowhere to go: check again later.
      watchdog() = e.simulator().after(stall_factor_ * 60.0,
                                       [this] { handle_stall(); });
      return;
    }

    e.abort_iteration();
    begin_adaptation_pause();
    const std::size_t count = std::min(stuck.size(), candidates.size());
    std::vector<PlannedMove> moves;
    moves.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      moves.push_back({stuck[i], candidates[i]});
    transfer_moves(
        moves, [this](platform::HostId to) { note_strike(to); },
        [this](std::size_t slot, platform::HostId to) { apply_move(slot, to); },
        [this](std::size_t landed) {
          charge_adaptation_pause();
          trace_recovery("stall_force_swap", landed);
          exec().restart_iteration();  // re-arms the watchdog
        });
  }

  swap::PolicyParams policy_;
  std::vector<platform::HostId> spares_;
  bool guard_enabled_ = false;
  double stall_factor_ = 3.0;
  std::map<platform::HostId, std::size_t> strikes_;  // failed transfers/dst
  std::set<platform::HostId> blacklist_;
  std::size_t recovery_begin_recoveries_ = 0;
};

/// Hybrid extension (paper §2: "a DLB implementation could further improve
/// performance through the use of an over-allocation mechanism similar to
/// the one used in our approach"): swap to spares first, then repartition
/// the work proportionally to the estimated speeds of the resulting
/// placement, counted as part of the same adaptation, at zero cost.
class DlbSwapTechnique final : public SwapTechnique {
 public:
  using SwapTechnique::SwapTechnique;

 private:
  /// Estimated speeds are floored at 1 flop/s so a host predicted offline
  /// keeps a sliver instead of dividing by 0.
  void rebalance() override {
    IterativeExecution& e = exec();
    const sim::SimTime t = now();
    std::vector<double> speeds;
    speeds.reserve(e.placement().size());
    for (platform::HostId h : e.placement())
      speeds.push_back(
          std::max(1.0, estimator().estimate(e.cluster().host(h), t)));
    e.set_partition(app::WorkPartition::proportional(speeds));
  }
};

}  // namespace

std::unique_ptr<IterativeExecution> SwapStrategy::launch(StrategyContext& ctx) {
  Allocation alloc = pick_allocation(ctx.cluster, ctx.spec.active_processes,
                                     ctx.spare_count, ctx.initial_schedule);
  const double startup = ctx.cluster.startup_cost(alloc.total());
  return TechniqueRuntime::launch(
      ctx,
      std::make_unique<SwapTechnique>(ctx, policy_, std::move(alloc.spares),
                                      options_),
      std::move(alloc.active),
      app::WorkPartition::equal(ctx.spec.active_processes), startup);
}

std::unique_ptr<IterativeExecution> DlbSwapStrategy::launch(
    StrategyContext& ctx) {
  Allocation alloc = pick_allocation(ctx.cluster, ctx.spec.active_processes,
                                     ctx.spare_count, ctx.initial_schedule);
  const double startup = ctx.cluster.startup_cost(alloc.total());
  auto initial = proportional_to_effective_speeds(ctx.cluster, alloc.active);
  return TechniqueRuntime::launch(
      ctx,
      std::make_unique<DlbSwapTechnique>(ctx, policy_, std::move(alloc.spares),
                                         SwapOptions{}),
      std::move(alloc.active), std::move(initial), startup);
}

}  // namespace simsweep::strategy
