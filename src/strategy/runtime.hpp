// Shared technique runtime: the one place that drives the common
// measure → estimate → decide → act → recover loop for every technique.
//
// The strategy layer has two tiers.  TechniqueRuntime (this file) owns:
//
//   - the boundary dispatch (cancel any stall watchdog, delegate to the
//     technique, which must eventually resume the application);
//   - the fault-recovery ladder from the fault-injection subsystem: the
//     crash callback and the iteration-start observer both funnel into one
//     guarded react path that aborts the in-flight iteration and hands the
//     crash to the technique;
//   - faulty state transfers (partial payload on failure, capped
//     exponential backoff, abandonment) and reliable central-store
//     transfers, with the flow keep-alive bookkeeping;
//   - pause accounting (adaptation overhead vs. failure-induced lost time);
//   - decision-trace collection (strategy.hpp's trace_decisions flag).
//
// Each technique is one subclass (technique_*.cpp) that implements the
// virtual hooks below: what to do at an iteration boundary and how to
// recover from a crash.  None of them re-implements any of the above.
//
// Ownership: launch() hands the technique to the IterativeExecution it
// drives, which is its only owner.  Every callback the technique schedules
// (the boundary hook, the crash callback, the iteration-start observer,
// transfer completions, timers) borrows it through `this`, which is why a
// run's events must never fire after its execution is destroyed.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "strategy/decision_trace.hpp"
#include "strategy/estimator.hpp"
#include "strategy/executor.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::strategy {

/// Work split in proportion to the hosts' current effective speeds: DLB's
/// rebalance, and the initial partition of DLB and DLB+SWAP.
[[nodiscard]] app::WorkPartition proportional_to_effective_speeds(
    const platform::Cluster& cluster,
    const std::vector<platform::HostId>& hosts);

/// Shared state and machinery for one launched run; subclassed once per
/// technique.
class TechniqueRuntime {
 public:
  /// `estimator` may be null for techniques that never plan (NONE, DLB).
  explicit TechniqueRuntime(const StrategyContext& ctx,
                            std::shared_ptr<SpeedEstimator> estimator = nullptr)
      : faults_(ctx.faults),
        estimator_(std::move(estimator)),
        trace_enabled_(ctx.trace_decisions) {}
  virtual ~TechniqueRuntime() = default;
  TechniqueRuntime(const TechniqueRuntime&) = delete;
  TechniqueRuntime& operator=(const TechniqueRuntime&) = delete;

  /// The launch sequence behind every Strategy::launch: builds the
  /// execution on `active` with `partition`, gives it `technique` to own,
  /// installs the boundary hook and the fault-recovery ladder, and starts
  /// the run after `startup_cost_s`.  Both recovery triggers (the
  /// injector's crash callback and the iteration-start observer) only act
  /// while an iteration is in flight — begin_iteration starts tasks before
  /// the observer runs, so a crash in any other window (startup, boundary
  /// pause, recovery) is caught at the next iteration start.
  [[nodiscard]] static std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx, std::unique_ptr<TechniqueRuntime> technique,
      std::vector<platform::HostId> active, app::WorkPartition partition,
      double startup_cost_s);

 protected:
  // --- accessors ----------------------------------------------------------

  [[nodiscard]] IterativeExecution& exec() noexcept { return *exec_; }
  [[nodiscard]] fault::FaultInjector* faults() noexcept { return faults_; }
  [[nodiscard]] SpeedEstimator& estimator() noexcept { return *estimator_; }
  [[nodiscard]] sim::SimTime now() noexcept {
    return exec_->simulator().now();
  }
  [[nodiscard]] bool recovering() const noexcept { return recovering_; }
  [[nodiscard]] sim::EventHandle& watchdog() noexcept { return watchdog_; }

  /// `hosts` ordered fastest first by the estimator (stable on ties).
  [[nodiscard]] std::vector<platform::HostId> fastest_first(
      std::vector<platform::HostId> hosts);

  // --- planning -----------------------------------------------------------

  static constexpr std::size_t kNoTrace = static_cast<std::size_t>(-1);

  /// Planner inputs for the current placement and partition.
  [[nodiscard]] std::vector<swap::ActiveProcess> active_estimates();

  /// One boundary planning round: the planner's full output plus the index
  /// of the trace record it produced (kNoTrace when tracing is off).
  struct BoundaryPlan {
    swap::SwapPlan plan;
    std::size_t trace_index = kNoTrace;
  };

  /// Runs the policy planner against the current placement and
  /// `spare_hosts`, and records the round in the decision trace.
  /// `adaptation_cost_s` overrides the planner's per-process transfer
  /// estimate (checkpoint/restart's whole-application cost); unset selects
  /// the estimate.
  [[nodiscard]] BoundaryPlan plan_swaps(
      const swap::PolicyParams& policy,
      const std::vector<platform::HostId>& spare_hosts,
      std::optional<double> adaptation_cost_s = std::nullopt);

  // --- fault primitives ---------------------------------------------------

  /// The technique gives up: no usable host remains to recover onto.  The
  /// give-up instant is recorded as the makespan here because the
  /// experiment loop only notices at its next chunk boundary, possibly
  /// hours later.  Ends any recovery in progress.
  void mark_resource_exhausted();

  // --- transfers ----------------------------------------------------------

  /// One planned process relocation (partition slot -> destination host).
  struct PlannedMove {
    std::size_t slot = 0;
    platform::HostId to = 0;
  };

  /// Transfers every move's state concurrently over the shared link, each
  /// subject to fault injection: an attempt may die partway (the partial
  /// payload still occupied the link), failed attempts retry after capped
  /// exponential backoff, and a move is abandoned once retries run out.
  /// `apply` fires per landed payload (an abandoned move leaves the process
  /// in place), `on_strike(to)` per failed attempt, and `done(landed)` once
  /// after the last transfer completes or is abandoned.  With a null
  /// injector each move is exactly one clean transfer.
  void transfer_moves(
      const std::vector<PlannedMove>& moves,
      std::function<void(platform::HostId)> on_strike,
      std::function<void(std::size_t, platform::HostId)> apply,
      std::function<void(std::size_t)> done);

  /// `count` concurrent reliable transfers of the process state size (the
  /// central checkpoint store does not fail); `done` fires after the last.
  void reliable_broadcast(std::size_t count, std::function<void()> done);

  // --- pause accounting ---------------------------------------------------

  /// Marks the start of an adaptation pause at the current time.
  void begin_adaptation_pause() { pause_start_ = now(); }

  /// Marks the start of crash recovery: cancels any stall watchdog, raises
  /// the recovering flag (masking re-entrant crash reactions) and starts
  /// the pause clock.
  void begin_recovery();

  /// Charges the elapsed pause to adaptation overhead.
  void charge_adaptation_pause();

  /// Charges the elapsed pause to adaptation overhead AND failure-induced
  /// lost time (failed checkpoints, recovery work).
  void charge_failure_pause();

  /// Ends crash recovery: charge_failure_pause + clears the flag.
  void charge_recovery_pause();

  // --- decision traces ----------------------------------------------------

  /// Back-fills how many planned moves actually landed.
  void trace_swaps_applied(std::size_t index, std::size_t applied);

  /// Appends a recovery-action record.
  void trace_recovery(const char* action, std::size_t processes);

 private:
  // --- the technique ------------------------------------------------------

  /// Boundary adaptation.  Must eventually invoke `resume` exactly once
  /// (possibly after scheduling simulated work).  Default: do nothing.
  virtual void at_boundary(std::function<void()> resume) { resume(); }

  /// Crash recovery; runs with the iteration already aborted.  Repairs the
  /// placement and restarts, or gives up via mark_resource_exhausted.
  virtual void recover() = 0;

  /// Candidate-pool pruning when `host` crashes, before recovery fires.
  virtual void on_host_crashed(platform::HostId /*host*/) {}

  /// Runs at every iteration start, before the crash check (the eviction
  /// guard arms its stall watchdog here).
  virtual void on_iteration_start() {}

  // --- the shared machinery -----------------------------------------------

  void on_boundary(std::function<void()> resume);
  void react_to_crash();
  [[nodiscard]] bool placement_hit_by_crash();
  void start_faulty_transfer(double bytes, std::size_t attempt,
                             std::function<void()> on_attempt_failed,
                             std::function<void(bool)> done);
  std::size_t trace_boundary(const swap::SwapPlan& plan,
                             double measured_iter_time_s,
                             double adaptation_cost_s,
                             std::size_t active_count,
                             std::size_t spare_count);
  double audited_pause(const char* kind, obs::Histogram*& metric);

  IterativeExecution* exec_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
  std::shared_ptr<SpeedEstimator> estimator_;

  // Owns each in-flight transfer's flow: the link holds a flow only weakly
  // during its latency phase.
  std::vector<std::shared_ptr<net::Flow>> transfers_;
  std::size_t pending_ = 0;
  sim::SimTime pause_start_ = 0.0;
  sim::EventHandle watchdog_;
  bool recovering_ = false;
  // strategy.pause_s{kind=...} by kind, cached on the first pause of each.
  obs::Histogram* adaptation_pause_metric_ = nullptr;
  obs::Histogram* failure_pause_metric_ = nullptr;

  bool trace_enabled_ = false;
};

}  // namespace simsweep::strategy
