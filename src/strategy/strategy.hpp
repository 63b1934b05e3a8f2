// Execution strategies compared in the paper (§6/§7): do-nothing, process
// swapping, dynamic load balancing, and checkpoint/restart.
//
// Each strategy drives one application run on a shared platform.  Calling
// run() schedules everything on the simulator and returns a handle whose
// RunResult is complete once the simulation has drained (or hit a horizon).
#pragma once

#include <memory>
#include <string>

#include "app/app_spec.hpp"
#include "net/shared_link.hpp"
#include "platform/cluster.hpp"
#include "strategy/executor.hpp"
#include "strategy/run_result.hpp"
#include "strategy/schedule.hpp"
#include "swap/policy.hpp"

namespace simsweep::fault {
class FaultInjector;
}

namespace simsweep::strategy {

/// Everything a strategy needs to set up a run.
struct StrategyContext {
  sim::Simulator& simulator;
  platform::Cluster& cluster;
  net::SharedLinkNetwork& network;
  const app::AppSpec& spec;

  /// Spare processors to over-allocate (M); used by SWAP and CR.
  std::size_t spare_count = 0;

  /// Pre-execution scheduler ranking (the paper always uses
  /// kFastestEffective; the alternatives feed abl_initial_schedule).
  InitialSchedule initial_schedule = InitialSchedule::kFastestEffective;

  /// Armed fault injector, or null when fault injection is disabled.
  /// Strategies consult it for transfer/checkpoint failure draws and react
  /// to host crashes; with a null injector behaviour is bitwise identical
  /// to the fault-free code path.
  fault::FaultInjector* faults = nullptr;

  /// Record a DecisionRecord for every boundary planning round and
  /// recovery action into RunResult::decision_trace.  Tracing never touches
  /// the simulation itself, so results are identical either way.
  bool trace_decisions = false;
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Schedules the run onto ctx.simulator.  The returned execution owns the
  /// run state, including the technique; read result() after the simulator
  /// drains.
  ///
  /// Ownership rule: a run's events never fire after its execution is
  /// destroyed.  They borrow the execution and its technique without owning
  /// them, so the simulator must not run again once the execution is gone;
  /// core::run_single destroys the execution before the simulator.
  [[nodiscard]] virtual std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx) = 0;
};

/// (a) Do nothing: fixed placement and equal partition for the whole run.
class NoneStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string name() const override { return "NONE"; }
  [[nodiscard]] std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx) override;
};

/// (c) Dynamic load balancing: repartitions work every iteration so that
/// iteration times are balanced for the processors' current performance.
/// Redistribution itself is free (a lower bound, as in the paper).
class DlbStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string name() const override { return "DLB"; }
  [[nodiscard]] std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx) override;
};

class SpeedEstimator;  // strategy/estimator.hpp

/// Extensions beyond the paper's baseline SWAP strategy.
struct SwapOptions {
  /// Speed predictor; null selects the paper's windowed-mean semantics
  /// driven by the policy's history_window_s.
  std::shared_ptr<SpeedEstimator> estimator;

  /// React to owner reclamation: a watchdog aborts an iteration that has
  /// stalled on an offline host and force-swaps the affected processes onto
  /// online spares (the paper's proposed Condor-style combination, §2).
  bool eviction_guard = false;

  /// The watchdog fires when an iteration exceeds this multiple of the
  /// expected iteration time.
  double stall_factor = 3.0;
};

/// (b) Process swapping under a policy.
class SwapStrategy final : public Strategy {
 public:
  explicit SwapStrategy(swap::PolicyParams policy)
      : policy_(std::move(policy)) {}
  SwapStrategy(swap::PolicyParams policy, SwapOptions options)
      : policy_(std::move(policy)), options_(std::move(options)) {}
  [[nodiscard]] std::string name() const override {
    return "SWAP(" + policy_.name + ")";
  }
  [[nodiscard]] std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx) override;

  [[nodiscard]] const swap::PolicyParams& policy() const noexcept {
    return policy_;
  }

 private:
  swap::PolicyParams policy_;
  SwapOptions options_;
};

/// Hybrid extension (paper §2: "a DLB implementation could further improve
/// performance through the use of an over-allocation mechanism similar to
/// the one used in our approach"): swap-to-spares first, then repartition
/// the work proportionally to the estimated speeds of the resulting
/// placement.  Repartitioning itself is free, like DlbStrategy.
class DlbSwapStrategy final : public Strategy {
 public:
  explicit DlbSwapStrategy(swap::PolicyParams policy)
      : policy_(std::move(policy)) {}
  [[nodiscard]] std::string name() const override {
    return "DLB+SWAP(" + policy_.name + ")";
  }
  [[nodiscard]] std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx) override;

 private:
  swap::PolicyParams policy_;
};

/// (d) Checkpoint/restart: when moving to a better processor set passes the
/// same policy criteria as swapping, every process writes its state to a
/// central store, the application restarts (paying startup again) on the
/// best processors of the pool, and every process reads the checkpoint.
class CrStrategy final : public Strategy {
 public:
  explicit CrStrategy(swap::PolicyParams policy) : policy_(std::move(policy)) {}
  [[nodiscard]] std::string name() const override { return "CR"; }
  [[nodiscard]] std::unique_ptr<IterativeExecution> launch(
      StrategyContext& ctx) override;

 private:
  swap::PolicyParams policy_;
};

/// Communication-phase duration estimate used in planner predictions: all
/// active processes' messages share the link.
[[nodiscard]] double estimate_comm_time(const app::AppSpec& spec,
                                        const platform::LinkSpec& link);

}  // namespace simsweep::strategy
