// BSP-style iterative application executor.
//
// Runs the simulated application: startup delay, then a loop of
// [compute phase || on every active host] -> [communication phase || over
// the shared link] -> iteration boundary.  At each boundary a strategy hook
// may adapt the execution (swap processes, repartition work, checkpoint and
// restart) before resuming; the hook receives a continuation so adaptation
// costs can be modelled with real simulated events.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "app/app_spec.hpp"
#include "net/shared_link.hpp"
#include "platform/cluster.hpp"
#include "simcore/simulator.hpp"
#include "strategy/run_result.hpp"

namespace simsweep::strategy {

class TechniqueRuntime;  // strategy/runtime.hpp

class IterativeExecution {
 public:
  /// Called after each completed iteration (and not after the last).  The
  /// hook may mutate placement/partition via the mutators below, schedule
  /// simulated work, and must eventually invoke `resume` exactly once.
  using BoundaryHook =
      std::function<void(IterativeExecution&, std::function<void()> resume)>;

  IterativeExecution(sim::Simulator& simulator, platform::Cluster& cluster,
                     net::SharedLinkNetwork& network, const app::AppSpec& spec,
                     std::vector<platform::HostId> placement,
                     app::WorkPartition partition, BoundaryHook hook);
  ~IterativeExecution();
  IterativeExecution(const IterativeExecution&) = delete;
  IterativeExecution& operator=(const IterativeExecution&) = delete;

  /// Takes ownership of the technique that adapts this run.  Everything the
  /// technique schedules borrows it, so it lives exactly as long as the
  /// execution.
  void adopt(std::unique_ptr<TechniqueRuntime> technique);

  /// Schedules the run: `startup_cost_s` of startup delay, then iterations.
  /// Call once, then run the simulator.
  void start(double startup_cost_s);

  /// True once all iterations completed.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Result so far; complete once done() is true.
  [[nodiscard]] const RunResult& result() const noexcept { return result_; }
  [[nodiscard]] RunResult& result() noexcept { return result_; }

  // --- state visible to boundary hooks -----------------------------------

  [[nodiscard]] const std::vector<platform::HostId>& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] const app::WorkPartition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const app::AppSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] platform::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] net::SharedLinkNetwork& network() noexcept { return network_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

  /// Duration of the most recently completed iteration.
  [[nodiscard]] double last_iteration_time() const;

  /// Iterations completed so far.
  [[nodiscard]] std::size_t iteration() const noexcept {
    return result_.iterations_completed;
  }

  // --- mutators for boundary hooks ----------------------------------------

  /// Moves the process in `slot` to `host` (takes effect next iteration).
  void move_process(std::size_t slot, platform::HostId host);

  /// Replaces the whole placement (size must match active process count).
  void set_placement(std::vector<platform::HostId> placement);

  /// Replaces the work partition (slot count must match).
  void set_partition(app::WorkPartition partition);

  // --- mid-iteration interruption (eviction handling) ----------------------

  /// Observer invoked every time an iteration starts (including restarts);
  /// strategies use it to arm stall watchdogs.
  void set_iteration_start_observer(
      std::function<void(IterativeExecution&)> observer) {
    iteration_start_observer_ = std::move(observer);
  }

  /// True while an iteration's compute or communication phase is in flight.
  [[nodiscard]] bool iteration_in_flight() const noexcept {
    return in_flight_;
  }

  /// Abandons the in-flight iteration: running compute tasks and transfers
  /// are cancelled and their partial progress is lost.  The caller must
  /// eventually call restart_iteration() (possibly after simulated
  /// recovery work such as a forced swap).  Returns the abandoned partial
  /// iteration time, already charged to adaptation overhead; fault-recovery
  /// callers additionally book it as time lost to failures.
  double abort_iteration();

  /// Re-runs the iteration abandoned by abort_iteration().
  void restart_iteration();

  /// Rolls completed iterations back to `iteration` (fault recovery: CR
  /// restores the last successful checkpoint, NONE restarts from scratch).
  /// The rolled-back iterations' durations move into adaptation overhead
  /// and failure accounting; the work will be recomputed.  Requires no
  /// iteration in flight.
  void rollback_to_iteration(std::size_t iteration);

 private:
  void begin_iteration();
  void compute_done();
  void comm_done();
  void iteration_complete();
  void audit_makespan();

  sim::Simulator& simulator_;
  platform::Cluster& cluster_;
  net::SharedLinkNetwork& network_;
  app::AppSpec spec_;
  std::vector<platform::HostId> placement_;  // slot -> host
  app::WorkPartition partition_;
  BoundaryHook hook_;

  RunResult result_;
  bool done_ = false;
  bool in_flight_ = false;
  sim::SimTime iter_start_ = 0.0;
  std::size_t pending_ = 0;  // outstanding compute tasks / flows this phase
  // The phase in flight: compute tasks, then flows (the same member type;
  // the two phases never overlap).
  std::vector<std::shared_ptr<sim::FairShare::Member>> phase_;
  std::function<void(IterativeExecution&)> iteration_start_observer_;
  std::unique_ptr<TechniqueRuntime> technique_;

  // Cached on the first completed iteration: the registry is fixed for the
  // run, so each name is looked up once, not per iteration.
  obs::Counter* iterations_metric_ = nullptr;
  obs::Histogram* iteration_time_metric_ = nullptr;
};

}  // namespace simsweep::strategy
