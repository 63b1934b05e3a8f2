// Outcome of one simulated application run.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "audit/auditor.hpp"
#include "strategy/decision_trace.hpp"

namespace simsweep::obs {
class MetricsRegistry;
class TimelineTracer;
}  // namespace simsweep::obs

namespace simsweep::strategy {

/// Failure accounting for one run under fault injection.  All zero when
/// faults are disabled.
struct FailureStats {
  /// Permanent host crashes (cluster-wide) that fired while the run was
  /// live: before it finished or gave up on exhausted resources.
  std::size_t host_crashes = 0;

  /// State-transfer attempts that died partway.
  std::size_t transfers_failed = 0;

  /// Failed attempts that were retried after backoff.
  std::size_t transfers_retried = 0;

  /// Transfers abandoned after exhausting every retry.
  std::size_t transfers_abandoned = 0;

  /// CR checkpoint writes that failed (the previous successful checkpoint
  /// remains the recovery point).
  std::size_t checkpoint_failures = 0;

  /// Crashed active processes successfully replaced/restarted.
  std::size_t crash_recoveries = 0;

  /// Hosts blacklisted by the swap executor after repeated transfer
  /// failures.
  std::size_t hosts_blacklisted = 0;

  /// Completed iterations rolled back and recomputed (CR restores, NONE
  /// restarts from scratch).
  std::size_t iterations_recomputed = 0;

  /// Simulated time attributable to failures: dead partial transfers,
  /// retry backoffs, recovery pauses, recomputed iterations.  Overlaps with
  /// adaptation_overhead_s (failure recovery is charged to both views so
  /// the makespan decomposition stays intact).
  double time_lost_s = 0.0;

  friend bool operator==(const FailureStats&, const FailureStats&) = default;
};

struct RunResult {
  /// Wall-clock (simulated) time from submission to completion, including
  /// startup and all adaptation overheads.
  double makespan_s = 0.0;

  std::size_t iterations_completed = 0;

  /// Adaptation events: swaps for SWAP, restarts for CR, repartitions for
  /// DLB, always 0 for NONE.
  std::size_t adaptations = 0;

  /// Simulated time spent paused for adaptation (state transfers,
  /// checkpoint writes/reads, restart startup costs).  Excludes the initial
  /// startup, which is reported separately.
  double adaptation_overhead_s = 0.0;

  /// Initial MPI startup cost (includes over-allocated processes).
  double startup_s = 0.0;

  /// Per-iteration durations, in order.
  std::vector<double> iteration_times_s;

  /// False when the run hit the simulation horizon before completing.
  bool finished = false;

  /// True when the simulation went idle before the horizon with the
  /// application unfinished: the strategy deadlocked (e.g. a boundary hook
  /// never resumed).  Distinct from a horizon timeout, which is merely a
  /// slow run; a stalled run's makespan is meaningless.  Also set for
  /// resource-exhausted runs, which stop early by design.
  bool stalled = false;

  /// Diagnostic: the strategy gave up because no usable host remained to
  /// recover onto (spare pool exhausted / too few online hosts after
  /// crashes).  The run stops cleanly instead of deadlocking; makespan is
  /// the give-up time and `stalled` is set by the experiment layer.
  bool resource_exhausted = false;

  /// Fault-injection accounting; all zero when faults are disabled.
  FailureStats failures;

  /// Per-decision records (boundary planning rounds, recovery actions).
  /// Empty unless the run was launched with decision tracing enabled.
  std::vector<DecisionRecord> decision_trace;

  /// Invariant violations collected while auditing in warn mode.  Always
  /// empty when auditing is off (nothing is checked) or in fail mode (the
  /// first violation throws audit::AuditFailure instead).
  std::vector<audit::Violation> audit_report;

  /// Per-trial metrics registry; null unless the run was launched with
  /// ExperimentConfig::obs.metrics.  A pure function of (config, seed):
  /// merging per-trial registries in trial order is --jobs invariant.
  std::shared_ptr<obs::MetricsRegistry> metrics;

  /// Per-trial timeline tracer; null unless obs.timeline was set.
  std::shared_ptr<obs::TimelineTracer> timeline;
};

}  // namespace simsweep::strategy
