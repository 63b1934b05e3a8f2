// Structured per-decision accounting for the strategy layer.
//
// Every iteration boundary at which a policy weighed candidate swaps, and
// every fault-recovery action, can be recorded as a DecisionRecord.  The
// records collect into RunResult::decision_trace (only when tracing is
// enabled — the vectors stay empty otherwise, so the hot path pays one
// branch) and serialise as JSON lines for offline analysis (CLI
// `--trace-decisions`, bench/abl_decision_trace), one TraceLine each, which
// `simsweep report` reads back as the `decisions` artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "swap/planner.hpp"

namespace simsweep::swap {

/// One candidate a boundary record weighed.  Infinite paybacks ("no gain
/// at all") are written as null and read back as NaN.
template <typename V>
void walk(V& v, CandidateEvaluation& c) {
  using obs::Accept;
  v("slot", c.slot);
  v("from", c.from);
  v("to", c.to);
  v("from_est_speed", c.from_est_speed, Accept::kNull);
  v("to_est_speed", c.to_est_speed, Accept::kNull);
  v("payback_iters", c.payback_iters, Accept::kNull);
  v("process_gain", c.process_gain, Accept::kNull);
  v("app_gain", c.app_gain, Accept::kNull);
  v("rejection", c.rejection, kRejectReasonNames, "rejection reason");
}

}  // namespace simsweep::swap

namespace simsweep::strategy {

enum class TraceKind : std::uint8_t {
  kBoundary = 0,  ///< a boundary planning round (candidates weighed)
  kRecovery,      ///< a fault-recovery action (restart, replace, stall swap)
};

constexpr std::pair<TraceKind, const char*> kTraceKindNames[] = {
    {TraceKind::kBoundary, "boundary"},
    {TraceKind::kRecovery, "recovery"},
};

/// One traced policy decision or recovery action.
struct DecisionRecord {
  TraceKind kind = TraceKind::kBoundary;

  /// Iterations completed when the record was made.
  std::size_t iteration = 0;

  /// Simulated time of the record.
  double time_s = 0.0;

  // --- boundary records ---------------------------------------------------

  /// Last measured iteration time fed to the planner (0 on the first
  /// boundary: nothing measured yet, so the planner declines to act).
  double measured_iter_time_s = 0.0;

  /// Planner's predicted iteration time for the unmodified placement.
  double predicted_iter_time_s = 0.0;

  /// Adaptation pause charged in the payback computation: the per-process
  /// transfer estimate for swapping, the full write + restart + read cost
  /// for checkpoint/restart.
  double adaptation_cost_s = 0.0;

  std::size_t active_count = 0;
  std::size_t spare_count = 0;

  /// Every candidate the planner examined, with its payback distance and
  /// the policy parameter that rejected it (if any).
  std::vector<swap::CandidateEvaluation> considered;

  std::size_t swaps_planned = 0;

  /// Planned swaps whose state transfer actually landed (abandoned moves
  /// leave the evicted process in place); for CR, restarts completed.
  std::size_t swaps_applied = 0;

  // --- recovery records ---------------------------------------------------

  /// What the technique did: "restart_from_scratch",
  /// "rebalance_onto_survivors", "replace_on_spares", "checkpoint_restore",
  /// "stall_force_swap", "host_blacklisted", "resource_exhausted".
  std::string action;

  /// Processes affected by the action.
  std::size_t processes = 0;
};

/// Boundary and recovery records carry different fields, gated on `kind`.
template <typename V>
void walk(V& v, DecisionRecord& r) {
  using obs::Accept;
  v("kind", r.kind, kTraceKindNames, "trace kind");
  v("iteration", r.iteration);
  v("time_s", r.time_s, Accept::kNull);
  if (r.kind == TraceKind::kBoundary) {
    v("measured_iter_time_s", r.measured_iter_time_s, Accept::kNull);
    v("predicted_iter_time_s", r.predicted_iter_time_s, Accept::kNull);
    v("adaptation_cost_s", r.adaptation_cost_s, Accept::kNull);
    v("active", r.active_count);
    v("spares", r.spare_count);
    v("swaps_planned", r.swaps_planned);
    v("swaps_applied", r.swaps_applied);
    v.list("considered", r.considered, obs::Need::kRequired);
  } else {
    v("action", r.action);
    v("processes", r.processes);
  }
}

/// One JSONL line: a record annotated with the run's identity, so traces
/// from many trials can be concatenated.
struct TraceLine {
  std::string strategy;
  std::size_t trial = 0;
  std::uint64_t seed = 0;
  DecisionRecord record;
};

template <typename V>
void walk(V& v, TraceLine& line) {
  v("strategy", line.strategy);
  v("trial", line.trial);
  v("seed", line.seed);
  walk(v, line.record);
}

/// Serialises one trace as JSON lines, one TraceLine per record.
void write_trace_jsonl(std::ostream& os, const std::string& strategy,
                       std::uint64_t seed, std::size_t trial,
                       const std::vector<DecisionRecord>& trace);

}  // namespace simsweep::strategy
