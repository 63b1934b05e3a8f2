// Swap decision making, shared by the simulator strategies and the swampi
// runtime's swap manager.
//
// The planner works on value types: callers provide the estimated effective
// speed of every candidate host (from whatever predictor they have — the
// simulator uses availability history, the swampi runtime uses measured
// iteration rates), the measured application iteration time, and the state
// size.  All three of the paper's policies (and any other PolicyParams
// point) reduce to the same procedure: repeatedly propose swapping the
// slowest active process onto the fastest idle spare, and accept the
// proposal only when every threshold passes.
//
// evaluate_swaps() additionally reports every candidate it examined —
// including the one that stopped the round and which policy threshold
// rejected it — feeding the strategy layer's decision traces.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "swap/policy.hpp"

namespace simsweep::swap {

/// A candidate execution site, identified by the caller's host numbering.
struct HostEstimate {
  std::uint32_t host = 0;
  double est_speed = 0.0;  ///< predicted sustained flop/s for one process
};

/// One process currently executing: which slot of the work partition it
/// owns, where it runs and how fast that site is predicted to be.
struct ActiveProcess {
  std::size_t slot = 0;
  std::uint32_t host = 0;
  double est_speed = 0.0;
  double chunk_flops = 0.0;  ///< this slot's share of one iteration's work
};

/// A planned swap: move the process in `slot` from `from` to `to`.
struct SwapDecision {
  std::size_t slot = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double predicted_payback_iters = 0.0;
  double predicted_process_gain = 0.0;  ///< fractional speed gain
  double predicted_app_gain = 0.0;      ///< fractional iteration-rate gain
};

/// Why a proposed swap was not taken.  kAccepted marks taken proposals;
/// every other value names the first threshold the candidate failed, in
/// the order the planner applies them.
enum class RejectReason : std::uint8_t {
  kAccepted = 0,
  kNoFasterSpare,  ///< fastest remaining spare no faster than slowest active
  kProcessGain,    ///< below the policy's min_process_improvement
  kPayback,        ///< payback negative or beyond payback_threshold_iters
  kAppGain,        ///< below the policy's min_app_improvement
};

constexpr std::pair<RejectReason, const char*> kRejectReasonNames[] = {
    {RejectReason::kAccepted, "accepted"},
    {RejectReason::kNoFasterSpare, "no_faster_spare"},
    {RejectReason::kProcessGain, "min_process_improvement"},
    {RejectReason::kPayback, "payback_threshold"},
    {RejectReason::kAppGain, "min_app_improvement"},
};

[[nodiscard]] const char* to_string(RejectReason reason) noexcept;

/// Full evaluation of one proposed swap: the payback algebra's inputs and
/// outputs, plus the verdict.  Speeds are post-floor (offline hosts clamp
/// to a tiny positive value so the payback division stays defined).
struct CandidateEvaluation {
  std::size_t slot = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double from_est_speed = 0.0;
  double to_est_speed = 0.0;
  double payback_iters = 0.0;
  double process_gain = 0.0;
  double app_gain = 0.0;
  RejectReason rejection = RejectReason::kAccepted;

  [[nodiscard]] bool accepted() const noexcept {
    return rejection == RejectReason::kAccepted;
  }
};

/// Outcome of one planning round: the accepted decisions (in application
/// order) and every candidate examined, accepted or not.  A round stops at
/// the first rejection, so `considered` holds at most one rejected entry —
/// always the last.
struct SwapPlan {
  std::vector<SwapDecision> decisions;
  std::vector<CandidateEvaluation> considered;

  /// Predicted iteration time of the unmodified placement (0 when the
  /// planner exited before predicting: nothing measured yet, no spares).
  double predicted_iter_time_s = 0.0;
};

/// Inputs the planner needs beyond the candidate sets.
struct PlanContext {
  double measured_iter_time_s = 0.0;  ///< last observed iteration time
  double state_bytes = 0.0;           ///< per-process swap payload
  double link_latency_s = 0.0;
  double link_bandwidth_Bps = 1.0;
  /// Fixed per-iteration communication-phase estimate added to predicted
  /// iteration times (same before and after a swap, since the partition and
  /// message sizes do not change).
  double comm_time_s = 0.0;

  /// Explicit total adaptation pause charged in the payback computation
  /// instead of the per-process alpha + size/beta transfer estimate.
  /// Checkpoint/restart sets this to its full cost — write N states,
  /// restart the application, read N states — because its adaptation
  /// interrupts the whole application rather than moving one process.
  /// Unset selects the transfer estimate.
  std::optional<double> adaptation_cost_s;
};

/// Plans zero or more swaps under `policy` and reports every candidate
/// examined.  `active` and `spares` are the current placement and the idle
/// pool with their predicted speeds.  Spares freed by earlier decisions in
/// the same round are not re-used; evicted hosts do not rejoin the spare
/// pool within the round (the paper swaps "the slowest active processor(s)
/// for the fastest inactive processor(s)").
[[nodiscard]] SwapPlan evaluate_swaps(const PolicyParams& policy,
                                      std::vector<ActiveProcess> active,
                                      std::vector<HostEstimate> spares,
                                      const PlanContext& ctx);

/// evaluate_swaps without the candidate report: just the accepted swaps.
[[nodiscard]] std::vector<SwapDecision> plan_swaps(
    const PolicyParams& policy, std::vector<ActiveProcess> active,
    std::vector<HostEstimate> spares, const PlanContext& ctx);

/// Predicted iteration time for a placement: the bottleneck compute time
/// plus the communication estimate.
[[nodiscard]] double predict_iteration_time(
    const std::vector<ActiveProcess>& active, double comm_time_s);

}  // namespace simsweep::swap
