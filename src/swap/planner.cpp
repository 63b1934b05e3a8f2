#include "swap/planner.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "swap/payback.hpp"

namespace simsweep::swap {

namespace {
/// Speed floor applied inside evaluate_swaps so an offline host (estimate 0)
/// compares as "infinitely slow" without breaking the payback division.
constexpr double kSpeedFloor = 1e-6;
}  // namespace

/// Stand-in for an unbounded iteration time (offline bottleneck).
constexpr double kTimeInfinityIter = std::numeric_limits<double>::infinity();

const char* to_string(RejectReason reason) noexcept {
  for (const auto& [value, name] : kRejectReasonNames)
    if (value == reason) return name;
  return "unknown";
}

double predict_iteration_time(const std::vector<ActiveProcess>& active,
                              double comm_time_s) {
  double bottleneck = 0.0;
  for (const ActiveProcess& p : active) {
    if (p.est_speed < 0.0)
      throw std::invalid_argument("predict_iteration_time: negative speed");
    // A zero estimate (offline/reclaimed host) stalls the iteration.
    bottleneck = std::max(bottleneck, p.est_speed == 0.0
                                          ? kTimeInfinityIter
                                          : p.chunk_flops / p.est_speed);
  }
  return bottleneck + comm_time_s;
}

SwapPlan evaluate_swaps(const PolicyParams& policy,
                        std::vector<ActiveProcess> active,
                        std::vector<HostEstimate> spares,
                        const PlanContext& ctx) {
  SwapPlan plan;
  if (active.empty() || spares.empty()) return plan;
  if (ctx.measured_iter_time_s <= 0.0) return plan;  // nothing measured yet

  for (ActiveProcess& p : active) p.est_speed = std::max(p.est_speed, kSpeedFloor);
  for (HostEstimate& h : spares) h.est_speed = std::max(h.est_speed, kSpeedFloor);

  const double swap_time =
      ctx.adaptation_cost_s
          ? *ctx.adaptation_cost_s
          : estimate_swap_time(ctx.state_bytes, ctx.link_latency_s,
                               ctx.link_bandwidth_Bps);

  // Fastest spares first; consumed from the front.
  std::stable_sort(spares.begin(), spares.end(),
                   [](const HostEstimate& a, const HostEstimate& b) {
                     return a.est_speed > b.est_speed;
                   });
  std::size_t next_spare = 0;

  double current_iter_time = predict_iteration_time(active, ctx.comm_time_s);
  plan.predicted_iter_time_s = current_iter_time;

  while (plan.decisions.size() < policy.max_swaps_per_decision &&
         next_spare < spares.size()) {
    // Slowest active process = the one predicted to take longest on its
    // chunk (with equal chunks this is simply the slowest host).
    auto slowest = std::max_element(
        active.begin(), active.end(),
        [](const ActiveProcess& a, const ActiveProcess& b) {
          return a.chunk_flops / a.est_speed < b.chunk_flops / b.est_speed;
        });
    const HostEstimate& candidate = spares[next_spare];

    // Evaluate every metric for the candidate, then apply the thresholds in
    // policy order: no-faster-spare, per-process improvement ("stiction"),
    // payback distance within the policy's risk budget, whole-application
    // improvement (predicted iteration rates before/after a tentative
    // application of the swap).
    CandidateEvaluation eval;
    eval.slot = slowest->slot;
    eval.from = slowest->host;
    eval.to = candidate.host;
    eval.from_est_speed = slowest->est_speed;
    eval.to_est_speed = candidate.est_speed;
    eval.process_gain = candidate.est_speed / slowest->est_speed - 1.0;
    eval.payback_iters =
        payback_distance(swap_time, ctx.measured_iter_time_s,
                         slowest->est_speed, candidate.est_speed);
    std::vector<ActiveProcess> after = active;
    const auto slowest_idx = static_cast<std::size_t>(slowest - active.begin());
    after[slowest_idx].est_speed = candidate.est_speed;
    after[slowest_idx].host = candidate.host;
    const double new_iter_time = predict_iteration_time(after, ctx.comm_time_s);
    eval.app_gain = current_iter_time / new_iter_time - 1.0;

    // A candidate no faster than the incumbent now carries an infinite
    // payback distance (payback_distance returns +inf for gain <= 0), but
    // the policy rejection it reports is "no faster spare" — the specific
    // no-improvement reason — not a payback-threshold artifact.
    if (candidate.est_speed <= slowest->est_speed)
      eval.rejection = RejectReason::kNoFasterSpare;
    else if (eval.process_gain < policy.min_process_improvement)
      eval.rejection = RejectReason::kProcessGain;
    else if (eval.payback_iters > policy.payback_threshold_iters)
      eval.rejection = RejectReason::kPayback;
    else if (eval.app_gain < policy.min_app_improvement)
      eval.rejection = RejectReason::kAppGain;

    plan.considered.push_back(eval);
    if (!eval.accepted()) break;  // greedy rounds stop at the first rejection

    plan.decisions.push_back(SwapDecision{
        .slot = eval.slot,
        .from = eval.from,
        .to = eval.to,
        .predicted_payback_iters = eval.payback_iters,
        .predicted_process_gain = eval.process_gain,
        .predicted_app_gain = eval.app_gain,
    });

    active = std::move(after);
    current_iter_time = new_iter_time;
    ++next_spare;
  }
  return plan;
}

std::vector<SwapDecision> plan_swaps(const PolicyParams& policy,
                                     std::vector<ActiveProcess> active,
                                     std::vector<HostEstimate> spares,
                                     const PlanContext& ctx) {
  return evaluate_swaps(policy, std::move(active), std::move(spares), ctx)
      .decisions;
}

}  // namespace simsweep::swap
