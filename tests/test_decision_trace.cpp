// Decision-trace layer: typed rejection reasons out of the planner, the
// explicit adaptation-cost override, the policy-estimator factory, and the
// JSONL serialisation — plus the invariant that tracing never moves a
// simulated event.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "load/onoff.hpp"
#include "strategy/decision_trace.hpp"
#include "strategy/estimator.hpp"
#include "strategy/strategy.hpp"
#include "swap/planner.hpp"
#include "swap/policy.hpp"

namespace core = simsweep::core;
namespace app = simsweep::app;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace swp = simsweep::swap;

namespace {

swp::PlanContext make_ctx(double iter_time = 100.0, double state = 1.0e6,
                          double comm = 0.0) {
  return swp::PlanContext{
      .measured_iter_time_s = iter_time,
      .state_bytes = state,
      .link_latency_s = 1e-4,
      .link_bandwidth_Bps = 6.0e6,
      .comm_time_s = comm,
      .adaptation_cost_s = std::nullopt,
  };
}

std::vector<swp::ActiveProcess> two_active(double s0, double s1,
                                           double chunk = 100.0e6) {
  return {swp::ActiveProcess{0, 0, s0, chunk},
          swp::ActiveProcess{1, 1, s1, chunk}};
}

}  // namespace

// ------------------------------------------------ rejection reasons

TEST(Rejections, AcceptedCandidateCarriesMetrics) {
  const auto plan =
      swp::evaluate_swaps(swp::greedy_policy(), two_active(10.0e6, 5.0e6),
                          {{.host = 7, .est_speed = 20.0e6}}, make_ctx());
  ASSERT_EQ(plan.decisions.size(), 1u);
  ASSERT_FALSE(plan.considered.empty());
  const swp::CandidateEvaluation& c = plan.considered.front();
  EXPECT_TRUE(c.accepted());
  EXPECT_EQ(c.rejection, swp::RejectReason::kAccepted);
  EXPECT_EQ(c.slot, 1u);  // the slow process moves
  EXPECT_EQ(c.to, 7u);
  EXPECT_DOUBLE_EQ(c.from_est_speed, 5.0e6);
  EXPECT_DOUBLE_EQ(c.to_est_speed, 20.0e6);
  EXPECT_DOUBLE_EQ(c.process_gain, 3.0);  // (20 - 5) / 5
  EXPECT_GT(c.payback_iters, 0.0);
  EXPECT_GT(c.app_gain, 0.0);
  EXPECT_GT(plan.predicted_iter_time_s, 0.0);
}

TEST(Rejections, NoFasterSpare) {
  const auto plan =
      swp::evaluate_swaps(swp::greedy_policy(), two_active(10.0e6, 5.0e6),
                          {{.host = 7, .est_speed = 4.0e6}}, make_ctx());
  EXPECT_TRUE(plan.decisions.empty());
  ASSERT_EQ(plan.considered.size(), 1u);
  EXPECT_EQ(plan.considered[0].rejection, swp::RejectReason::kNoFasterSpare);
}

TEST(Rejections, ProcessGainThreshold) {
  swp::PolicyParams policy;  // infinite payback, no app threshold
  policy.min_process_improvement = 5.0;  // demand a 500 % speedup
  const auto plan =
      swp::evaluate_swaps(policy, two_active(10.0e6, 5.0e6),
                          {{.host = 7, .est_speed = 20.0e6}}, make_ctx());
  EXPECT_TRUE(plan.decisions.empty());
  ASSERT_EQ(plan.considered.size(), 1u);
  EXPECT_EQ(plan.considered[0].rejection, swp::RejectReason::kProcessGain);
  EXPECT_DOUBLE_EQ(plan.considered[0].process_gain, 3.0);
}

TEST(Rejections, PaybackThreshold) {
  swp::PolicyParams policy;
  policy.payback_threshold_iters = 1e-6;
  // A gigabyte of state over a 6 MB/s link: the swap costs minutes while an
  // iteration saves seconds, so payback is far beyond a 1e-6-iteration cap.
  const auto plan =
      swp::evaluate_swaps(policy, two_active(10.0e6, 5.0e6),
                          {{.host = 7, .est_speed = 20.0e6}},
                          make_ctx(100.0, /*state=*/1.0e9));
  EXPECT_TRUE(plan.decisions.empty());
  ASSERT_EQ(plan.considered.size(), 1u);
  EXPECT_EQ(plan.considered[0].rejection, swp::RejectReason::kPayback);
  EXPECT_GT(plan.considered[0].payback_iters, 1e-6);
}

TEST(Rejections, AppGainThreshold) {
  swp::PolicyParams policy;
  policy.min_app_improvement = 0.9;  // demand a 90 % whole-app speedup
  // Communication dominates the iteration, so even a faster host barely
  // moves the application rate.
  const auto plan = swp::evaluate_swaps(
      policy, two_active(10.0e6, 5.0e6), {{.host = 7, .est_speed = 20.0e6}},
      make_ctx(/*iter_time=*/1000.0, /*state=*/1.0e6, /*comm=*/980.0));
  EXPECT_TRUE(plan.decisions.empty());
  ASSERT_EQ(plan.considered.size(), 1u);
  EXPECT_EQ(plan.considered[0].rejection, swp::RejectReason::kAppGain);
  EXPECT_LT(plan.considered[0].app_gain, 0.9);
}

TEST(Rejections, RoundStopsAtFirstRejection) {
  // Two slow actives, two fast spares, but a policy that rejects everything:
  // the round must stop after the first rejected candidate.
  swp::PolicyParams policy;
  policy.min_process_improvement = 100.0;
  const auto plan = swp::evaluate_swaps(
      policy, two_active(5.0e6, 4.0e6),
      {{.host = 7, .est_speed = 20.0e6}, {.host = 8, .est_speed = 30.0e6}},
      make_ctx());
  EXPECT_TRUE(plan.decisions.empty());
  ASSERT_EQ(plan.considered.size(), 1u);
  EXPECT_FALSE(plan.considered.back().accepted());
}

TEST(Rejections, ReasonNamesAreDistinct) {
  const std::vector<swp::RejectReason> reasons{
      swp::RejectReason::kAccepted, swp::RejectReason::kNoFasterSpare,
      swp::RejectReason::kProcessGain, swp::RejectReason::kPayback,
      swp::RejectReason::kAppGain};
  for (std::size_t i = 0; i < reasons.size(); ++i)
    for (std::size_t j = i + 1; j < reasons.size(); ++j)
      EXPECT_STRNE(swp::to_string(reasons[i]), swp::to_string(reasons[j]));
}

// ------------------------------------------------ explicit adaptation cost

TEST(AdaptationCost, ExplicitCostReplacesTransferEstimate) {
  swp::PolicyParams policy;
  policy.payback_threshold_iters = 10.0;
  auto ctx = make_ctx();  // transfer estimate: ~0.17 s for 1 MB
  const auto cheap =
      swp::evaluate_swaps(policy, two_active(10.0e6, 5.0e6),
                          {{.host = 7, .est_speed = 20.0e6}}, ctx);
  ASSERT_EQ(cheap.decisions.size(), 1u);

  // Same placement, but the adaptation now interrupts the whole application
  // for 1000 s (checkpoint/restart's shape): payback = 1000 / (100 s * 0.75
  // rate gain) ≈ 13 iterations, past the threshold, and the identical
  // candidate is rejected.
  ctx.adaptation_cost_s = 1000.0;
  const auto dear =
      swp::evaluate_swaps(policy, two_active(10.0e6, 5.0e6),
                          {{.host = 7, .est_speed = 20.0e6}}, ctx);
  EXPECT_TRUE(dear.decisions.empty());
  ASSERT_EQ(dear.considered.size(), 1u);
  EXPECT_EQ(dear.considered[0].rejection, swp::RejectReason::kPayback);
  EXPECT_GT(dear.considered[0].payback_iters,
            cheap.considered[0].payback_iters);
}

// ------------------------------------------------ estimator factory

TEST(PolicyEstimator, DefaultsToPolicyWindow) {
  swp::PolicyParams policy;
  policy.history_window_s = 120.0;
  const auto est = strat::make_policy_estimator(policy);
  ASSERT_NE(est, nullptr);
  EXPECT_EQ(est->name(), "window_120s");
}

TEST(PolicyEstimator, PreferredEstimatorIsClonedFresh) {
  const auto preferred = strat::make_window_estimator(7.0);
  const auto est = strat::make_policy_estimator(swp::greedy_policy(),
                                                preferred);
  ASSERT_NE(est, nullptr);
  EXPECT_NE(est.get(), preferred.get());  // fresh(), not shared state
  EXPECT_EQ(est->name(), preferred->name());
}

// ------------------------------------------------ traced runs

namespace {

core::ExperimentConfig trace_config() {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 16;
  cfg.app = app::AppSpec::with_iteration_minutes(4, 12, 2.0);
  cfg.app.state_bytes_per_process = 10.0 * app::kMiB;
  cfg.spare_count = 12;
  cfg.seed = 3;
  return cfg;
}

}  // namespace

TEST(TracedRuns, TracingNeverMovesAnEvent) {
  const load::OnOffModel model(load::OnOffParams::dynamism(0.5));
  auto cfg = trace_config();
  strat::SwapStrategy plain_strategy(swp::greedy_policy());
  const auto plain = core::run_single(cfg, model, plain_strategy);
  cfg.trace_decisions = true;
  strat::SwapStrategy traced_strategy(swp::greedy_policy());
  const auto traced = core::run_single(cfg, model, traced_strategy);

  EXPECT_EQ(plain.makespan_s, traced.makespan_s);  // bitwise
  EXPECT_EQ(plain.adaptations, traced.adaptations);
  EXPECT_TRUE(plain.decision_trace.empty());
  EXPECT_FALSE(traced.decision_trace.empty());
}

TEST(TracedRuns, BoundaryRecordsAreConsistent) {
  const load::OnOffModel model(load::OnOffParams::dynamism(0.5));
  auto cfg = trace_config();
  cfg.trace_decisions = true;
  strat::SwapStrategy strategy(swp::greedy_policy());
  const auto result = core::run_single(cfg, model, strategy);

  std::size_t applied_total = 0;
  for (const strat::DecisionRecord& rec : result.decision_trace) {
    ASSERT_EQ(rec.kind, strat::TraceKind::kBoundary);
    EXPECT_LE(rec.iteration, cfg.app.iterations);
    EXPECT_GE(rec.time_s, 0.0);
    EXPECT_EQ(rec.active_count, cfg.app.active_processes);
    std::size_t accepted = 0;
    for (const swp::CandidateEvaluation& c : rec.considered)
      if (c.accepted()) ++accepted;
    EXPECT_EQ(rec.swaps_planned, accepted);
    EXPECT_LE(rec.swaps_applied, rec.swaps_planned);
    applied_total += rec.swaps_applied;
  }
  // Fault-free SWAP: every applied move is one adaptation.
  EXPECT_EQ(applied_total, result.adaptations);
}

TEST(TracedRuns, CrashRecoveryLeavesRecoveryRecords) {
  const load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  auto cfg = trace_config();
  cfg.trace_decisions = true;
  cfg.faults.host_mtbf_s = 0.5 * 3600.0;  // crashes are near-certain
  strat::NoneStrategy strategy;
  bool found_recovery = false;
  for (std::uint64_t seed = 1; seed <= 5 && !found_recovery; ++seed) {
    cfg.seed = seed;
    const auto result = core::run_single(cfg, model, strategy);
    if (result.failures.crash_recoveries == 0) continue;
    for (const strat::DecisionRecord& rec : result.decision_trace) {
      // A run that later burns through every host also records a final
      // "resource_exhausted" action; only the successful restarts are
      // checked here.
      if (rec.kind != strat::TraceKind::kRecovery ||
          rec.action != "restart_from_scratch")
        continue;
      found_recovery = true;
      EXPECT_EQ(rec.processes, cfg.app.active_processes);
    }
  }
  EXPECT_TRUE(found_recovery)
      << "no seed in 1..5 produced a crash recovery; retune the scenario";
}

// ------------------------------------------------ JSONL serialisation

TEST(TraceJsonl, RecoveryRecordSerialisesExactly) {
  strat::DecisionRecord rec;
  rec.kind = strat::TraceKind::kRecovery;
  rec.iteration = 4;
  rec.time_s = 1.5;
  rec.action = "replace_on_spares";
  rec.processes = 2;
  std::ostringstream os;
  strat::write_trace_jsonl(os, "SWAP(greedy)", /*seed=*/42, /*trial=*/3, {rec});
  EXPECT_EQ(os.str(),
            "{\"strategy\":\"SWAP(greedy)\",\"trial\":3,\"seed\":42,"
            "\"kind\":\"recovery\",\"iteration\":4,\"time_s\":1.5,"
            "\"action\":\"replace_on_spares\",\"processes\":2}\n");
}

TEST(TraceJsonl, BoundaryRecordCarriesCandidates) {
  strat::DecisionRecord rec;
  rec.kind = strat::TraceKind::kBoundary;
  rec.iteration = 7;
  rec.time_s = 120.0;
  rec.measured_iter_time_s = 60.0;
  rec.predicted_iter_time_s = 55.0;
  rec.adaptation_cost_s = 0.25;
  rec.active_count = 4;
  rec.spare_count = 12;
  rec.swaps_planned = 1;
  rec.swaps_applied = 1;
  swp::CandidateEvaluation cand;
  cand.slot = 2;
  cand.from = 1;
  cand.to = 9;
  cand.payback_iters = 0.5;
  cand.rejection = swp::RejectReason::kAccepted;
  rec.considered.push_back(cand);
  cand.rejection = swp::RejectReason::kPayback;
  rec.considered.push_back(cand);

  std::ostringstream os;
  strat::write_trace_jsonl(os, "CR", 1, 0, {rec});
  const std::string line = os.str();
  EXPECT_NE(line.find("\"kind\":\"boundary\""), std::string::npos);
  EXPECT_NE(line.find("\"adaptation_cost_s\":0.25"), std::string::npos);
  EXPECT_NE(line.find("\"payback_iters\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"rejection\":\"accepted\""), std::string::npos);
  EXPECT_NE(line.find("\"rejection\":\"payback_threshold\""),
            std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // one record, one line
  EXPECT_EQ(line,
            R"({"strategy":"CR","trial":0,"seed":1,"kind":"boundary",)"
            R"("iteration":7,"time_s":120,"measured_iter_time_s":60,)"
            R"("predicted_iter_time_s":55,"adaptation_cost_s":0.25,)"
            R"("active":4,"spares":12,"swaps_planned":1,"swaps_applied":1,)"
            R"("considered":[{"slot":2,"from":1,"to":9,"from_est_speed":0,)"
            R"("to_est_speed":0,"payback_iters":0.5,"process_gain":0,)"
            R"("app_gain":0,"rejection":"accepted"},{"slot":2,"from":1,)"
            R"("to":9,"from_est_speed":0,"to_est_speed":0,)"
            R"("payback_iters":0.5,"process_gain":0,"app_gain":0,)"
            R"("rejection":"payback_threshold"}]})"
            "\n");
}

TEST(TraceJsonl, NonFiniteNumbersBecomeNull) {
  strat::DecisionRecord rec;
  rec.kind = strat::TraceKind::kBoundary;
  swp::CandidateEvaluation cand;
  cand.payback_iters = std::numeric_limits<double>::infinity();
  rec.considered.push_back(cand);
  std::ostringstream os;
  strat::write_trace_jsonl(os, "SWAP", 1, 0, {rec});
  EXPECT_NE(os.str().find("\"payback_iters\":null"), std::string::npos);
}

TEST(TraceJsonl, NumbersUseTheSharedShortestRoundTripForm) {
  // The same number text as every other artifact, and it re-reads bitwise.
  strat::DecisionRecord rec;
  rec.kind = strat::TraceKind::kRecovery;
  rec.time_s = 286.65171530921788;
  rec.action = "stall_force_swap";
  std::ostringstream os;
  strat::write_trace_jsonl(os, "SWAP(greedy)", 1, 0, {rec});
  const std::string line = os.str();
  const std::string key = "\"time_s\":";
  const std::size_t begin = line.find(key);
  ASSERT_NE(begin, std::string::npos) << line;
  const std::size_t from = begin + key.size();
  const std::string text = line.substr(from, line.find(',', from) - from);
  EXPECT_EQ(text, "286.6517153092179");
  EXPECT_EQ(std::strtod(text.c_str(), nullptr), rec.time_s);
}
