// Unit and property tests for the policy layer: payback algebra, history,
// planner thresholds, named policies.
#include <gtest/gtest.h>

#include <cmath>

#include "simcore/rng.hpp"
#include "swap/payback.hpp"
#include "swap/planner.hpp"
#include "swap/policy.hpp"

namespace swp = simsweep::swap;

// ---------------------------------------------------------------- payback

TEST(Payback, PaperWorkedExampleDoublePerformance) {
  // Paper §5: iteration time and swap time both 10 s, performance doubles
  // -> payback distance of 2 iterations.
  EXPECT_DOUBLE_EQ(swp::payback_distance(10.0, 10.0, 1.0, 2.0), 2.0);
}

TEST(Payback, PaperWorkedExampleQuadruplePerformance) {
  // Paper §5: 4x performance -> 1 1/3 iterations.
  EXPECT_NEAR(swp::payback_distance(10.0, 10.0, 1.0, 4.0), 4.0 / 3.0, 1e-12);
}

TEST(Payback, InfiniteWhenPerformanceDrops) {
  // A swap onto a slower host never pays for itself.  A negative distance
  // here would sail under any finite threshold (payback <= threshold) and
  // green-light exactly the swaps the policy exists to block.
  const double d = swp::payback_distance(10.0, 10.0, 2.0, 1.0);
  EXPECT_TRUE(std::isinf(d));
  EXPECT_GT(d, 0.0);
}

TEST(Payback, InfiniteWhenNoChange) {
  EXPECT_TRUE(std::isinf(swp::payback_distance(10.0, 10.0, 3.0, 3.0)));
}

TEST(Payback, ThresholdBoundaryBothSides) {
  // Just above equal performance: finite (and huge); at or below: +inf.
  const double barely_faster = swp::payback_distance(10.0, 10.0, 1.0, 1.0 + 1e-9);
  EXPECT_TRUE(std::isfinite(barely_faster));
  EXPECT_GT(barely_faster, 1e6);
  EXPECT_TRUE(std::isinf(swp::payback_distance(10.0, 10.0, 1.0, 1.0)));
  EXPECT_TRUE(std::isinf(swp::payback_distance(10.0, 10.0, 1.0, 1.0 - 1e-9)));
  // No finite threshold accepts a non-improving swap.
  EXPECT_FALSE(swp::payback_distance(10.0, 10.0, 1.0, 0.5) <= 1e12);
}

TEST(Payback, GreaterGainMeansSmallerPayback) {
  const double p2 = swp::payback_distance(10.0, 10.0, 1.0, 2.0);
  const double p3 = swp::payback_distance(10.0, 10.0, 1.0, 3.0);
  const double p8 = swp::payback_distance(10.0, 10.0, 1.0, 8.0);
  EXPECT_GT(p2, p3);
  EXPECT_GT(p3, p8);
  EXPECT_GT(p8, 1.0);  // payback is never below one swap_time/iter_time unit
}

TEST(Payback, ScalesLinearlyWithSwapTime) {
  const double base = swp::payback_distance(10.0, 10.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(swp::payback_distance(20.0, 10.0, 1.0, 2.0), 2.0 * base);
}

TEST(Payback, RejectsInvalidInputs) {
  EXPECT_THROW((void)swp::payback_distance(-1.0, 10.0, 1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW((void)swp::payback_distance(1.0, 0.0, 1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW((void)swp::payback_distance(1.0, 1.0, 0.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW((void)swp::payback_distance(1.0, 1.0, 1.0, -2.0),
               std::invalid_argument);
}

TEST(Payback, SwapTimeModel) {
  // alpha + size/beta
  EXPECT_DOUBLE_EQ(swp::estimate_swap_time(6.0e6, 0.5, 6.0e6), 1.5);
  EXPECT_THROW((void)swp::estimate_swap_time(-1.0, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)swp::estimate_swap_time(1.0, 0.0, 0.0),
               std::invalid_argument);
}

// Property sweep: payback positivity/monotonicity over random inputs.
class PaybackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaybackProperty, PositiveIffImprovementAndMonotoneInGain) {
  simsweep::sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const double swap_time = rng.uniform(0.01, 100.0);
    const double iter_time = rng.uniform(0.1, 500.0);
    const double old_perf = rng.uniform(0.1, 10.0);
    const double gain1 = rng.uniform(1.01, 4.0);
    const double gain2 = gain1 + rng.uniform(0.1, 4.0);
    const double p1 =
        swp::payback_distance(swap_time, iter_time, old_perf, old_perf * gain1);
    const double p2 =
        swp::payback_distance(swap_time, iter_time, old_perf, old_perf * gain2);
    EXPECT_GT(p1, 0.0);
    EXPECT_GT(p1, p2);  // bigger gain, smaller payback
    const double drop =
        swp::payback_distance(swap_time, iter_time, old_perf, old_perf * 0.5);
    EXPECT_TRUE(std::isinf(drop) && drop > 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaybackProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------- planner

namespace {

swp::PlanContext basic_ctx(double iter_time = 100.0, double state = 1.0e6) {
  return swp::PlanContext{
      .measured_iter_time_s = iter_time,
      .state_bytes = state,
      .link_latency_s = 1e-4,
      .link_bandwidth_Bps = 6.0e6,
      .comm_time_s = 0.0,
      .adaptation_cost_s = std::nullopt,
  };
}

std::vector<swp::ActiveProcess> two_active(double s0, double s1,
                                           double chunk = 100.0e6) {
  return {swp::ActiveProcess{0, 0, s0, chunk},
          swp::ActiveProcess{1, 1, s1, chunk}};
}

}  // namespace

TEST(Planner, GreedySwapsSlowestForFastest) {
  const auto decisions = swp::plan_swaps(
      swp::greedy_policy(), two_active(10.0e6, 2.0e6),
      {swp::HostEstimate{7, 8.0e6}, swp::HostEstimate{9, 5.0e6}}, basic_ctx());
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].slot, 1u);
  EXPECT_EQ(decisions[0].from, 1u);
  EXPECT_EQ(decisions[0].to, 7u);  // the fastest spare
}

TEST(Planner, GreedyPerformsMultipleSwapsWhenSparesAreFaster) {
  const auto decisions = swp::plan_swaps(
      swp::greedy_policy(), two_active(2.0e6, 3.0e6),
      {swp::HostEstimate{7, 8.0e6}, swp::HostEstimate{9, 5.0e6}}, basic_ctx());
  EXPECT_EQ(decisions.size(), 2u);
}

TEST(Planner, NoSwapWhenSparesAreSlower) {
  const auto decisions = swp::plan_swaps(
      swp::greedy_policy(), two_active(10.0e6, 9.0e6),
      {swp::HostEstimate{7, 8.0e6}}, basic_ctx());
  EXPECT_TRUE(decisions.empty());
}

TEST(Planner, NoSwapWithEmptySparePool) {
  const auto decisions = swp::plan_swaps(swp::greedy_policy(),
                                         two_active(1.0e6, 2.0e6), {},
                                         basic_ctx());
  EXPECT_TRUE(decisions.empty());
}

TEST(Planner, NoSwapBeforeFirstMeasurement) {
  const auto decisions =
      swp::plan_swaps(swp::greedy_policy(), two_active(1.0e6, 2.0e6),
                      {swp::HostEstimate{7, 8.0e6}}, basic_ctx(0.0));
  EXPECT_TRUE(decisions.empty());
}

TEST(Planner, MinProcessImprovementBlocksSmallGains) {
  swp::PolicyParams policy;
  policy.min_process_improvement = 0.20;
  // 10 % faster spare: blocked.
  EXPECT_TRUE(swp::plan_swaps(policy, two_active(10.0e6, 10.0e6),
                              {swp::HostEstimate{7, 11.0e6}}, basic_ctx())
                  .empty());
  // 30 % faster spare: allowed.
  EXPECT_EQ(swp::plan_swaps(policy, two_active(10.0e6, 10.0e6),
                            {swp::HostEstimate{7, 13.0e6}}, basic_ctx())
                .size(),
            1u);
}

TEST(Planner, PaybackThresholdBlocksExpensiveSwaps) {
  swp::PolicyParams policy;
  policy.payback_threshold_iters = 0.5;
  // 1 GB of state over 6 MB/s is ~171 s; with 100 s iterations and a 2x
  // speedup the payback is ~3.4 iterations: blocked.
  const auto ctx = basic_ctx(100.0, 1024.0 * 1024.0 * 1024.0);
  EXPECT_TRUE(swp::plan_swaps(policy, two_active(10.0e6, 5.0e6),
                              {swp::HostEstimate{7, 10.0e6}}, ctx)
                  .empty());
  // 1 MB of state: payback ~0.003 iterations: allowed.
  EXPECT_EQ(swp::plan_swaps(policy, two_active(10.0e6, 5.0e6),
                            {swp::HostEstimate{7, 10.0e6}}, basic_ctx())
                .size(),
            1u);
}

TEST(Planner, AppImprovementBlocksNonBottleneckGains) {
  swp::PolicyParams policy;
  policy.min_app_improvement = 0.02;
  // Both active hosts equally slow; replacing one leaves the other as the
  // bottleneck, so the app gains nothing: blocked.
  EXPECT_TRUE(swp::plan_swaps(policy, two_active(5.0e6, 5.0e6),
                              {swp::HostEstimate{7, 20.0e6}}, basic_ctx())
                  .empty());
  // One clear bottleneck: replacing it doubles the app rate: allowed.
  EXPECT_FALSE(swp::plan_swaps(policy, two_active(20.0e6, 5.0e6),
                               {swp::HostEstimate{7, 20.0e6}}, basic_ctx())
                   .empty());
}

TEST(Planner, MaxSwapsPerDecisionCaps) {
  swp::PolicyParams policy;
  policy.max_swaps_per_decision = 1;
  const auto decisions = swp::plan_swaps(
      policy, two_active(2.0e6, 3.0e6),
      {swp::HostEstimate{7, 8.0e6}, swp::HostEstimate{9, 5.0e6}}, basic_ctx());
  EXPECT_EQ(decisions.size(), 1u);
}

TEST(Planner, DecisionCarriesPredictions) {
  const auto decisions =
      swp::plan_swaps(swp::greedy_policy(), two_active(10.0e6, 5.0e6),
                      {swp::HostEstimate{7, 10.0e6}}, basic_ctx());
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_NEAR(decisions[0].predicted_process_gain, 1.0, 1e-12);
  EXPECT_GT(decisions[0].predicted_payback_iters, 0.0);
  EXPECT_NEAR(decisions[0].predicted_app_gain, 1.0, 1e-9);
}

TEST(Planner, PredictIterationTime) {
  EXPECT_DOUBLE_EQ(swp::predict_iteration_time(two_active(10.0, 5.0, 100.0),
                                               2.0),
                   22.0);
  // A zero estimate (offline host) stalls the iteration indefinitely.
  EXPECT_TRUE(std::isinf(swp::predict_iteration_time(two_active(0.0, 5.0), 0.0)));
  EXPECT_THROW(
      (void)swp::predict_iteration_time(two_active(-1.0, 5.0), 0.0),
      std::invalid_argument);
}

TEST(Planner, OfflineActiveHostIsSwappedFirst) {
  // Host estimate 0 (reclaimed): the planner must prefer evicting it and
  // the payback algebra must not blow up.
  const auto decisions = swp::plan_swaps(
      swp::greedy_policy(), two_active(10.0e6, 0.0),
      {swp::HostEstimate{7, 8.0e6}}, basic_ctx());
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].slot, 1u);
  EXPECT_EQ(decisions[0].to, 7u);
}

// Property: a safe-policy plan is always a prefix-subset of the greedy plan
// for identical inputs (greedy dominates in willingness to swap).
class PlannerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerProperty, SafePlanIsSubsetOfGreedyPlan) {
  simsweep::sim::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<swp::ActiveProcess> active;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t i = 0; i < n; ++i)
      active.push_back(swp::ActiveProcess{
          i, static_cast<std::uint32_t>(i), rng.uniform(1.0e6, 10.0e6),
          100.0e6 / static_cast<double>(n)});
    std::vector<swp::HostEstimate> spares;
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(0, 6));
    for (std::size_t j = 0; j < m; ++j)
      spares.push_back(swp::HostEstimate{static_cast<std::uint32_t>(100 + j),
                                         rng.uniform(1.0e6, 12.0e6)});
    const auto ctx = basic_ctx(rng.uniform(30.0, 300.0),
                               rng.uniform(1.0e3, 100.0e6));
    const auto greedy = swp::plan_swaps(swp::greedy_policy(), active, spares, ctx);
    const auto safe = swp::plan_swaps(swp::safe_policy(), active, spares, ctx);
    ASSERT_LE(safe.size(), greedy.size());
    for (std::size_t i = 0; i < safe.size(); ++i) {
      EXPECT_EQ(safe[i].slot, greedy[i].slot);
      EXPECT_EQ(safe[i].to, greedy[i].to);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ----------------------------------------------------------- named policies

TEST(Policies, GreedyMatchesPaperTable) {
  const auto p = swp::greedy_policy();
  EXPECT_TRUE(std::isinf(p.payback_threshold_iters));
  EXPECT_DOUBLE_EQ(p.min_process_improvement, 0.0);
  EXPECT_DOUBLE_EQ(p.min_app_improvement, 0.0);
  EXPECT_DOUBLE_EQ(p.history_window_s, 0.0);
  EXPECT_EQ(p.name, "greedy");
}

TEST(Policies, SafeMatchesPaperTable) {
  const auto p = swp::safe_policy();
  EXPECT_DOUBLE_EQ(p.payback_threshold_iters, 0.5);
  EXPECT_DOUBLE_EQ(p.min_process_improvement, 0.20);
  EXPECT_DOUBLE_EQ(p.min_app_improvement, 0.0);
  EXPECT_DOUBLE_EQ(p.history_window_s, 300.0);
  EXPECT_EQ(p.name, "safe");
}

TEST(Policies, FriendlyMatchesPaperTable) {
  const auto p = swp::friendly_policy();
  EXPECT_TRUE(std::isinf(p.payback_threshold_iters));
  EXPECT_DOUBLE_EQ(p.min_process_improvement, 0.0);
  EXPECT_DOUBLE_EQ(p.min_app_improvement, 0.02);
  EXPECT_DOUBLE_EQ(p.history_window_s, 60.0);
  EXPECT_EQ(p.name, "friendly");
}
