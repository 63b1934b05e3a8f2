// Tests for the NWS-style forecaster family.
#include <gtest/gtest.h>

#include <cmath>

#include "forecast/forecaster.hpp"
#include "simcore/rng.hpp"

namespace fc = simsweep::forecast;

TEST(LastValue, TracksLatestObservation) {
  auto f = fc::make_last_value();
  EXPECT_DOUBLE_EQ(f->predict(7.0), 7.0);  // fallback before data
  f->observe(0.0, 1.0);
  f->observe(5.0, 3.0);
  EXPECT_DOUBLE_EQ(f->predict(), 3.0);
  EXPECT_EQ(f->name(), "last_value");
}

TEST(LastValue, RejectsTimeTravel) {
  auto f = fc::make_last_value();
  f->observe(5.0, 1.0);
  EXPECT_THROW(f->observe(4.0, 2.0), std::invalid_argument);
}

TEST(WindowedMean, TimeWeightedOverWindow) {
  auto f = fc::make_windowed_mean(10.0);
  f->observe(0.0, 1.0);
  f->observe(10.0, 3.0);
  f->observe(15.0, 3.0);
  // Window [5, 15]: 5 s of 1.0 + 5 s of 3.0.
  EXPECT_DOUBLE_EQ(f->predict(), 2.0);
}

TEST(WindowedMean, SingleSampleIsItsOwnMean) {
  auto f = fc::make_windowed_mean(60.0);
  f->observe(100.0, 0.5);
  EXPECT_DOUBLE_EQ(f->predict(), 0.5);
}

TEST(WindowedMean, PrunesOldSamplesButKeepsEdgeValue) {
  auto f = fc::make_windowed_mean(10.0);
  for (int i = 0; i < 100; ++i)
    f->observe(static_cast<double>(i), i % 2 == 0 ? 0.0 : 1.0);
  // Mean of an alternating 0/1 step series over any 10 s window is 0.5
  // (5 whole one-second segments of each value).
  EXPECT_NEAR(f->predict(), 0.5, 0.11);
  EXPECT_THROW(fc::make_windowed_mean(0.0), std::invalid_argument);
}

// ------------------------------------------------------ performance history
//
// swampi's swap manager keeps one performance history per rank: the
// windowed mean over the policy's history window, or the last value when the
// window is 0 (the greedy policy).  A history's query time is its latest
// observation, the manager's clock at the swap point.

TEST(PerfHistory, LatestWhenWindowZero) {
  auto h = fc::make_last_value();
  EXPECT_DOUBLE_EQ(h->predict(42.0), 42.0);
  h->observe(1.0, 5.0);
  h->observe(2.0, 7.0);
  EXPECT_DOUBLE_EQ(h->predict(), 7.0);
}

TEST(PerfHistory, WindowedMeanIsTimeWeighted) {
  auto ten = fc::make_windowed_mean(10.0);
  auto three = fc::make_windowed_mean(3.0);
  for (auto* h : {ten.get(), three.get()}) {
    h->observe(0.0, 1.0);
    h->observe(10.0, 3.0);
    h->observe(15.0, 3.0);
  }
  // Window [5, 15]: 5 s of 1.0 + 5 s of 3.0 = mean 2.0.
  EXPECT_DOUBLE_EQ(ten->predict(), 2.0);
  // Window [12, 15]: all 3.0.
  EXPECT_DOUBLE_EQ(three->predict(), 3.0);
}

TEST(PerfHistory, ExtendsFirstSampleBackwards) {
  auto h = fc::make_windowed_mean(10.0);
  h->observe(8.0, 4.0);
  h->observe(10.0, 6.0);
  // Window [0, 10] has no data before t=8; the first value fills the gap,
  // and the sample at the query time has not lasted yet.
  EXPECT_DOUBLE_EQ(h->predict(), 4.0);
}

TEST(PerfHistory, PruneKeepsValueInEffect) {
  auto h = fc::make_windowed_mean(10.0);
  h->observe(0.0, 1.0);
  h->observe(10.0, 2.0);
  h->observe(20.0, 3.0);
  h->observe(25.0, 3.0);
  // The t=0 sample is pruned; the t=10 one is still in effect at the
  // window's edge: [15, 25] is 5 s of 2.0 and 5 s of 3.0.
  EXPECT_DOUBLE_EQ(h->predict(), 2.5);
}

TEST(PerfHistory, RejectsOutOfOrderSamples) {
  auto mean = fc::make_windowed_mean(10.0);
  auto last = fc::make_last_value();
  for (auto* h : {mean.get(), last.get()}) {
    h->observe(5.0, 1.0);
    EXPECT_THROW(h->observe(1.0, 2.0), std::invalid_argument);
    // Even a straggler within the simulator's time tolerance: the history
    // is never stored out of order.
    EXPECT_THROW(h->observe(5.0 - 0.5e-9, 2.0), std::invalid_argument);
    h->observe(5.0, 3.0);  // a same-instant sample is in order
  }
}

TEST(PerfHistory, WindowStraddlingFirstSampleBackfills) {
  auto h = fc::make_windowed_mean(4.0);
  h->observe(10.0, 4.0);
  h->observe(11.0, 8.0);
  h->observe(12.0, 1.0);
  // Window [8, 12]: the first sample's value backfills [8, 10), then 1 s of
  // 4.0 and 1 s of 8.0: (2*4 + 1*4 + 1*8) / 4 = 5.
  EXPECT_DOUBLE_EQ(h->predict(), 5.0);
}

TEST(PerfHistory, SameInstantSamplesAnswerTheNewest) {
  // Every sample sits at the query time, so none has lasted: the history
  // answers with the newest measurement.
  auto h = fc::make_windowed_mean(60.0);
  h->observe(10.0, 6.0);
  EXPECT_DOUBLE_EQ(h->predict(), 6.0);
  h->observe(10.0, 9.0);
  EXPECT_DOUBLE_EQ(h->predict(), 9.0);
}

TEST(PerfHistory, ZeroWidthWindowFallsBackWhenEmpty) {
  auto last = fc::make_last_value();
  auto mean = fc::make_windowed_mean(60.0);
  EXPECT_DOUBLE_EQ(last->predict(9.5), 9.5);
  EXPECT_DOUBLE_EQ(mean->predict(3.25), 3.25);
  last->observe(0.0, 2.0);
  EXPECT_DOUBLE_EQ(last->predict(9.5), 2.0);
}

TEST(PerfHistory, PruneAtExactSampleTimeKeepsStepValue) {
  auto h = fc::make_windowed_mean(4.0);
  h->observe(0.0, 1.0);
  h->observe(10.0, 2.0);
  h->observe(14.0, 5.0);
  // The window's edge is t=10 exactly: the t=10 sample is the value in
  // effect there, and the t=0 sample, which ended exactly there, is
  // dropped without leaking into [10, 14].
  EXPECT_DOUBLE_EQ(h->predict(), 2.0);
}

TEST(PerfHistory, PruneNeverEmptiesHistory) {
  auto h = fc::make_windowed_mean(10.0);
  h->observe(0.0, 1.0);
  h->observe(1.0, 2.0);
  // A long quiet stretch prunes everything but the value still in effect.
  h->observe(1000.0, 7.0);
  EXPECT_DOUBLE_EQ(h->predict(), 2.0);
}

TEST(Ewma, ConvergesToConstantSignal) {
  auto f = fc::make_ewma(10.0);
  f->observe(0.0, 0.0);
  for (int i = 1; i <= 100; ++i) f->observe(static_cast<double>(i), 4.0);
  EXPECT_NEAR(f->predict(), 4.0, 1e-3);
}

TEST(Ewma, DecayDependsOnElapsedTime) {
  auto fast = fc::make_ewma(1.0);
  auto slow = fc::make_ewma(100.0);
  for (auto* f : {fast.get(), slow.get()}) {
    f->observe(0.0, 0.0);
    f->observe(10.0, 1.0);
  }
  // tau=1: 10 s gap fully adopts the new value; tau=100 barely moves.
  EXPECT_GT(fast->predict(), 0.99);
  EXPECT_LT(slow->predict(), 0.15);
  EXPECT_THROW(fc::make_ewma(-2.0), std::invalid_argument);
}

TEST(SlidingMedian, IgnoresSingleSpike) {
  auto f = fc::make_sliding_median(5);
  for (int i = 0; i < 4; ++i) f->observe(static_cast<double>(i), 1.0);
  f->observe(4.0, 100.0);  // spike
  EXPECT_DOUBLE_EQ(f->predict(), 1.0);
  EXPECT_THROW(fc::make_sliding_median(0), std::invalid_argument);
}

TEST(SlidingMedian, WindowSlides) {
  auto f = fc::make_sliding_median(3);
  f->observe(0.0, 1.0);
  f->observe(1.0, 2.0);
  f->observe(2.0, 9.0);
  f->observe(3.0, 9.0);  // window now {2, 9, 9}
  EXPECT_DOUBLE_EQ(f->predict(), 9.0);
}

TEST(Adaptive, PicksTheBetterCandidateOnStableSeries) {
  // Constant series: last-value is exact; a long mean initialized through a
  // transient keeps residual error, so adaptive should follow last-value.
  std::vector<std::unique_ptr<fc::Forecaster>> candidates;
  candidates.push_back(fc::make_last_value());
  candidates.push_back(fc::make_windowed_mean(1000.0));
  auto f = fc::make_adaptive(std::move(candidates));
  f->observe(0.0, 10.0);
  for (int i = 1; i <= 50; ++i) f->observe(static_cast<double>(i), 2.0);
  EXPECT_DOUBLE_EQ(f->predict(), 2.0);
  EXPECT_EQ(f->name(), "adaptive[last_value]");
}

TEST(Adaptive, PrefersMedianUnderSpikyNoise) {
  // Signal is 1.0 with a spike to 50 every 5th sample: last-value is badly
  // wrong after each spike; the median never is.
  std::vector<std::unique_ptr<fc::Forecaster>> candidates;
  candidates.push_back(fc::make_last_value());
  candidates.push_back(fc::make_sliding_median(5));
  auto f = fc::make_adaptive(std::move(candidates));
  for (int i = 0; i < 60; ++i)
    f->observe(static_cast<double>(i), i % 5 == 4 ? 50.0 : 1.0);
  EXPECT_EQ(f->name(), "adaptive[median_5]");
  EXPECT_THROW(fc::make_adaptive({}), std::invalid_argument);
}

TEST(Adaptive, CloneCopiesLearnedState) {
  auto f = fc::make_default_ensemble();
  for (int i = 0; i < 20; ++i) f->observe(static_cast<double>(i), 0.25);
  auto copy = f->clone();
  EXPECT_DOUBLE_EQ(copy->predict(), f->predict());
  // Diverge after cloning.
  copy->observe(21.0, 1.0);
  EXPECT_NE(copy->predict(), f->predict());
}

TEST(DefaultEnsemble, PredictsWithinObservedRange) {
  simsweep::sim::Rng rng(3);
  auto f = fc::make_default_ensemble();
  for (int i = 0; i < 200; ++i)
    f->observe(static_cast<double>(i), rng.uniform(0.25, 0.75));
  const double p = f->predict();
  EXPECT_GE(p, 0.25);
  EXPECT_LE(p, 0.75);
}

// Property: every forecaster in the family predicts within the convex hull
// of its observations (all are averaging/selection schemes).
class ForecastHullProperty : public ::testing::TestWithParam<int> {};

TEST_P(ForecastHullProperty, PredictionsStayInHull) {
  simsweep::sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::unique_ptr<fc::Forecaster>> family;
  family.push_back(fc::make_last_value());
  family.push_back(fc::make_windowed_mean(30.0));
  family.push_back(fc::make_ewma(20.0));
  family.push_back(fc::make_sliding_median(7));
  family.push_back(fc::make_default_ensemble());
  double lo = 1e300, hi = -1e300, t = 0.0;
  for (int i = 0; i < 100; ++i) {
    t += rng.uniform(0.1, 10.0);
    const double v = rng.uniform(-5.0, 5.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    for (auto& f : family) {
      f->observe(t, v);
      const double p = f->predict();
      EXPECT_GE(p, lo - 1e-9) << f->name();
      EXPECT_LE(p, hi + 1e-9) << f->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForecastHullProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
