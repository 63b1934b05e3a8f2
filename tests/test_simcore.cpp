// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"
#include "simcore/step_series.hpp"

namespace sim = simsweep::sim;

TEST(EventQueue, FiresInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  (void)q.schedule(3.0, [&] { order.push_back(3); });
  (void)q.schedule(1.0, [&] { order.push_back(1); });
  (void)q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    (void)q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  sim::EventQueue q;
  bool fired = false;
  sim::EventHandle h = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEntriesBuriedInHeapStillDrain) {
  sim::EventQueue q;
  sim::EventHandle early = q.schedule(1.0, [] {});
  (void)q.schedule(2.0, [] {});
  early.cancel();
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DefaultHandleIsInert) {
  sim::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, AdvancesTimeToEvent) {
  sim::Simulator s;
  double seen = -1.0;
  (void)s.after(5.0, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.events_fired(), 1u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  sim::Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) (void)s.after(1.0, tick);
  };
  (void)s.after(1.0, tick);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilHonorsHorizon) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] { ++fired; });
  (void)s.after(10.0, [&] { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);  // clock advances to the horizon
  s.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonFires) {
  sim::Simulator s;
  bool fired = false;
  (void)s.after(5.0, [&] { fired = true; });
  s.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopEndsRun) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] {
    ++fired;
    s.stop();
  });
  (void)s.after(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
  EXPECT_FALSE(s.idle());
}

TEST(Simulator, SchedulingInThePastThrows) {
  sim::Simulator s;
  (void)s.after(2.0, [] {});
  s.run();
  EXPECT_THROW((void)s.at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW((void)s.after(-1.0, [] {}), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiffer) {
  sim::Rng a(42, 0), b(42, 1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, DeriveSeedSpreadsStreams) {
  const std::uint64_t root = 7;
  EXPECT_NE(sim::derive_seed(root, 0), sim::derive_seed(root, 1));
  EXPECT_NE(sim::derive_seed(root, 1), sim::derive_seed(root, 2));
  EXPECT_NE(sim::derive_seed(root, 0), sim::derive_seed(root + 1, 0));
}

TEST(Rng, UniformBounds) {
  sim::Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  sim::Rng r(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential_mean(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(TraceRecorder, IntegratesStepSeries) {
  // value 0 until t=1, then 2 until t=3, then 1.
  std::vector<sim::Sample> s{{1.0, 2.0}, {3.0, 1.0}};
  // over [0,4]: 0*1 + 2*2 + 1*1 = 5
  EXPECT_DOUBLE_EQ(sim::integrate_step_series(s, 0.0, 4.0, 0.0), 5.0);
  // window entirely before first sample
  EXPECT_DOUBLE_EQ(sim::integrate_step_series(s, 0.0, 1.0, 0.0), 0.0);
  // window after all samples
  EXPECT_DOUBLE_EQ(sim::integrate_step_series(s, 3.0, 5.0, 0.0), 2.0);
  // mean over [1,3] is 2
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 1.0, 3.0, 0.0), 2.0);
}

TEST(TraceRecorder, PointQueryReturnsValueInEffect) {
  std::vector<sim::Sample> s{{1.0, 2.0}, {3.0, 1.0}};
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 0.5, 0.5, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 2.0, 2.0, 7.0), 2.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 3.5, 3.5, 7.0), 1.0);
}

TEST(TraceRecorder, IntegrateRejectsReversedWindow) {
  std::vector<sim::Sample> s;
  EXPECT_THROW((void)sim::integrate_step_series(s, 2.0, 1.0, 0.0),
               std::invalid_argument);
}
