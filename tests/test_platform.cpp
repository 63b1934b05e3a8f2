// Unit tests for hosts, compute tasks and the cluster builder.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "platform/cluster.hpp"
#include "platform/host.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/step_series.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;

namespace {

pf::ClusterSpec small_spec(std::vector<double> speeds) {
  pf::ClusterSpec spec;
  spec.host_count = speeds.size();
  spec.explicit_speeds = std::move(speeds);
  return spec;
}

}  // namespace

TEST(Host, UnloadedComputeTakesWorkOverSpeed) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double done_at = -1.0;
  auto task = h.start_compute(250.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
  EXPECT_FALSE(task->active());
}

TEST(Host, AvailabilityHalvesWithOneCompetitor) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.set_external_load(1);
  EXPECT_DOUBLE_EQ(h.availability(), 0.5);
  EXPECT_DOUBLE_EQ(h.effective_speed(), 50.0);
  double done_at = -1.0;
  auto task = h.start_compute(100.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(Host, MidTaskLoadChangeReplansCompletion) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double done_at = -1.0;
  auto task = h.start_compute(200.0, [&] { done_at = s.now(); });
  // After 1 s (100 flop done), one competitor arrives: remaining 100 flop at
  // 50 flop/s takes 2 more seconds.
  (void)s.after(1.0, [&] { h.set_external_load(1); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(Host, LoadDropSpeedsTaskUp) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.set_external_load(3);  // quarter speed
  double done_at = -1.0;
  auto task = h.start_compute(100.0, [&] { done_at = s.now(); });
  (void)s.after(2.0, [&] { h.set_external_load(0); });  // 50 done, 50 left at full
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
}

TEST(Host, TwoTasksShareTheCpu) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double first = -1.0, second = -1.0;
  auto t1 = h.start_compute(100.0, [&] { first = s.now(); });
  auto t2 = h.start_compute(100.0, [&] { second = s.now(); });
  s.run();
  // Both run at 50 flop/s while sharing; the first completion frees the
  // whole CPU but both need the same work, so both end at t=2.
  EXPECT_DOUBLE_EQ(first, 2.0);
  EXPECT_DOUBLE_EQ(second, 2.0);
}

TEST(Host, SecondTaskFinishesFasterAfterFirstCompletes) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double first = -1.0, second = -1.0;
  auto t1 = h.start_compute(50.0, [&] { first = s.now(); });
  auto t2 = h.start_compute(150.0, [&] { second = s.now(); });
  s.run();
  // Shared until t=1 (each does 50).  Task 2 then has 100 left at full
  // speed: finishes at t=2.
  EXPECT_DOUBLE_EQ(first, 1.0);
  EXPECT_DOUBLE_EQ(second, 2.0);
}

TEST(Host, CancelPreventsCompletion) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  bool fired = false;
  auto task = h.start_compute(100.0, [&] { fired = true; });
  (void)s.after(0.5, [&] { task->cancel(); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(task->active());
  EXPECT_EQ(h.running_tasks(), 0u);
}

TEST(Host, CancelFreesTheCpuShare) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double done_at = -1.0;
  auto t1 = h.start_compute(100.0, [&] { done_at = s.now(); });
  auto t2 = h.start_compute(100.0, [] {});
  (void)s.after(0.5, [&] { t2->cancel(); });
  s.run();
  // 25 flop at 50 flop/s while shared, then the remaining 75 at the full
  // 100 flop/s from the cancel on.
  EXPECT_DOUBLE_EQ(done_at, 1.25);
  EXPECT_DOUBLE_EQ(t1->remaining(), 0.0);
}

TEST(Host, TaskJoiningAHostReclaimedWhileIdleStallsUntilItReturns) {
  // An idle host's CPU takes load and online changes without a pass; the
  // values must still be stored.  Reclaimed at t=2 with one competitor
  // since t=1, the host gets a task at t=3 that makes no progress until
  // the host returns at t=10, then runs at 50 flop/s.
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double done_at = -1.0;
  std::shared_ptr<pf::ComputeTask> task;
  (void)s.at(1.0, [&] { h.set_external_load(1); });
  (void)s.at(2.0, [&] { h.set_online(false); });
  (void)s.at(3.0, [&] {
    task = h.start_compute(150.0, [&] { done_at = s.now(); });
  });
  (void)s.at(10.0, [&] {
    EXPECT_EQ(done_at, -1.0);
    EXPECT_EQ(task->remaining(), 150.0);
    h.set_online(true);
  });
  s.run();
  EXPECT_EQ(done_at, 13.0);
}

TEST(Host, DestroyedHostFiresNothing) {
  // The CPU's pending completion refers to the host; destroying the host
  // with a task still running must cancel it, not leave it to fire later.
  sim::Simulator s;
  bool fired = false;
  std::shared_ptr<pf::ComputeTask> task;
  {
    pf::Host h(s, 0, 100.0, "h");
    task = h.start_compute(100.0, [&] { fired = true; });
  }
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_fired(), 0u);
}

TEST(Host, ZeroWorkCompletesImmediately) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double done_at = -1.0;
  auto task = h.start_compute(0.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(Host, MeanAvailabilityIntegratesLoadHistory) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  (void)s.after(1.0, [&] { h.set_external_load(1); });
  (void)s.after(3.0, [&] { h.set_external_load(0); });
  (void)s.after(4.0, [] {});
  s.run();
  // [0,1): avail 1; [1,3): 0.5; [3,4): 1  ->  mean over [0,4] = 3/4... wait:
  // 1*1 + 0.5*2 + 1*1 = 3 over 4 seconds = 0.75.
  EXPECT_DOUBLE_EQ(h.mean_availability(0.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(h.mean_availability(1.0, 3.0), 0.5);
}

namespace {

/// mean_availability's window walk from the first sample on, as it was
/// before the walk started at t0.
double linear_mean_availability(const std::vector<sim::Sample>& history,
                                double t0, double t1) {
  double area = 0.0;
  double value = 0.0;
  double cursor = t0;
  for (const sim::Sample& s : history) {
    if (s.time <= t0) {
      value = s.value;
      continue;
    }
    if (s.time >= t1) break;
    area += (s.time - cursor) * pf::Host::availability_of_sample(value);
    cursor = s.time;
    value = s.value;
  }
  area += (t1 - cursor) * pf::Host::availability_of_sample(value);
  return area / (t1 - t0);
}

}  // namespace

TEST(Host, MeanAvailabilityMatchesTheLinearWalkBitwise) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    sim::Simulator s;
    // The host is built at t=2, so windows can start before its first
    // sample.
    (void)s.at(2.0, [] {});
    s.run();
    pf::Host h(s, 0, 100.0, "h");
    // Changes on a quarter-second grid, several at one instant at times;
    // every fifth is an outage or a return.
    const auto changes = rng.uniform_int(0, 200);
    for (std::int64_t i = 0; i < changes; ++i) {
      const double at =
          2.0 + 0.25 * static_cast<double>(rng.uniform_int(0, 120));
      const bool flip_online = rng.uniform_int(0, 4) == 0;
      const int load = static_cast<int>(rng.uniform_int(0, 3));
      (void)s.at(at, [&h, flip_online, load] {
        if (flip_online)
          h.set_online(!h.online());
        else
          h.set_external_load(load);
      });
    }
    s.run();
    std::vector<double> times{0.0, 1.5, 2.0, 40.0, 50.0};
    for (const sim::Sample& sample : h.load_history())
      times.push_back(sample.time);
    for (int k = 0; k < 200; ++k) {
      double t0 = times[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(times.size()) - 1))];
      double t1 = rng.uniform_int(0, 3) == 0
                      ? rng.uniform(0.0, 45.0)
                      : times[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(times.size()) - 1))];
      if (t1 < t0) std::swap(t0, t1);
      const double expected = sim::time_close(t0, t1)
                                  ? h.availability()
                                  : linear_mean_availability(
                                        h.load_history(), t0, t1);
      EXPECT_EQ(h.mean_availability(t0, t1), expected)
          << "[" << t0 << ", " << t1 << "]";
      EXPECT_EQ(h.mean_availability(t0, t0), h.availability());
    }
  }
}

TEST(Host, RejectsInvalidArguments) {
  sim::Simulator s;
  EXPECT_THROW(pf::Host(s, 0, 0.0, "bad"), std::invalid_argument);
  pf::Host h(s, 0, 100.0, "h");
  EXPECT_THROW(h.set_external_load(-1), std::invalid_argument);
  EXPECT_THROW((void)h.start_compute(-5.0, [] {}), std::invalid_argument);
  EXPECT_THROW((void)h.start_compute(std::nan(""), [] {}),
               std::invalid_argument);
  EXPECT_THROW((void)h.start_compute(HUGE_VAL, [] {}), std::invalid_argument);
  EXPECT_EQ(h.running_tasks(), 0u);
}

TEST(Cluster, ExplicitSpeedsAreUsed) {
  sim::Simulator s;
  sim::Rng rng(1);
  pf::Cluster c(s, small_spec({300.0, 100.0, 200.0}), rng);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c.host(0).peak_speed(), 300.0);
  EXPECT_DOUBLE_EQ(c.host(1).peak_speed(), 100.0);
  EXPECT_DOUBLE_EQ(c.host(2).peak_speed(), 200.0);
}

TEST(Cluster, RandomSpeedsWithinRange) {
  sim::Simulator s;
  sim::Rng rng(7);
  pf::ClusterSpec spec;
  spec.host_count = 16;
  spec.min_speed_flops = 100.0e6;
  spec.max_speed_flops = 500.0e6;
  pf::Cluster c(s, spec, rng);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_GE(c.host(static_cast<pf::HostId>(i)).peak_speed(), 100.0e6);
    EXPECT_LT(c.host(static_cast<pf::HostId>(i)).peak_speed(), 500.0e6);
  }
}

TEST(Cluster, SortsByEffectiveSpeed) {
  sim::Simulator s;
  sim::Rng rng(1);
  pf::Cluster c(s, small_spec({300.0, 100.0, 200.0}), rng);
  c.host(0).set_external_load(2);  // effective 100
  const auto order = c.by_effective_speed();
  EXPECT_EQ(order[0], 2u);  // 200
  // host0 (eff 100) and host1 (eff 100) tie; stable order keeps host0 first.
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
  const auto peak = c.by_peak_speed();
  EXPECT_EQ(peak[0], 0u);
}

TEST(Cluster, StartupCostScalesWithProcesses) {
  sim::Simulator s;
  sim::Rng rng(1);
  pf::Cluster c(s, small_spec({100.0, 100.0}), rng);
  EXPECT_DOUBLE_EQ(c.startup_cost(30), 22.5);  // paper: ~20 s for 30 spares
}

TEST(Cluster, RejectsBadSpecs) {
  sim::Simulator s;
  sim::Rng rng(1);
  pf::ClusterSpec spec;
  spec.host_count = 0;
  EXPECT_THROW(pf::Cluster(s, spec, rng), std::invalid_argument);
  spec.host_count = 2;
  spec.explicit_speeds = {1.0};
  EXPECT_THROW(pf::Cluster(s, spec, rng), std::invalid_argument);
}
