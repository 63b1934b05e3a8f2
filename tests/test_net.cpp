// Unit tests for the shared-link contention network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "net/shared_link.hpp"
#include "simcore/simulator.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace net = simsweep::net;
namespace obs = simsweep::obs;

// A message and a compute task are members of the one fair-share resource.
static_assert(std::is_same_v<net::Flow, pf::ComputeTask>);

namespace {

pf::LinkSpec link(double latency, double bandwidth) {
  return pf::LinkSpec{.latency_s = latency, .bandwidth_Bps = bandwidth};
}

}  // namespace

TEST(SharedLink, SingleTransferTakesLatencyPlusBytesOverBandwidth) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.5, 100.0));
  double done_at = -1.0;
  auto f = n.start_transfer(200.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
  EXPECT_DOUBLE_EQ(n.link().transfer_time(200.0), 2.5);
}

TEST(SharedLink, LatencyOnlyMessage) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.25, 100.0));
  double done_at = -1.0;
  auto f = n.start_transfer(0.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 0.25);
}

TEST(SharedLink, TwoConcurrentFlowsShareBandwidth) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  double a = -1.0, b = -1.0;
  auto f1 = n.start_transfer(100.0, [&] { a = s.now(); });
  auto f2 = n.start_transfer(100.0, [&] { b = s.now(); });
  s.run();
  // Each gets 50 B/s while both are active; both finish at t=2.
  EXPECT_DOUBLE_EQ(a, 2.0);
  EXPECT_DOUBLE_EQ(b, 2.0);
}

TEST(SharedLink, ShortFlowFinishesAndLongFlowSpeedsUp) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  double a = -1.0, b = -1.0;
  auto f1 = n.start_transfer(50.0, [&] { a = s.now(); });
  auto f2 = n.start_transfer(150.0, [&] { b = s.now(); });
  s.run();
  // Shared at 50 B/s until t=1 (both moved 50); flow 2 then has 100 left at
  // full bandwidth: done at t=2.
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 2.0);
}

TEST(SharedLink, LateArrivalSlowsExistingFlow) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  double a = -1.0, b = -1.0;
  std::shared_ptr<net::Flow> f2;
  auto f1 = n.start_transfer(200.0, [&] { a = s.now(); });
  (void)s.after(1.0, [&] { f2 = n.start_transfer(50.0, [&] { b = s.now(); }); });
  s.run();
  // Flow 1: 100 B alone in [0,1], then 50 B/s while flow 2 (50 B) drains at
  // t=2; remaining 50 B at full speed -> t=2.5.
  EXPECT_DOUBLE_EQ(b, 2.0);
  EXPECT_DOUBLE_EQ(a, 2.5);
}

TEST(SharedLink, CancelFreesBandwidth) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  double a = -1.0;
  bool b_fired = false;
  auto f1 = n.start_transfer(150.0, [&] { a = s.now(); });
  auto f2 = n.start_transfer(1000.0, [&] { b_fired = true; });
  (void)s.after(1.0, [&] { f2->cancel(); });
  s.run();
  // Flow 1 shared 50 B/s for 1 s (50 B), then full speed for remaining 100.
  EXPECT_DOUBLE_EQ(a, 2.0);
  EXPECT_FALSE(b_fired);
}

TEST(SharedLink, ManyFlowsConserveBandwidth) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  const int k = 10;
  int completed = 0;
  double last = 0.0;
  std::vector<std::shared_ptr<net::Flow>> flows;
  for (int i = 0; i < k; ++i)
    flows.push_back(n.start_transfer(100.0, [&] {
      ++completed;
      last = s.now();
    }));
  s.run();
  EXPECT_EQ(completed, k);
  // Total 1000 B over a 100 B/s link: exactly 10 s regardless of sharing.
  EXPECT_NEAR(last, 10.0, 1e-9);
}

TEST(SharedLink, EqualFlowsFinishTogetherInJoinOrder) {
  // n flows of B bytes started together at t0 all land at
  // t0 + alpha + n * B / beta, first-started first.
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.01, 1000.0));
  constexpr std::size_t kFlows = 64;
  std::vector<std::shared_ptr<net::Flow>> flows;
  std::vector<std::size_t> order;
  std::vector<double> finish;
  (void)s.at(2.0, [&] {
    for (std::size_t i = 0; i < kFlows; ++i)
      flows.push_back(n.start_transfer(100.0, [&, i] {
        order.push_back(i);
        finish.push_back(s.now());
      }));
  });
  s.run();
  ASSERT_EQ(order.size(), kFlows);
  const double expected = 2.0 + 0.01 + kFlows * 100.0 / 1000.0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_LE(std::fabs(finish[i] - expected) / expected, 1e-12)
        << "flow " << i << " at " << finish[i];
  }
}

TEST(SharedLink, MetricsNameOnlyWhatHappened) {
  // The link's metric handles are resolved on first use, so a run without
  // a cancel has no net.flows_cancelled key at all.
  sim::Simulator s;
  obs::MetricsRegistry metrics;
  s.set_metrics(&metrics);
  net::SharedLinkNetwork n(s, link(0.01, 100.0));
  auto a = n.start_transfer(100.0, [] {});
  auto b = n.start_transfer(50.0, [] {});
  s.run();
  const std::vector<std::string> names = metrics.counter_names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "net.flows_cancelled"), 0);
  EXPECT_EQ(metrics.counter_value("net.flows_started"), 2u);
  EXPECT_EQ(metrics.counter_value("net.flows_completed"), 2u);
  EXPECT_EQ(metrics.counter_value("net.reshare_passes"), 4u);
  EXPECT_EQ(metrics.histogram_snapshot("net.flow_bytes")->count, 2u);
  EXPECT_EQ(metrics.histogram_snapshot("net.flow_duration_s")->count, 2u);
  auto c = n.start_transfer(10.0, [] {});
  c->cancel();
  EXPECT_EQ(metrics.counter_value("net.flows_cancelled"), 1u);
}

TEST(SharedLink, LatencyPhaseDoesNotConsumeBandwidth) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(1.0, 100.0));
  double a = -1.0, b = -1.0;
  auto f1 = n.start_transfer(100.0, [&] { a = s.now(); });
  std::shared_ptr<net::Flow> f2;
  // Flow 2 starts its latency at t=1.5; it only joins sharing at t=2.5,
  // after flow 1 already finished at t=2.
  (void)s.after(1.5, [&] { f2 = n.start_transfer(100.0, [&] { b = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(a, 2.0);
  EXPECT_DOUBLE_EQ(b, 3.5);
}

TEST(SharedLink, CancelFromCompletionCallbackIsSafe) {
  // A flow's completion callback cancelling a sibling re-enters the
  // network's resharing machinery; the callback runs after the completion
  // pass, so the cancel's pass must not corrupt any flow's accrual.
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  double a = -1.0;
  bool b_fired = false;
  std::shared_ptr<net::Flow> f2;
  auto f1 = n.start_transfer(50.0, [&] {
    a = s.now();
    f2->cancel();
  });
  f2 = n.start_transfer(1000.0, [&] { b_fired = true; });
  s.run();
  EXPECT_DOUBLE_EQ(a, 1.0);  // 50 B at 50 B/s shared
  EXPECT_FALSE(b_fired);
}

TEST(SharedLink, StartFromCompletionCallbackIsSafe) {
  // Starting a new transfer from inside a completion callback (and
  // cancelling another) exercises admit + cancel re-entering reshare.
  sim::Simulator s;
  net::SharedLinkNetwork n(s, link(0.0, 100.0));
  double a = -1.0, c = -1.0;
  bool b_fired = false;
  std::shared_ptr<net::Flow> f2, f3;
  auto f1 = n.start_transfer(50.0, [&] {
    a = s.now();
    f2->cancel();
    f3 = n.start_transfer(100.0, [&] { c = s.now(); });
  });
  f2 = n.start_transfer(1000.0, [&] { b_fired = true; });
  s.run();
  // f1 and f2 share 50 B/s; f1's 50 B complete at t=1, f2 dies there, and
  // f3 then owns the whole link: 100 B at 100 B/s -> t=2 exactly.
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(c, 2.0);
  EXPECT_FALSE(b_fired);
}

TEST(SharedLink, RejectsInvalidParameters) {
  sim::Simulator s;
  EXPECT_THROW(net::SharedLinkNetwork(s, link(0.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(net::SharedLinkNetwork(s, link(-1.0, 10.0)),
               std::invalid_argument);
  net::SharedLinkNetwork n(s, link(0.0, 10.0));
  EXPECT_THROW((void)n.start_transfer(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW((void)n.start_transfer(std::nan(""), [] {}),
               std::invalid_argument);
  EXPECT_THROW((void)n.start_transfer(HUGE_VAL, [] {}), std::invalid_argument);
}
