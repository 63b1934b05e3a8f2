// Edge-coverage batch: swampi sendrecv/iprobe, host load history, network
// cancellation during the latency phase, simulator drain semantics, cluster
// queries under churn.
#include <gtest/gtest.h>

#include "net/shared_link.hpp"
#include "platform/cluster.hpp"
#include "simcore/simulator.hpp"
#include "swampi/comm.hpp"
#include "swampi/runtime.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace net = simsweep::net;
using swampi::Comm;
using swampi::Runtime;

TEST(SwampiSendrecv, RingShiftExchangesWithoutDeadlock) {
  const int n = 6;
  Runtime rt(n);
  rt.run([n](Comm& world) {
    const int right = (world.rank() + 1) % n;
    const int left = (world.rank() + n - 1) % n;
    const int mine = world.rank() * 11;
    int from_left = -1;
    const swampi::Status st = world.sendrecv(&mine, 1, right, /*send_tag=*/4,
                                             &from_left, 1, left,
                                             /*recv_tag=*/4);
    EXPECT_EQ(from_left, left * 11);
    EXPECT_EQ(st.source, left);
    EXPECT_EQ(st.bytes, sizeof(int));
  });
}

TEST(SwampiSendrecv, SelfExchangeWorks) {
  Runtime rt(1);
  rt.run([](Comm& world) {
    const double out = 2.5;
    double in = 0.0;
    world.sendrecv(&out, 1, 0, 1, &in, 1, 0, 1);
    EXPECT_DOUBLE_EQ(in, 2.5);
  });
}

TEST(SwampiIprobe, SeesOnlyMatchingMessages) {
  Runtime rt(2);
  rt.run([](Comm& world) {
    if (world.rank() == 0) {
      world.send_value(1, 1, /*tag=*/5);
      world.barrier();
    } else {
      world.barrier();  // ensures the message arrived
      EXPECT_TRUE(world.iprobe(0, 5));
      EXPECT_TRUE(world.iprobe(swampi::kAnySource, swampi::kAnyTag));
      EXPECT_FALSE(world.iprobe(0, 6));
      (void)world.recv_value<int>(0, 5);
      EXPECT_FALSE(world.iprobe(0, 5));
    }
  });
}

TEST(HostTrace, AttachedRecorderLogsAvailabilityChanges) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "traced");
  (void)s.after(1.0, [&] { h.set_external_load(1); });
  (void)s.after(2.0, [&] { h.set_online(false); });
  (void)s.after(3.0, [&] { h.set_online(true); });
  s.run();
  const auto& history = h.load_history();
  ASSERT_EQ(history.size(), 4u);  // construction + three changes
  EXPECT_EQ(history[0], (sim::Sample{0.0, 0.0}));
  EXPECT_EQ(history[1], (sim::Sample{1.0, 1.0}));
  EXPECT_EQ(history[2], (sim::Sample{2.0, pf::Host::kOfflineMarker}));
  EXPECT_EQ(history[3], (sim::Sample{3.0, 1.0}));  // competitor persisted
  EXPECT_DOUBLE_EQ(h.availability(), 0.5);
}

TEST(SharedLinkEdge, CancelDuringLatencyPhaseIsClean) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, pf::LinkSpec{.latency_s = 1.0,
                                           .bandwidth_Bps = 100.0});
  bool fired = false;
  auto flow = n.start_transfer(100.0, [&] { fired = true; });
  (void)s.after(0.5, [&] { flow->cancel(); });  // still in latency
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(n.active_flows(), 0u);
  flow->cancel();  // idempotent
}

TEST(SharedLinkEdge, CompletionClearsActiveFlows) {
  sim::Simulator s;
  net::SharedLinkNetwork n(s, pf::LinkSpec{.latency_s = 0.0,
                                           .bandwidth_Bps = 100.0});
  auto flow = n.start_transfer(100.0, [] {});
  s.run();
  EXPECT_EQ(n.active_flows(), 0u);
  EXPECT_FALSE(flow->active());
  EXPECT_DOUBLE_EQ(flow->remaining(), 0.0);
}

TEST(SimulatorEdge, IdleReflectsPendingEvents) {
  sim::Simulator s;
  EXPECT_TRUE(s.idle());
  auto h = s.after(1.0, [] {});
  EXPECT_FALSE(s.idle());
  h.cancel();
  EXPECT_TRUE(s.idle());
}

TEST(SimulatorEdge, RunAfterStopResumes) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] {
    ++fired;
    s.stop();
  });
  (void)s.after(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // clears the stop flag and drains the rest
  EXPECT_EQ(fired, 2);
}

TEST(ClusterEdge, EffectiveOrderingTracksOfflineHosts) {
  sim::Simulator s;
  sim::Rng rng(1);
  pf::ClusterSpec spec;
  spec.host_count = 3;
  spec.explicit_speeds = {300.0, 200.0, 100.0};
  pf::Cluster c(s, spec, rng);
  c.host(0).set_online(false);
  const auto order = c.by_effective_speed();
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order.back(), 0u);  // offline host sorts last
  // Peak ordering is unaffected.
  EXPECT_EQ(c.by_peak_speed().front(), 0u);
}

TEST(EventQueueEdge, PendingReflectsLifecycle) {
  sim::Simulator s;
  sim::EventHandle h = s.after(1.0, [] {});
  EXPECT_TRUE(h.pending());
  s.run();
  EXPECT_FALSE(h.pending());  // fired events are no longer pending
}
