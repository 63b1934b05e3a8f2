// Semantic properties of the models that the paper's conclusions rest on:
// the dynamism axis really controls load persistence, the CR strategy is
// confined to its allocated pool, and the planner respects unequal chunks.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "net/shared_link.hpp"
#include "strategy/strategy.hpp"
#include "swap/planner.hpp"
#include "swap/policy.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace net = simsweep::net;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace swp = simsweep::swap;
namespace app = simsweep::app;
namespace core = simsweep::core;

namespace {

/// Mean sojourn length (seconds per state visit) of one ON/OFF source
/// observed over a long run.
double observed_mean_sojourn(double dynamism, std::uint64_t seed) {
  load::OnOffParams params = load::OnOffParams::dynamism(dynamism);
  params.stationary_start = false;
  const load::OnOffModel model(params);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = model.make_source(seed);
  src->start(s, h);
  const double horizon = 500000.0;
  s.run_until(horizon);
  const std::size_t transitions = h.load_history().size() - 1;
  if (transitions == 0) return horizon;
  return horizon / static_cast<double>(transitions);
}

}  // namespace

TEST(DynamismAxis, HigherProbabilityMeansShorterSojourns) {
  // The x axis of Figs 4/7 is meaningful only if load persistence falls
  // monotonically with x.  Expected sojourn = step/x.
  const double s01 = observed_mean_sojourn(0.1, 1);
  const double s03 = observed_mean_sojourn(0.3, 1);
  const double s09 = observed_mean_sojourn(0.9, 1);
  EXPECT_GT(s01, 2.0 * s03);
  EXPECT_GT(s03, 2.0 * s09);
  // Quantitative: step 100 s, x=0.1 -> mean sojourn ~1000 s.
  EXPECT_NEAR(s01, 1000.0, 150.0);
  EXPECT_NEAR(s09, 100.0 / 0.9, 20.0);
}

TEST(DynamismAxis, StationaryLoadedFractionIsHalfForAllX) {
  // p = q means the *amount* of load is constant across the sweep; only its
  // persistence varies.  This is what lets the figures attribute execution-
  // time differences to adaptability rather than to load volume.
  for (double x : {0.1, 0.5, 0.9}) {
    const load::OnOffModel m(load::OnOffParams::dynamism(x));
    EXPECT_DOUBLE_EQ(m.stationary_on_fraction(), 0.5) << x;
  }
}

TEST(CrStrategy, RestartsOnlyWithinAllocatedPool) {
  // 6 hosts, CR allocated 2 active + 1 spare.  Hosts outside the pool are
  // made overwhelmingly attractive mid-run; CR must still never use them.
  sim::Simulator simulator;
  sim::Rng rng(3);
  pf::ClusterSpec spec;
  spec.host_count = 6;
  // Pool candidates (fastest at t=0): hosts 0,1,2.  Outsiders 3,4,5 start
  // loaded so the initial allocation skips them.
  spec.explicit_speeds = {300.0e6, 300.0e6, 290.0e6, 900.0e6, 900.0e6, 900.0e6};
  pf::Cluster cluster(simulator, spec, rng);
  for (pf::HostId h : {3u, 4u, 5u}) cluster.host(h).set_external_load(9);

  app::AppSpec aspec = app::AppSpec::with_iteration_minutes(2, 6, 1.0);
  aspec.comm_bytes_per_process = 0.0;
  aspec.state_bytes_per_process = app::kMiB;
  net::SharedLinkNetwork network(simulator, spec.link);
  strat::StrategyContext ctx{simulator, cluster, network, aspec, 1};
  strat::CrStrategy cr{swp::greedy_policy()};
  auto exec = cr.launch(ctx);
  // Outsiders unload and active host 0 collapses: the *globally* best move
  // is onto host 3 (eff 900e6), but CR may only use its pool {0,1,2}.
  (void)simulator.after(10.0, [&] {
    for (pf::HostId h : {3u, 4u, 5u}) cluster.host(h).set_external_load(0);
    cluster.host(0).set_external_load(9);
  });
  simulator.run_until(4.0e5);
  ASSERT_TRUE(exec->result().finished);
  EXPECT_GE(exec->result().adaptations, 1u);
  for (pf::HostId h : exec->placement()) EXPECT_LE(h, 2u);
}

TEST(Planner, UnequalChunksPickTheRealBottleneck) {
  // Slot 0 has 4x the work of slot 1.  Host speeds equal: the bottleneck is
  // slot 0, so the planner must move *it*, not the nominally slowest host.
  std::vector<swp::ActiveProcess> active{
      {.slot = 0, .host = 0, .est_speed = 10.0e6, .chunk_flops = 80.0e6},
      {.slot = 1, .host = 1, .est_speed = 9.0e6, .chunk_flops = 20.0e6},
  };
  const std::vector<swp::HostEstimate> spares{{.host = 7, .est_speed = 20.0e6}};
  const swp::PlanContext ctx{
      .measured_iter_time_s = 10.0,
      .state_bytes = 1.0e6,
      .link_latency_s = 1e-4,
      .link_bandwidth_Bps = 6.0e6,
      .comm_time_s = 0.0,
      .adaptation_cost_s = std::nullopt,
  };
  const auto decisions = swp::plan_swaps(swp::greedy_policy(), active, spares, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].slot, 0u);  // the heavy chunk moves
}

TEST(Planner, AppGainAccountsForCommFloor) {
  // With a large fixed communication phase, replacing the bottleneck host
  // barely moves the application rate; the friendly policy's 2% app
  // threshold must reject it while greedy accepts.
  std::vector<swp::ActiveProcess> active{
      {.slot = 0, .host = 0, .est_speed = 10.0e6, .chunk_flops = 10.0e6},
      {.slot = 1, .host = 1, .est_speed = 10.0e6, .chunk_flops = 10.0e6},
  };
  const std::vector<swp::HostEstimate> spares{{.host = 7, .est_speed = 11.0e6}};
  swp::PlanContext ctx{
      .measured_iter_time_s = 100.0,
      .state_bytes = 1.0e6,
      .link_latency_s = 1e-4,
      .link_bandwidth_Bps = 6.0e6,
      .comm_time_s = 99.0,  // compute is 1 s; comm dominates
      .adaptation_cost_s = std::nullopt,
  };
  EXPECT_TRUE(
      swp::plan_swaps(swp::friendly_policy(), active, spares, ctx).empty());
  EXPECT_FALSE(
      swp::plan_swaps(swp::greedy_policy(), active, spares, ctx).empty());
}

TEST(Experiment, OverallocationNeverHelpsNone) {
  // NONE ignores spares entirely: results must be bit-identical.
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 16;
  cfg.app = app::AppSpec::with_iteration_minutes(4, 5, 1.0);
  cfg.seed = 4;
  const load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  strat::NoneStrategy none;
  cfg.spare_count = 0;
  const auto a = core::run_single(cfg, model, none);
  cfg.spare_count = 12;
  const auto b = core::run_single(cfg, model, none);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

TEST(Experiment, MoreSparesNeverHurtSwapBeyondStartup) {
  // For a fixed seed, growing the spare pool can only widen the planner's
  // choices; any makespan growth is bounded by the extra startup cost plus
  // the (bounded) cost of extra swaps it may choose.  We check the weaker,
  // deterministic property that the run still finishes and stays within
  // 20 % of the smaller pool's makespan across several seeds.
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 24;
  cfg.app = app::AppSpec::with_iteration_minutes(4, 10, 1.0);
  cfg.app.state_bytes_per_process = app::kMiB;
  const load::OnOffModel model(load::OnOffParams::dynamism(0.15));
  strat::SwapStrategy swap{swp::greedy_policy()};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cfg.seed = seed;
    cfg.spare_count = 4;
    const auto small = core::run_single(cfg, model, swap);
    cfg.spare_count = 20;
    const auto big = core::run_single(cfg, model, swap);
    ASSERT_TRUE(small.finished && big.finished);
    EXPECT_LT(big.makespan_s, 1.2 * small.makespan_s) << "seed " << seed;
  }
}
