// Tests for owner reclamation: host offline semantics, the reclamation load
// model, and the eviction-aware SWAP strategy (the paper's Condor-style
// combination).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "load/misc_models.hpp"
#include "load/reclamation.hpp"
#include "strategy/estimator.hpp"
#include "strategy/strategy.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace core = simsweep::core;
namespace app = simsweep::app;

TEST(HostOffline, AvailabilityDropsToZero) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.set_external_load(1);
  h.set_online(false);
  EXPECT_DOUBLE_EQ(h.availability(), 0.0);
  EXPECT_DOUBLE_EQ(h.effective_speed(), 0.0);
  EXPECT_FALSE(h.online());
  h.set_online(true);
  EXPECT_DOUBLE_EQ(h.availability(), 0.5);  // competitor count preserved
}

TEST(HostOffline, TasksStallAndResume) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  double done_at = -1.0;
  auto task = h.start_compute(200.0, [&] { done_at = s.now(); });
  (void)s.after(1.0, [&] { h.set_online(false); });
  (void)s.after(4.0, [&] { h.set_online(true); });
  s.run();
  // 100 flop in [0,1], stalled in [1,4], remaining 100 in [4,5].
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(HostOffline, HistoryMarksOutagesAndMeanAvailabilityCounts) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  (void)s.after(2.0, [&] { h.set_online(false); });
  (void)s.after(6.0, [&] { h.set_online(true); });
  (void)s.after(8.0, [] {});
  s.run();
  // [0,2) avail 1, [2,6) avail 0, [6,8) avail 1 -> mean 0.5.
  EXPECT_DOUBLE_EQ(h.mean_availability(0.0, 8.0), 0.5);
  bool saw_marker = false;
  for (const sim::Sample& sample : h.load_history())
    if (sample.value == pf::Host::kOfflineMarker) saw_marker = true;
  EXPECT_TRUE(saw_marker);
  EXPECT_DOUBLE_EQ(pf::Host::availability_of_sample(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(pf::Host::availability_of_sample(1.0), 0.5);
}

TEST(ReclamationModel, TogglesHostOnlineState) {
  load::ReclamationModel model(nullptr, load::ReclamationParams{
                                            .mean_available_s = 100.0,
                                            .mean_reclaimed_s = 100.0,
                                        });
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = model.make_source(3);
  src->start(s, h);
  s.run_until(5000.0);
  std::size_t outages = 0;
  for (const sim::Sample& sample : h.load_history())
    if (sample.value == pf::Host::kOfflineMarker) ++outages;
  EXPECT_GT(outages, 5u);
  // Mean availability near the 50 % duty cycle.
  EXPECT_NEAR(h.mean_availability(0.0, 5000.0), model.availability_fraction(),
              0.2);
}

TEST(ReclamationModel, ComposesWithBaseLoad) {
  auto base = std::make_shared<load::ConstantModel>(1);
  load::ReclamationModel model(base, load::ReclamationParams{
                                         .mean_available_s = 50.0,
                                         .mean_reclaimed_s = 50.0,
                                     });
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = model.make_source(4);
  src->start(s, h);
  s.run_until(2000.0);
  // While online the base competitor halves availability; offline zeroes it.
  EXPECT_LT(h.mean_availability(0.0, 2000.0), 0.5);
  EXPECT_GT(h.mean_availability(0.0, 2000.0), 0.1);
}

TEST(ReclamationModel, RejectsBadParams) {
  EXPECT_THROW(load::ReclamationModel(nullptr, {.mean_available_s = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(load::ReclamationModel(
                   nullptr, {.mean_available_s = 10.0, .mean_reclaimed_s = 0.0}),
               std::invalid_argument);
}

namespace {

core::ExperimentConfig reclaim_config() {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 8;
  cfg.cluster.explicit_speeds.assign(8, 300.0e6);
  cfg.app = app::AppSpec::with_iteration_minutes(2, 10, 1.0);
  cfg.app.comm_bytes_per_process = 0.0;
  cfg.app.state_bytes_per_process = app::kMiB;
  cfg.spare_count = 4;
  cfg.seed = 5;
  cfg.horizon_s = 40000.0;
  return cfg;
}

}  // namespace

TEST(EvictionGuard, RecoversFromReclaimedHost) {
  // Long reclamations relative to the run: without the guard the app stalls
  // through every outage; with it, stuck processes move to online spares.
  const auto cfg = reclaim_config();
  const load::ReclamationModel model(
      nullptr, {.mean_available_s = 600.0, .mean_reclaimed_s = 2000.0});

  strat::SwapStrategy plain{simsweep::swap::greedy_policy()};
  strat::SwapOptions guard_opts;
  guard_opts.eviction_guard = true;
  guard_opts.stall_factor = 2.0;
  strat::SwapStrategy guarded{simsweep::swap::greedy_policy(), guard_opts};

  const auto r_plain = core::run_single(cfg, model, plain);
  const auto r_guarded = core::run_single(cfg, model, guarded);
  EXPECT_TRUE(r_guarded.finished);
  EXPECT_LT(r_guarded.makespan_s, r_plain.makespan_s);
  EXPECT_GE(r_guarded.adaptations, 1u);
  // Aborted iterations are charged as overhead, so the makespan still
  // decomposes exactly.
  double iter_total = 0.0;
  for (double t : r_guarded.iteration_times_s) iter_total += t;
  EXPECT_NEAR(r_guarded.makespan_s,
              r_guarded.startup_s + iter_total +
                  r_guarded.adaptation_overhead_s,
              1e-6 * r_guarded.makespan_s);
}

TEST(EvictionGuard, NoOpOnHealthyPlatform) {
  auto cfg = reclaim_config();
  const load::ConstantModel quiet(0);
  strat::SwapOptions guard_opts;
  guard_opts.eviction_guard = true;
  guard_opts.stall_factor = 2.0;
  strat::SwapStrategy guarded{simsweep::swap::greedy_policy(), guard_opts};
  strat::SwapStrategy plain{simsweep::swap::greedy_policy()};
  const auto r_guarded = core::run_single(cfg, quiet, guarded);
  const auto r_plain = core::run_single(cfg, quiet, plain);
  EXPECT_DOUBLE_EQ(r_guarded.makespan_s, r_plain.makespan_s);
  EXPECT_EQ(r_guarded.adaptations, 0u);
}

TEST(ForecastEstimatorIntegration, SwapStrategyAcceptsCustomEstimator) {
  auto cfg = reclaim_config();
  const load::ConstantModel quiet(0);
  strat::SwapOptions options;
  options.estimator = strat::make_forecast_estimator(
      [] { return simsweep::forecast::make_default_ensemble(); },
      "nws_ensemble");
  strat::SwapStrategy s{simsweep::swap::greedy_policy(), options};
  const auto r = core::run_single(cfg, quiet, s);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.adaptations, 0u);  // quiet platform: nothing to do
}
