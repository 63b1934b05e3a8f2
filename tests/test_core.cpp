// Tests for the experiment runner: determinism, trial statistics, reports,
// and the parallel trial engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <sstream>
#include <vector>

#include "core/experiment.hpp"
#include "core/trial_runner.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "obs/metrics.hpp"
#include "strategy/schedule.hpp"
#include "swap/policy.hpp"

namespace core = simsweep::core;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace app = simsweep::app;

namespace {

core::ExperimentConfig small_config() {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 8;
  cfg.app = app::AppSpec::with_iteration_minutes(/*active=*/2, /*iterations=*/5,
                                                 /*minutes=*/1.0);
  cfg.app.comm_bytes_per_process = 10.0 * app::kKiB;
  cfg.app.state_bytes_per_process = app::kMiB;
  cfg.spare_count = 2;
  cfg.seed = 42;
  return cfg;
}

/// A strategy whose boundary hook never resumes: after the first iteration
/// the simulation goes idle with the application unfinished (a deadlock).
class StallingStrategy final : public strat::Strategy {
 public:
  [[nodiscard]] std::string name() const override { return "STALL"; }
  [[nodiscard]] std::unique_ptr<strat::IterativeExecution> launch(
      strat::StrategyContext& ctx) override {
    auto alloc = strat::pick_allocation(ctx.cluster, ctx.spec.active_processes,
                                        0, ctx.initial_schedule);
    auto exec = std::make_unique<strat::IterativeExecution>(
        ctx.simulator, ctx.cluster, ctx.network, ctx.spec, alloc.active,
        app::WorkPartition::equal(ctx.spec.active_processes),
        [](strat::IterativeExecution&, std::function<void()>) {
          // Drop `resume`: the run can never continue.
        });
    exec->start(0.0);
    return exec;
  }
};

/// Summary statistics of `trials` trials fanned out over `jobs` executors.
core::TrialStats trial_stats(const core::ExperimentConfig& cfg,
                            const load::LoadModel& model,
                            strat::Strategy& strategy, std::size_t trials,
                            std::size_t jobs = 1) {
  return core::reduce_trials(
      core::run_trials_results(cfg, model, strategy, trials, jobs));
}

}  // namespace

TEST(RunSingle, DeterministicForSameSeed) {
  const auto cfg = small_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  strat::NoneStrategy none;
  const auto a = core::run_single(cfg, model, none);
  const auto b = core::run_single(cfg, model, none);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.iteration_times_s, b.iteration_times_s);
}

TEST(RunSingle, DifferentSeedsDiffer) {
  auto cfg = small_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.5));
  strat::NoneStrategy none;
  const auto a = core::run_single(cfg, model, none);
  cfg.seed = 43;
  const auto b = core::run_single(cfg, model, none);
  EXPECT_NE(a.makespan_s, b.makespan_s);
}

TEST(RunSingle, QuiescentMakespanIsAnalytic) {
  auto cfg = small_config();
  cfg.cluster.explicit_speeds.assign(8, 300.0e6);
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  const auto r = core::run_single(cfg, quiet, none);
  EXPECT_TRUE(r.finished);
  // Startup 2 * 0.75 s + 5 iterations of (60 s compute + comm).
  const double comm = 2.0 * 10.0 * app::kKiB / 6.0e6 + 1e-4;
  EXPECT_NEAR(r.makespan_s, 1.5 + 5.0 * (60.0 + comm), 1e-6);
}

TEST(RunSingle, SwapNeverWorseThanNoneWhenQuiet) {
  auto cfg = small_config();
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  strat::SwapStrategy swap{simsweep::swap::greedy_policy()};
  const auto rn = core::run_single(cfg, quiet, none);
  const auto rs = core::run_single(cfg, quiet, swap);
  // Same compute; SWAP pays only the extra over-allocation startup.
  EXPECT_NEAR(rs.makespan_s - rn.makespan_s,
              0.75 * static_cast<double>(cfg.spare_count), 1e-9);
  EXPECT_EQ(rs.adaptations, 0u);
}

TEST(RunSingle, HorizonCapsRunaways) {
  auto cfg = small_config();
  cfg.horizon_s = 10.0;  // far less than one iteration
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  const auto r = core::run_single(cfg, quiet, none);
  EXPECT_FALSE(r.finished);
  EXPECT_DOUBLE_EQ(r.makespan_s, 10.0);
}

namespace {

/// Ends `strategy`'s run at a horizon that falls while a state transfer is
/// in flight and checks the horizon outcome.  200 MB of state takes about
/// 35 s per transfer on the 6 MB/s link.  With no
/// per-iteration communication every flow is a state transfer, so more
/// flows started than finished means one was cut off.  The execution that
/// owned the run is gone once run_single returns, so under LeakSanitizer a
/// transfer that keeps its run alive fails the test at exit.
void expect_horizon_cuts_a_transfer(strat::Strategy& strategy) {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 16;
  cfg.app = app::AppSpec::with_iteration_minutes(/*active=*/4,
                                                 /*iterations=*/100,
                                                 /*minutes=*/1.0);
  cfg.app.comm_bytes_per_process = 0.0;
  cfg.app.state_bytes_per_process = 200.0 * app::kMiB;
  cfg.spare_count = 12;
  cfg.horizon_s = 1800.0;
  cfg.obs.metrics = true;
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  const auto r = core::run_single(cfg, model, strategy);
  EXPECT_FALSE(r.finished);
  EXPECT_EQ(r.makespan_s, cfg.horizon_s);
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_GT(r.metrics->counter_value("net.flows_started"),
            r.metrics->counter_value("net.flows_completed"));
}

}  // namespace

TEST(RunSingle, SwapCutOffMidTransferReleasesItsRun) {
  strat::SwapStrategy swap{simsweep::swap::greedy_policy()};
  expect_horizon_cuts_a_transfer(swap);
}

TEST(RunSingle, CrCutOffMidCheckpointReleasesItsRun) {
  strat::CrStrategy cr{simsweep::swap::greedy_policy()};
  expect_horizon_cuts_a_transfer(cr);
}

TEST(RunTrials, StatisticsAreConsistent) {
  auto cfg = small_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.4));
  strat::NoneStrategy none;
  const auto stats = trial_stats(cfg, model, none, 5);
  EXPECT_EQ(stats.trials, 5u);
  EXPECT_LE(stats.min, stats.mean);
  EXPECT_LE(stats.mean, stats.max);
  EXPECT_GE(stats.stddev, 0.0);
  EXPECT_EQ(stats.unfinished, 0u);
}

TEST(RunTrials, MeanOfConstantRunsHasZeroStddev) {
  auto cfg = small_config();
  cfg.cluster.explicit_speeds.assign(8, 300.0e6);
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  const auto stats = trial_stats(cfg, quiet, none, 3);
  EXPECT_NEAR(stats.stddev, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min, stats.max);
}

TEST(RunTrials, RejectsZeroTrials) {
  auto cfg = small_config();
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  EXPECT_THROW((void)trial_stats(cfg, quiet, none, 0),
               std::invalid_argument);
}

TEST(RunTrialsParallel, RejectsZeroTrials) {
  auto cfg = small_config();
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  EXPECT_THROW((void)trial_stats(cfg, quiet, none, 0, /*jobs=*/2),
               std::invalid_argument);
}

TEST(RunTrials, RejectsMoreTrialsThanResultsCanHold) {
  auto cfg = small_config();
  load::ConstantModel quiet(0);
  strat::NoneStrategy none;
  const std::size_t too_many = std::vector<strat::RunResult>().max_size() + 1;
  try {
    (void)core::run_trials_results(cfg, quiet, none, too_many);
    FAIL() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trial count " +
                                         std::to_string(too_many)),
              std::string::npos)
        << e.what();
  }
}

TEST(RunSingle, StalledRunIsDistinguishedFromHorizonTimeout) {
  auto cfg = small_config();
  load::ConstantModel quiet(0);
  StallingStrategy stall;
  const auto r = core::run_single(cfg, quiet, stall);
  EXPECT_FALSE(r.finished);
  EXPECT_TRUE(r.stalled);
  EXPECT_LT(r.makespan_s, cfg.horizon_s);

  // A genuine horizon timeout is NOT a stall.
  cfg.horizon_s = 10.0;
  strat::NoneStrategy none;
  const auto slow = core::run_single(cfg, quiet, none);
  EXPECT_FALSE(slow.finished);
  EXPECT_FALSE(slow.stalled);
}

TEST(RunTrials, CountsStalledRuns) {
  auto cfg = small_config();
  load::ConstantModel quiet(0);
  StallingStrategy stall;
  const auto stats = trial_stats(cfg, quiet, stall, 3);
  EXPECT_EQ(stats.stalled, 3u);
  EXPECT_EQ(stats.unfinished, 3u);
}

TEST(ReduceTrials, WelfordSurvivesHugeMakespans) {
  // Makespans near 1e9 with sub-second spread: the naive sum_sq/n - mean^2
  // form loses every digit of the variance to cancellation (1e18-magnitude
  // intermediates), reporting stddev 0 or garbage.  Welford keeps it exact.
  std::vector<strat::RunResult> results(3);
  results[0].makespan_s = 1.0e9;
  results[1].makespan_s = 1.0e9 + 0.25;
  results[2].makespan_s = 1.0e9 + 0.5;
  for (auto& r : results) r.finished = true;
  const auto stats = core::reduce_trials(results);
  EXPECT_DOUBLE_EQ(stats.mean, 1.0e9 + 0.25);
  // Population variance of {0, 0.25, 0.5} about 0.25 = 0.0416666..
  EXPECT_NEAR(stats.stddev, std::sqrt(0.125 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(stats.min, 1.0e9);
  EXPECT_DOUBLE_EQ(stats.max, 1.0e9 + 0.5);
}

TEST(ReduceTrials, RejectsEmptyInput) {
  EXPECT_THROW((void)core::reduce_trials({}), std::invalid_argument);
}

TEST(RunTrials, ParallelBitwiseIdenticalToSerial) {
  auto cfg = small_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.4));
  strat::SwapStrategy swap{simsweep::swap::greedy_policy()};
  const auto serial = trial_stats(cfg, model, swap, 6);
  const auto parallel = trial_stats(cfg, model, swap, 6, /*jobs=*/4);
  // EXPECT_EQ on doubles is exact comparison: bitwise-identical results.
  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.stddev, parallel.stddev);
  EXPECT_EQ(serial.min, parallel.min);
  EXPECT_EQ(serial.max, parallel.max);
  EXPECT_EQ(serial.trials, parallel.trials);
  EXPECT_EQ(serial.unfinished, parallel.unfinished);
  EXPECT_EQ(serial.stalled, parallel.stalled);
  EXPECT_EQ(serial.mean_adaptations, parallel.mean_adaptations);
}

TEST(RunTrials, SharedPoolPathMatchesSerial) {
  auto cfg = small_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  strat::NoneStrategy none;
  const auto serial = trial_stats(cfg, model, none, 4);
  const auto pooled = trial_stats(cfg, model, none, 4, /*jobs=*/0);
  EXPECT_EQ(serial.mean, pooled.mean);
  EXPECT_EQ(serial.stddev, pooled.stddev);
}

TEST(TrialRunner, CoversEveryIndexExactlyOnce) {
  core::TrialRunner runner(4);
  EXPECT_EQ(runner.parallelism(), 4u);
  std::vector<std::atomic<int>> hits(257);
  runner.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TrialRunner, NestedParallelForDoesNotDeadlock) {
  core::TrialRunner runner(2);
  std::atomic<int> total{0};
  runner.parallel_for(4, [&](std::size_t) {
    runner.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(TrialRunner, PropagatesFirstException) {
  core::TrialRunner runner(3);
  EXPECT_THROW(runner.parallel_for(16,
                                   [](std::size_t i) {
                                     if (i % 2 == 1)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
}

TEST(TrialRunner, FirstExceptionCancelsUnclaimedWork) {
  core::TrialRunner runner(4);
  // Every task throws immediately; once the first failure lands, all
  // still-unclaimed indices must be skipped, so with 4 threads racing over
  // 10'000 one-shot tasks only a small prefix can ever start.
  std::atomic<int> executed{0};
  EXPECT_THROW(runner.parallel_for(10'000,
                                   [&](std::size_t) {
                                     executed.fetch_add(1);
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_LT(executed.load(), 5'000);
}

TEST(TrialRunner, InlineRunnerCancelsAfterFirstThrow) {
  core::TrialRunner runner(1);
  // Single-threaded: deterministic — exactly one body runs, the rest are
  // cancelled before being claimed.
  int executed = 0;
  EXPECT_THROW(runner.parallel_for(100,
                                   [&](std::size_t) {
                                     ++executed;
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_EQ(executed, 1);
}

TEST(TrialRunner, ParallelismOneRunsInline) {
  core::TrialRunner runner(1);
  EXPECT_EQ(runner.parallelism(), 1u);
  int count = 0;  // no synchronization: everything runs on this thread
  runner.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 10);
}

TEST(TrialStats, PrintsJson) {
  core::TrialStats stats;
  stats.mean = 123.5;
  stats.stddev = 4.25;
  stats.min = 100.0;
  stats.max = 150.0;
  stats.trials = 8;
  stats.unfinished = 1;
  stats.stalled = 1;
  stats.mean_adaptations = 2.5;
  stats.resource_exhausted = 1;
  stats.mean_crashes = 1.5;
  stats.mean_transfer_failures = 3;
  stats.mean_recoveries = 1.25;
  stats.mean_checkpoint_failures = 0.5;
  stats.mean_time_lost_s = 42;
  stats.audit_violations = 2;
  std::ostringstream os;
  stats.print_json(os);
  EXPECT_EQ(os.str(),
            "{\"mean\":123.5,\"stddev\":4.25,\"min\":100,\"max\":150,"
            "\"trials\":8,\"unfinished\":1,\"stalled\":1,"
            "\"resource_exhausted\":1,\"mean_adaptations\":2.5,"
            "\"mean_crashes\":1.5,\"mean_transfer_failures\":3,"
            "\"mean_recoveries\":1.25,\"mean_checkpoint_failures\":0.5,"
            "\"mean_time_lost_s\":42,\"audit_violations\":2}");
}

TEST(SeriesReport, PrintsJson) {
  core::SeriesReport rep;
  rep.title = "demo \"quoted\"";
  rep.x_label = "x";
  rep.x = {0.1, 0.2};
  rep.series.push_back({"NONE", {100.0, 200.0}, {0.0, 0.0}});
  std::ostringstream os;
  rep.print_json(os);
  EXPECT_EQ(os.str(),
            "{\"title\":\"demo \\\"quoted\\\"\",\"x_label\":\"x\","
            "\"x\":[0.1,0.2],\"series\":[{\"name\":\"NONE\","
            "\"mean_makespan_s\":[100,200],\"mean_adaptations\":[0,0]}]}");
}

TEST(SeriesReport, PrintsTableAndCsv) {
  core::SeriesReport rep;
  rep.title = "demo";
  rep.x_label = "x";
  rep.x = {0.1, 0.2};
  rep.series.push_back({"NONE", {100.0, 200.0}, {0.0, 0.0}});
  rep.series.push_back({"SWAP", {90.0, 150.0}, {1.0, 2.0}});
  std::ostringstream table, csv;
  rep.print_table(table);
  rep.print_csv(csv);
  EXPECT_NE(table.str().find("NONE"), std::string::npos);
  EXPECT_NE(table.str().find("demo"), std::string::npos);
  EXPECT_EQ(csv.str().rfind("x,NONE,SWAP\n", 0), 0u);
  EXPECT_NE(csv.str().find("0.2,200,150"), std::string::npos);
}
