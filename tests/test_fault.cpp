// Fault-injection subsystem tests: deterministic schedules, crash
// semantics, failure accounting, per-technique termination under faults,
// and serial/parallel identity of failure histories.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "app/app_spec.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "load/onoff.hpp"
#include "net/shared_link.hpp"
#include "platform/cluster.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "strategy/executor.hpp"
#include "strategy/strategy.hpp"
#include "swap/policy.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace net = simsweep::net;
namespace app = simsweep::app;
namespace core = simsweep::core;
namespace load = simsweep::load;
namespace strat = simsweep::strategy;
namespace fault = simsweep::fault;
namespace swp = simsweep::swap;

namespace {

fault::FaultSpec crashy_spec(double mtbf_s) {
  fault::FaultSpec spec;
  spec.host_mtbf_s = mtbf_s;
  return spec;
}

core::ExperimentConfig faulty_config() {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 8;
  cfg.app = app::AppSpec::with_iteration_minutes(/*active=*/2,
                                                 /*iterations=*/8,
                                                 /*minutes=*/1.0);
  cfg.app.comm_bytes_per_process = 10.0 * app::kKiB;
  cfg.app.state_bytes_per_process = app::kMiB;
  cfg.spare_count = 4;
  cfg.seed = 7;
  // Hosts die every few simulated hours; a short horizon keeps the worst
  // case (everything dead, techniques that keep recomputing) fast.
  cfg.faults.host_mtbf_s = 4.0 * 3600.0;
  cfg.faults.swap_fail_prob = 0.2;
  cfg.faults.checkpoint_fail_prob = 0.2;
  cfg.horizon_s = 48.0 * 3600.0;
  return cfg;
}

/// Crashes in `cfg`'s fault plan (run_single derives it from stream 2 of
/// the trial seed) at or before `t`, and in total.
std::pair<std::size_t, std::size_t> planned_crashes(
    const core::ExperimentConfig& cfg, double t) {
  const auto plan = fault::FaultPlan::generate(
      cfg.faults, cfg.cluster.host_count, sim::derive_seed(cfg.seed, 2),
      cfg.horizon_s);
  std::size_t until = 0;
  for (const auto& crash : plan.crashes())
    if (crash.time_s <= t) ++until;
  return {until, plan.crashes().size()};
}

std::vector<std::unique_ptr<strat::Strategy>> all_techniques() {
  std::vector<std::unique_ptr<strat::Strategy>> out;
  out.push_back(std::make_unique<strat::NoneStrategy>());
  out.push_back(std::make_unique<strat::SwapStrategy>(swp::greedy_policy()));
  out.push_back(std::make_unique<strat::DlbStrategy>());
  out.push_back(std::make_unique<strat::CrStrategy>(swp::greedy_policy()));
  return out;
}

}  // namespace

TEST(FaultSpec, ValidateRejectsBadValues) {
  fault::FaultSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.host_mtbf_s = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.swap_fail_prob = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.checkpoint_fail_prob = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.retry_backoff_s = -2.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.blacklist_after = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(FaultSpec, EnabledFlags) {
  fault::FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(spec.crashes_enabled());
  spec.host_mtbf_s = 100.0;
  EXPECT_TRUE(spec.enabled());
  EXPECT_TRUE(spec.crashes_enabled());
  spec = {};
  spec.swap_fail_prob = 0.5;
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(spec.crashes_enabled());
  spec = {};
  spec.checkpoint_fail_prob = 0.5;
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultPlan, DeterministicForSameSeed) {
  const auto spec = crashy_spec(3600.0);
  const auto a = fault::FaultPlan::generate(spec, 16, 99, 24 * 3600.0);
  const auto b = fault::FaultPlan::generate(spec, 16, 99, 24 * 3600.0);
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  EXPECT_FALSE(a.crashes().empty());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].host, b.crashes()[i].host);
    EXPECT_DOUBLE_EQ(a.crashes()[i].time_s, b.crashes()[i].time_s);
  }
}

TEST(FaultPlan, SortedAndWithinHorizon) {
  const auto plan =
      fault::FaultPlan::generate(crashy_spec(1800.0), 32, 5, 12 * 3600.0);
  double last = 0.0;
  for (const auto& crash : plan.crashes()) {
    EXPECT_GE(crash.time_s, last);
    EXPECT_LT(crash.time_s, 12 * 3600.0);
    EXPECT_LT(crash.host, 32u);
    last = crash.time_s;
  }
}

TEST(FaultPlan, PerHostStreamsIndependentOfClusterSize) {
  // Host h's crash time derives from (seed, h) alone, so growing the
  // cluster must not perturb the schedules of existing hosts.
  const auto spec = crashy_spec(3600.0);
  const auto small = fault::FaultPlan::generate(spec, 8, 21, 48 * 3600.0);
  const auto big = fault::FaultPlan::generate(spec, 16, 21, 48 * 3600.0);
  for (const auto& crash : small.crashes()) {
    bool found = false;
    for (const auto& other : big.crashes())
      if (other.host == crash.host && other.time_s == crash.time_s)
        found = true;
    EXPECT_TRUE(found) << "host " << crash.host << " schedule changed";
  }
}

TEST(FaultPlan, DisabledSpecIsEmpty) {
  const auto plan =
      fault::FaultPlan::generate(fault::FaultSpec{}, 32, 1, 1e9);
  EXPECT_TRUE(plan.crashes().empty());
}

TEST(FaultInjector, RetryBackoffDoublesAndCaps) {
  sim::Simulator simulator;
  sim::Rng rng(1);
  pf::ClusterSpec cspec;
  cspec.host_count = 2;
  pf::Cluster cluster(simulator, cspec, rng);
  fault::FaultSpec spec;
  spec.swap_fail_prob = 0.5;
  spec.retry_backoff_s = 2.0;
  spec.retry_backoff_cap_s = 10.0;
  fault::FaultInjector injector(simulator, cluster, spec, 3, 1e6);
  EXPECT_DOUBLE_EQ(injector.retry_backoff(0), 2.0);
  EXPECT_DOUBLE_EQ(injector.retry_backoff(1), 4.0);
  EXPECT_DOUBLE_EQ(injector.retry_backoff(2), 8.0);
  EXPECT_DOUBLE_EQ(injector.retry_backoff(3), 10.0);
  EXPECT_DOUBLE_EQ(injector.retry_backoff(20), 10.0);
}

TEST(FaultInjector, ArmCrashesHostsAndFiresListeners) {
  sim::Simulator simulator;
  sim::Rng rng(1);
  pf::ClusterSpec cspec;
  cspec.host_count = 4;
  pf::Cluster cluster(simulator, cspec, rng);
  fault::FaultInjector injector(simulator, cluster, crashy_spec(3600.0), 11,
                                /*horizon_s=*/48 * 3600.0);
  ASSERT_FALSE(injector.plan().crashes().empty());
  std::vector<pf::HostId> seen;
  injector.on_crash([&](pf::HostId h) { seen.push_back(h); });
  injector.arm();
  simulator.run_until(48 * 3600.0);
  EXPECT_EQ(injector.crashes_injected(), injector.plan().crashes().size());
  ASSERT_EQ(seen.size(), injector.plan().crashes().size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], injector.plan().crashes()[i].host);
    EXPECT_TRUE(cluster.host(seen[i]).crashed());
    EXPECT_FALSE(cluster.host(seen[i]).online());
  }
}

TEST(HostCrash, CrashedHostNeverComesBack) {
  sim::Simulator simulator;
  pf::Host host(simulator, 0, 100.0e6, "h");
  EXPECT_TRUE(host.online());
  host.set_crashed();
  EXPECT_TRUE(host.crashed());
  EXPECT_FALSE(host.online());
  host.set_online(true);  // load models keep toggling; must be a no-op
  EXPECT_FALSE(host.online());
}

TEST(Simulator, EventBudgetThrows) {
  sim::Simulator simulator;
  simulator.set_event_budget(10);
  std::function<void()> tick = [&] { simulator.after(1.0, tick); };
  simulator.after(1.0, tick);
  EXPECT_THROW(simulator.run_until(1e9), sim::EventBudgetExceeded);
}

TEST(Executor, RollbackToIterationRestoresAccounting) {
  sim::Simulator simulator;
  sim::Rng rng(1);
  pf::ClusterSpec cspec;
  cspec.host_count = 2;
  cspec.explicit_speeds = {100.0, 100.0};
  cspec.startup_per_process_s = 0.0;
  pf::Cluster cluster(simulator, cspec, rng);
  net::SharedLinkNetwork network(simulator, cspec.link);
  app::AppSpec aspec;
  aspec.active_processes = 2;
  aspec.iterations = 6;
  aspec.work_per_iteration_flops = 100.0;
  aspec.comm_bytes_per_process = 0.0;
  bool rolled_back = false;
  strat::IterativeExecution exec(
      simulator, cluster, network, aspec, {0, 1},
      app::WorkPartition::equal(2),
      [&](strat::IterativeExecution& e, std::function<void()> resume) {
        if (e.iteration() == 3 && !rolled_back) {
          rolled_back = true;
          const auto before = e.result().iteration_times_s;
          e.rollback_to_iteration(1);
          EXPECT_EQ(e.result().iterations_completed, 1u);
          EXPECT_EQ(e.result().iteration_times_s.size(), 1u);
          EXPECT_EQ(e.result().failures.iterations_recomputed, 2u);
          EXPECT_DOUBLE_EQ(e.result().failures.time_lost_s,
                           before[1] + before[2]);
          EXPECT_THROW(e.rollback_to_iteration(5), std::invalid_argument);
        }
        resume();
      });
  exec.start(0.0);
  simulator.run_until(1e9);
  EXPECT_TRUE(rolled_back);
  EXPECT_TRUE(exec.done());
  // The two rolled-back iterations were recomputed.
  EXPECT_EQ(exec.result().iterations_completed, 6u);
  EXPECT_EQ(exec.result().iteration_times_s.size(), 6u);
}

TEST(FaultRuns, DisabledSpecLeavesRunsUntouched) {
  core::ExperimentConfig cfg = faulty_config();
  cfg.faults = {};  // no faults at all
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  strat::NoneStrategy none;
  const auto r = core::run_single(cfg, model, none);
  EXPECT_TRUE(r.finished);
  EXPECT_FALSE(r.resource_exhausted);
  EXPECT_EQ(r.failures, strat::FailureStats{});
}

TEST(FaultRuns, HugeMtbfMatchesNoFaultRun) {
  // MTBF -> infinity: the injector exists but never fires and never
  // perturbs any other random stream, so the run is bitwise identical to
  // the fault-free path.
  core::ExperimentConfig cfg = faulty_config();
  cfg.faults = {};
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  auto techniques = all_techniques();
  for (auto& technique : techniques) {
    auto base_cfg = cfg;
    const auto base = core::run_single(base_cfg, model, *technique);
    auto huge = cfg;
    huge.faults.host_mtbf_s = 1e18;  // first crash far beyond any horizon
    const auto faulty = core::run_single(huge, model, *technique);
    EXPECT_DOUBLE_EQ(base.makespan_s, faulty.makespan_s)
        << technique->name();
    EXPECT_EQ(base.iteration_times_s, faulty.iteration_times_s)
        << technique->name();
    EXPECT_EQ(faulty.failures, strat::FailureStats{}) << technique->name();
  }
}

TEST(FaultRuns, IdenticalSeedIdenticalFailureHistory) {
  const auto cfg = faulty_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  auto a_techniques = all_techniques();
  auto b_techniques = all_techniques();
  for (std::size_t i = 0; i < a_techniques.size(); ++i) {
    const auto a = core::run_single(cfg, model, *a_techniques[i]);
    const auto b = core::run_single(cfg, model, *b_techniques[i]);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << a_techniques[i]->name();
    EXPECT_EQ(a.iteration_times_s, b.iteration_times_s)
        << a_techniques[i]->name();
    EXPECT_EQ(a.failures, b.failures) << a_techniques[i]->name();
    EXPECT_EQ(a.resource_exhausted, b.resource_exhausted)
        << a_techniques[i]->name();
  }
}

TEST(FaultRuns, EveryTechniqueTerminatesUnderHeavyFaults) {
  // Hosts die fast enough that most runs see several crashes.  Every
  // technique must terminate: complete, give up diagnosably on spare
  // exhaustion, or run out the (short) horizon — never deadlock the
  // simulated application silently and never spin the simulator.
  auto cfg = faulty_config();
  cfg.faults.host_mtbf_s = 2.0 * 3600.0;
  load::OnOffModel model(load::OnOffParams::dynamism(0.2));
  auto techniques = all_techniques();
  for (auto& technique : techniques) {
    const auto r = core::run_single(cfg, model, *technique);
    EXPECT_TRUE(r.finished || r.stalled || r.makespan_s >= cfg.horizon_s)
        << technique->name() << " neither finished nor diagnosed";
    if (r.stalled && !r.finished) {
      // The only sanctioned stall is diagnosed resource exhaustion.
      EXPECT_TRUE(r.resource_exhausted) << technique->name();
    }
  }
}

TEST(FaultRuns, SpareExhaustionIsDiagnosedNotDeadlocked) {
  // 2 hosts, 2 active, no spares: the first crash is unrecoverable for
  // every technique.  The run must stop with resource_exhausted.
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 2;
  cfg.app = app::AppSpec::with_iteration_minutes(2, 50, 5.0);
  cfg.app.comm_bytes_per_process = 10.0 * app::kKiB;
  cfg.app.state_bytes_per_process = app::kMiB;
  cfg.spare_count = 0;
  cfg.seed = 3;
  cfg.faults.host_mtbf_s = 1800.0;  // ~first crash well before 250 min
  cfg.horizon_s = 48.0 * 3600.0;
  load::OnOffModel model(load::OnOffParams::dynamism(0.1));
  auto techniques = all_techniques();
  for (auto& technique : techniques) {
    const auto r = core::run_single(cfg, model, *technique);
    ASSERT_GT(r.failures.host_crashes, 0u) << technique->name();
    EXPECT_FALSE(r.finished) << technique->name();
    EXPECT_TRUE(r.resource_exhausted) << technique->name();
    EXPECT_TRUE(r.stalled) << technique->name();
  }
}

TEST(FaultRuns, FinishedRunCountsOnlyTheCrashesBeforeCompletion) {
  // The injector keeps crashing hosts after the application finishes; the
  // run counts the crashes up to its completion, mid-run ones included.
  auto cfg = faulty_config();
  cfg.app = app::AppSpec::with_iteration_minutes(2, 60, 1.0);
  cfg.seed = 3;
  load::OnOffModel model(load::OnOffParams::dynamism(0.2));
  auto techniques = all_techniques();
  for (auto& technique : techniques) {
    const auto r = core::run_single(cfg, model, *technique);
    ASSERT_TRUE(r.finished) << technique->name();
    const auto [before, total] = planned_crashes(cfg, r.makespan_s);
    EXPECT_GT(before, 0u) << technique->name();
    EXPECT_LT(before, total) << technique->name();
    EXPECT_EQ(r.failures.host_crashes, before) << technique->name();
  }
}

TEST(FaultRuns, ExhaustedRunStopsCountingCrashesAtGiveUp) {
  // 4 hosts, 2 active, no spares: crashes on the active hosts end every
  // technique's run long before the horizon, and the idle hosts keep
  // crashing after it.
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 4;
  cfg.app = app::AppSpec::with_iteration_minutes(2, 50, 5.0);
  cfg.spare_count = 0;
  cfg.seed = 3;
  cfg.faults.host_mtbf_s = 1800.0;
  cfg.horizon_s = 48.0 * 3600.0;
  load::OnOffModel model(load::OnOffParams::dynamism(0.1));
  auto techniques = all_techniques();
  for (auto& technique : techniques) {
    const auto r = core::run_single(cfg, model, *technique);
    ASSERT_TRUE(r.resource_exhausted) << technique->name();
    const auto [until_give_up, total] = planned_crashes(cfg, r.makespan_s);
    EXPECT_EQ(r.failures.host_crashes, until_give_up) << technique->name();
    EXPECT_LT(r.failures.host_crashes, total) << technique->name();
  }
}

TEST(FaultRuns, CertainTransferFailureStillTerminates) {
  // Every transfer attempt fails: swaps are abandoned after the retry
  // budget and repeat offenders are blacklisted, but the application
  // itself (which needs no transfers) still completes.
  auto cfg = faulty_config();
  cfg.faults.host_mtbf_s = 0.0;
  cfg.faults.swap_fail_prob = 1.0;
  cfg.faults.max_transfer_retries = 1;
  cfg.faults.blacklist_after = 2;
  load::OnOffModel model(load::OnOffParams::dynamism(0.5));
  strat::SwapStrategy swap(swp::greedy_policy());
  const auto r = core::run_single(cfg, model, swap);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.adaptations, 0u);  // no swap ever completed
  if (r.failures.transfers_failed > 0) {
    EXPECT_GT(r.failures.transfers_abandoned, 0u);
    EXPECT_GT(r.failures.time_lost_s, 0.0);
  }
}

TEST(FaultRuns, SerialAndParallelTrialsIdentical) {
  const auto cfg = faulty_config();
  load::OnOffModel model(load::OnOffParams::dynamism(0.3));
  auto techniques = all_techniques();
  for (auto& technique : techniques) {
    const auto serial = core::reduce_trials(
        core::run_trials_results(cfg, model, *technique, 6));
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
      const auto parallel = core::reduce_trials(
          core::run_trials_results(cfg, model, *technique, 6, jobs));
      EXPECT_DOUBLE_EQ(serial.mean, parallel.mean)
          << technique->name() << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(serial.stddev, parallel.stddev)
          << technique->name() << " jobs=" << jobs;
      EXPECT_EQ(serial.unfinished, parallel.unfinished)
          << technique->name() << " jobs=" << jobs;
      EXPECT_EQ(serial.resource_exhausted, parallel.resource_exhausted)
          << technique->name() << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(serial.mean_crashes, parallel.mean_crashes)
          << technique->name() << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(serial.mean_transfer_failures,
                       parallel.mean_transfer_failures)
          << technique->name() << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(serial.mean_recoveries, parallel.mean_recoveries)
          << technique->name() << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(serial.mean_checkpoint_failures,
                       parallel.mean_checkpoint_failures)
          << technique->name() << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(serial.mean_time_lost_s, parallel.mean_time_lost_s)
          << technique->name() << " jobs=" << jobs;
    }
  }
}

TEST(FaultRuns, CrRecoversThroughCheckpoints) {
  // CR with crashes and flaky checkpoint writes: the run should either
  // finish (recovering through its checkpoints) or diagnose exhaustion;
  // when crashes hit mid-run, recoveries and recomputed iterations show up
  // in the accounting.
  auto cfg = faulty_config();
  cfg.faults.host_mtbf_s = 3.0 * 3600.0;
  load::OnOffModel model(load::OnOffParams::dynamism(0.2));
  strat::CrStrategy cr(swp::greedy_policy());
  const auto r = core::run_single(cfg, model, cr);
  EXPECT_TRUE(r.finished || r.resource_exhausted ||
              r.makespan_s >= cfg.horizon_s);
  if (r.failures.crash_recoveries > 0) {
    EXPECT_GT(r.failures.time_lost_s, 0.0);
  }
}
