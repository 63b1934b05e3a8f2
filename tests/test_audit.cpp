// Tests for the invariant auditor: the registry itself, the per-subsystem
// instrumentation, and the system-wide guarantee that auditing is read-only
// (bitwise-identical results with auditing on or off, zero violations on
// every golden scenario).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "golden_scenarios.hpp"
#include "load/onoff.hpp"
#include "net/shared_link.hpp"
#include "platform/host.hpp"
#include "simcore/simulator.hpp"
#include "swampi/runtime.hpp"
#include "swampi/swap_ext.hpp"

namespace audit = simsweep::audit;
namespace sim = simsweep::sim;
namespace net = simsweep::net;
namespace pf = simsweep::platform;

// ------------------------------------------------------------ the registry

TEST(Auditor, OffModeIsDisabledAndDropsReports) {
  audit::InvariantAuditor a(audit::AuditMode::kOff);
  EXPECT_FALSE(a.enabled());
  a.report("test", "anything", 1.0, "ignored");
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Auditor, WarnModeCollectsViolationsWithContext) {
  audit::InvariantAuditor a(audit::AuditMode::kWarn);
  EXPECT_TRUE(a.enabled());
  a.report("net", "byte_conservation", 2.5, "lost 3 bytes");
  a.report("simcore", "virtual_time_monotonic", 7.0, "t went backwards");
  EXPECT_EQ(a.violation_count(), 2u);
  const auto violations = a.take_violations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].subsystem, "net");
  EXPECT_EQ(violations[0].invariant, "byte_conservation");
  EXPECT_DOUBLE_EQ(violations[0].time_s, 2.5);
  EXPECT_EQ(violations[0].detail, "lost 3 bytes");
  EXPECT_EQ(violations[1].subsystem, "simcore");
  // take_violations drains the report.
  EXPECT_EQ(a.violation_count(), 0u);
  EXPECT_TRUE(a.take_violations().empty());
}

TEST(Auditor, FailModeThrowsOnFirstViolation) {
  audit::InvariantAuditor a(audit::AuditMode::kFail);
  EXPECT_TRUE(a.enabled());
  try {
    a.report("swap", "history_time_ordered", 3.0, "sample behind tail");
    FAIL() << "report() in fail mode must throw";
  } catch (const audit::AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("swap"), std::string::npos);
    EXPECT_NE(what.find("history_time_ordered"), std::string::npos);
    EXPECT_NE(what.find("sample behind tail"), std::string::npos);
  }
}

TEST(Auditor, ParseModeCoversAllSpellings) {
  EXPECT_EQ(audit::parse_mode(""), audit::AuditMode::kFail);  // bare --audit
  EXPECT_EQ(audit::parse_mode("fail"), audit::AuditMode::kFail);
  EXPECT_EQ(audit::parse_mode("warn"), audit::AuditMode::kWarn);
  EXPECT_EQ(audit::parse_mode("off"), audit::AuditMode::kOff);
  EXPECT_THROW((void)audit::parse_mode("loud"), std::invalid_argument);
}

TEST(Auditor, ModeFromEnvironment) {
  const char* saved = std::getenv("SIMSWEEP_AUDIT");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("SIMSWEEP_AUDIT", "warn", 1);
  EXPECT_EQ(audit::mode_from_env(), audit::AuditMode::kWarn);
  ::setenv("SIMSWEEP_AUDIT", "fail", 1);
  EXPECT_EQ(audit::mode_from_env(), audit::AuditMode::kFail);
  ::unsetenv("SIMSWEEP_AUDIT");
  EXPECT_EQ(audit::mode_from_env(), audit::AuditMode::kOff);
  if (saved != nullptr) ::setenv("SIMSWEEP_AUDIT", restore.c_str(), 1);
}

// ----------------------------------------------- instrumented subsystems

TEST(AuditedSubsystems, SimulatorAndNetworkRunClean) {
  // A contended link with joins, a cancel and staggered completions walks
  // every audited path in simcore and net; a healthy run must be silent.
  audit::InvariantAuditor auditor(audit::AuditMode::kWarn);
  sim::Simulator s;
  s.set_auditor(&auditor);
  net::SharedLinkNetwork n(
      s, pf::LinkSpec{.latency_s = 0.1, .bandwidth_Bps = 100.0});
  std::vector<std::shared_ptr<net::Flow>> flows;
  for (int i = 0; i < 8; ++i)
    flows.push_back(n.start_transfer(100.0 + 10.0 * i, [] {}));
  (void)s.after(1.0, [&] { flows[7]->cancel(); });
  (void)s.after(2.0, [&] { flows.push_back(n.start_transfer(50.0, [] {})); });
  s.run();
  EXPECT_EQ(auditor.violation_count(), 0u)
      << audit::to_string(auditor.take_violations().front());
}

TEST(AuditedSubsystems, HostRunsClean) {
  // Two tasks sharing a CPU through load churn, a cancel and an offline
  // spell walk every accrual, re-rate and completion check in platform.
  audit::InvariantAuditor auditor(audit::AuditMode::kWarn);
  sim::Simulator s;
  s.set_auditor(&auditor);
  pf::Host h(s, 0, 100.0, "h");
  bool done = false;
  auto t1 = h.start_compute(500.0, [&] { done = true; });
  auto t2 = h.start_compute(400.0, [] {});
  for (int i = 1; i <= 6; ++i)
    (void)s.after(0.5 * i, [&h, i] { h.set_external_load(i % 3); });
  (void)s.after(2.0, [&] { t2->cancel(); });
  (void)s.after(4.0, [&] { h.set_online(false); });
  (void)s.after(5.0, [&] { h.set_online(true); });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(auditor.violation_count(), 0u)
      << audit::to_string(auditor.take_violations().front());
}

TEST(AuditedSubsystems, SwampiSwapPointRunsClean) {
  // Three ranks sharing one auditor across rank threads: a real swap (slow
  // active rank, fast spare) must leave the slot table a permutation, the
  // roles consistent and the state bytes conserved.
  audit::InvariantAuditor auditor(audit::AuditMode::kWarn);
  swampi::Runtime rt(3);
  rt.run([&auditor](swampi::Comm& world) {
    swampi::swapx::SwapConfig cfg;
    cfg.active_count = 2;
    cfg.auditor = &auditor;
    cfg.speed_probe = [&world] {
      return world.rank() == 1 ? 1.0 : 100.0;  // rank 1 slow, rank 2 fast
    };
    cfg.clock = [] { return 0.0; };
    swampi::swapx::SwapContext ctx(world, cfg);
    double payload = 42.0 + world.rank();
    ctx.register_value(payload);
    for (int i = 0; i < 3; ++i) (void)ctx.swap_point(10.0);
    EXPECT_GE(ctx.swaps_performed(), 1u);
  });
  EXPECT_EQ(auditor.violation_count(), 0u)
      << audit::to_string(auditor.take_violations().front());
}

// ------------------------------------------- system-wide golden guarantees

namespace {

void expect_bitwise_equal(const simsweep::strategy::RunResult& plain,
                          const simsweep::strategy::RunResult& audited,
                          const std::string& label) {
  EXPECT_EQ(plain.makespan_s, audited.makespan_s) << label;
  EXPECT_EQ(plain.iterations_completed, audited.iterations_completed) << label;
  EXPECT_EQ(plain.adaptations, audited.adaptations) << label;
  EXPECT_EQ(plain.adaptation_overhead_s, audited.adaptation_overhead_s)
      << label;
  EXPECT_EQ(plain.startup_s, audited.startup_s) << label;
  EXPECT_TRUE(plain.failures == audited.failures) << label;
  EXPECT_EQ(plain.finished, audited.finished) << label;
  EXPECT_EQ(plain.stalled, audited.stalled) << label;
}

}  // namespace

// Every golden cell, audited in warn mode: zero violations, and the audited
// run's observables are bitwise identical to the unaudited run's — the
// auditor reads the simulation, it never steers it.
TEST(GoldenAudit, FullMatrixCleanAndBitwiseIdentical) {
  for (const auto& scenario : golden::scenarios()) {
    for (const auto& technique : golden::techniques()) {
      for (const auto seed : golden::seeds()) {
        const std::string label =
            scenario + "/" + technique + "/seed" + std::to_string(seed);
        const auto plain = golden::run_cell(scenario, technique, seed);
        const auto audited = golden::run_cell(scenario, technique, seed,
                                              audit::AuditMode::kWarn);
        expect_bitwise_equal(plain, audited, label);
        EXPECT_TRUE(audited.audit_report.empty())
            << label << ": "
            << (audited.audit_report.empty()
                    ? ""
                    : audit::to_string(audited.audit_report.front()));
      }
    }
  }
}

// Fig. 10-shaped fault scenarios under fail-fast auditing: a violation
// anywhere in the fault/recovery machinery would throw AuditFailure and
// fail the test.
TEST(GoldenAudit, FaultScenariosSurviveFailFast) {
  for (const double mtbf_hours : {48.0, 6.0}) {
    for (const char* technique : {"swap_greedy", "cr", "none"}) {
      auto cfg = golden::config_for("calm");
      cfg.app = simsweep::app::AppSpec::with_iteration_minutes(4, 10, 2.0);
      cfg.app.state_bytes_per_process = 1.0 * simsweep::app::kMiB;
      cfg.spare_count = 8;
      cfg.seed = 7;
      cfg.audit = audit::AuditMode::kFail;
      cfg.faults.host_mtbf_s = mtbf_hours * 3600.0;
      cfg.faults.swap_fail_prob = 0.05;
      cfg.faults.checkpoint_fail_prob = 0.05;
      const auto model = std::make_shared<simsweep::load::OnOffModel>(
          simsweep::load::OnOffParams::dynamism(0.2));
      const auto strategy = golden::make_technique(technique);
      const auto result = golden::core::run_single(cfg, *model, *strategy);
      EXPECT_TRUE(result.audit_report.empty());
      EXPECT_GT(result.makespan_s, 0.0);
    }
  }
}
