// Tests for the resilience layer: the JSON reader every artifact loader rests
// on, crash-consistent journal publication and its read-back through the
// journal loader, the wall-clock watchdog, cooperative simulator
// cancellation, and the resumable sweep runner's headline guarantee — an
// interrupted-then-resumed sweep is byte-identical to an uninterrupted one at
// any --jobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/app_spec.hpp"
#include "cli/sweep_runner.hpp"
#include "core/experiment.hpp"
#include "core/trial_runner.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "report/artifact.hpp"
#include "resilience/journal.hpp"
#include "resilience/json_read.hpp"
#include "resilience/quarantine.hpp"
#include "resilience/signal.hpp"
#include "resilience/watchdog.hpp"
#include "scenario/scenario.hpp"
#include "simcore/simulator.hpp"

namespace {

namespace app = simsweep::app;
namespace cli = simsweep::cli;
namespace core = simsweep::core;
namespace res = simsweep::resilience;
namespace sim = simsweep::sim;

/// A unique path under the system temp dir; removed (with any .tmp sibling)
/// when the fixture object dies, so tests cannot observe each other's files.
class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static std::atomic<unsigned> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("simsweep_" + stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonRead, ParsesScalarsAndContainers) {
  const auto v = res::parse_json(
      R"({"b":true,"n":null,"s":"hi","a":[1,2],"o":{"k":-3.5}})");
  EXPECT_TRUE(v.at("b").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_EQ(v.at("s").as_string(), "hi");
  ASSERT_EQ(v.at("a").as_array().size(), 2u);
  EXPECT_EQ(v.at("a").as_array()[1].as_uint64(), 2u);
  EXPECT_DOUBLE_EQ(v.at("o").at("k").as_double(), -3.5);
}

TEST(JsonRead, Uint64RoundTripsFullRange) {
  const auto v = res::parse_json("18446744073709551615");
  EXPECT_EQ(v.as_uint64(), 18446744073709551615ULL);
}

TEST(JsonRead, DoubleRoundTripsBitwise) {
  // The journal stores shortest-form doubles from std::to_chars; reading the
  // token back must reproduce the exact bits, not a nearby value.
  const double original = 0.1 + 0.2;  // 0.30000000000000004
  const auto v = res::parse_json("0.30000000000000004");
  EXPECT_EQ(v.as_double(), original);
  EXPECT_EQ(res::parse_json("1e-320").as_double(), 1e-320);  // subnormal
}

TEST(JsonRead, DecodesSurrogatePairs) {
  const auto v = res::parse_json(R"("😀")");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(JsonRead, RejectsMalformedInput) {
  EXPECT_THROW((void)res::parse_json("{"), res::JsonError);
  EXPECT_THROW((void)res::parse_json("{} trailing"), res::JsonError);
  EXPECT_THROW((void)res::parse_json(R"({"k":01})"), res::JsonError);
  EXPECT_THROW((void)res::parse_json("1."), res::JsonError);
  EXPECT_THROW((void)res::parse_json("1e"), res::JsonError);
  EXPECT_THROW((void)res::parse_json("-5").as_uint64(), res::JsonError);
  EXPECT_THROW((void)res::parse_json("\"x\"").as_double(), res::JsonError);
}

TEST(JsonRead, FindAndAtBehaveOnMissingKeys) {
  const auto v = res::parse_json(R"({"present":1})");
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_NE(v.find("present"), nullptr);
  EXPECT_THROW((void)v.at("absent"), res::JsonError);
}

// ---------------------------------------------------------------------------
// Journal

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// The journal's recorded cells, read through the one journal loader.
std::size_t journal_cells(const std::string& path) {
  return simsweep::report::load_artifact(path).journal.cells.size();
}

cli::SweepPlan small_plan();  // defined with the sweep-runner tests below

TEST(Journal, WriteReadRoundTrip) {
  TempPath tmp("journal_roundtrip");
  res::JournalWriter writer(tmp.str());
  writer.append(R"({"kind":"header","version":1})");
  writer.append(R"({"kind":"cell","index":0})");
  EXPECT_EQ(writer.record_count(), 2u);
  EXPECT_EQ(read_file(tmp.str()),
            "{\"kind\":\"header\",\"version\":1}\n"
            "{\"kind\":\"cell\",\"index\":0}\n");
}

TEST(Journal, MissingFileReadsEmpty) {
  // Resuming from a journal that never got written — missing or empty — is
  // a fresh start.
  TempPath empty("journal_empty");
  { std::ofstream touch(empty.str()); }
  for (const std::string& path :
       {std::string("/nonexistent/simsweep/journal"), empty.str()}) {
    cli::SweepPlan plan = small_plan();
    plan.resume_path = path;
    const cli::SweepResult result = cli::run_sweep(plan);
    EXPECT_EQ(result.cells_reused, 0u) << path;
    EXPECT_EQ(result.cells_executed, 8u) << path;
  }
}

TEST(Journal, StopsAtTornTail) {
  // A torn final write was never durable: the loader keeps the prefix.  A
  // malformed line with records after it is corruption, not a torn write.
  TempPath tmp("journal_torn");
  cli::SweepPlan plan = small_plan();
  plan.journal_path = tmp.str();
  plan.hooks.stop_after_cells = 2;
  (void)cli::run_sweep(plan);
  const std::string durable = read_file(tmp.str());
  {
    std::ofstream out(tmp.str(), std::ios::app | std::ios::binary);
    out << "{\"kind\":\"cell\",\"trunc";  // a torn final write
  }
  EXPECT_EQ(journal_cells(tmp.str()), 2u);
  {
    std::ofstream out(tmp.str(), std::ios::app | std::ios::binary);
    out << '\n' << durable.substr(durable.find('\n') + 1);
  }
  try {
    (void)journal_cells(tmp.str());
    FAIL() << "a corrupt line before the tail was accepted";
  } catch (const simsweep::report::ArtifactError& e) {
    EXPECT_EQ(e.rule().rfind("journal: line 4: json: ", 0), 0u) << e.what();
  }
}

TEST(Journal, FlushLeavesNoTempFile) {
  TempPath tmp("journal_tmpfile");
  res::JournalWriter writer(tmp.str());
  writer.append(R"({"index":0})");
  EXPECT_TRUE(std::filesystem::exists(tmp.str()));
  EXPECT_FALSE(std::filesystem::exists(tmp.str() + ".tmp"));
}

TEST(Journal, DeferredAppendPublishesOnFlush) {
  TempPath tmp("journal_deferred");
  res::JournalWriter writer(tmp.str());
  writer.append(R"({"index":0})", /*flush_now=*/false);
  EXPECT_FALSE(std::filesystem::exists(tmp.str()));
  writer.flush();
  EXPECT_EQ(read_file(tmp.str()), "{\"index\":0}\n");
}

TEST(Journal, RejectsEmbeddedNewline) {
  TempPath tmp("journal_newline");
  res::JournalWriter writer(tmp.str());
  EXPECT_THROW(writer.append("{}\n{}"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Watchdog + cooperative cancellation

TEST(Watchdog, RejectsNonPositiveDeadline) {
  EXPECT_THROW(res::Watchdog w(0.0), std::invalid_argument);
  EXPECT_THROW(res::Watchdog w(-1.0), std::invalid_argument);
}

TEST(Watchdog, FiresPastDeadlineAndStaysQuietUnderIt) {
  res::Watchdog watchdog(0.05);
  core::TrialRunner runner(1);
  runner.set_trial_guard(&watchdog);
  runner.parallel_for(2, [&](std::size_t i) {
    const std::atomic<bool>* flag = core::TrialRunner::current_cancel_flag();
    ASSERT_NE(flag, nullptr);
    EXPECT_FALSE(flag->load());
    if (i == 0) {
      // Simulate a wedged trial: spin until the watchdog cancels us.
      while (!flag->load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  runner.set_trial_guard(nullptr);
  EXPECT_TRUE(watchdog.fired(0));
  EXPECT_FALSE(watchdog.fired(1));
  watchdog.clear_fired(0);
  EXPECT_FALSE(watchdog.fired(0));
}

TEST(Watchdog, RearmResetsDeadlineAndFlagInPlace) {
  res::Watchdog watchdog(0.05);
  core::TrialRunner runner(1);
  runner.set_trial_guard(&watchdog);
  runner.parallel_for(1, [&](std::size_t) {
    const std::atomic<bool>* flag = core::TrialRunner::current_cancel_flag();
    ASSERT_NE(flag, nullptr);
    while (!flag->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(watchdog.fired(0));
    // A retry attempt rearms the same published flag object.
    watchdog.rearm(0);
    EXPECT_FALSE(flag->load());
    EXPECT_FALSE(watchdog.fired(0));
    while (!flag->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  runner.set_trial_guard(nullptr);
  EXPECT_TRUE(watchdog.fired(0));
}

TEST(Simulator, CancelFlagThrowsRunCancelled) {
  sim::Simulator simulator;
  std::atomic<bool> cancel{true};
  simulator.set_cancel_flag(&cancel);
  simulator.at(1.0, [] {});
  EXPECT_THROW(simulator.run(), sim::RunCancelled);
}

TEST(Simulator, UnraisedCancelFlagChangesNothing) {
  std::size_t fired_plain = 0;
  std::size_t fired_flagged = 0;
  {
    sim::Simulator simulator;
    simulator.at(1.0, [&] { ++fired_plain; });
    simulator.run();
  }
  {
    sim::Simulator simulator;
    std::atomic<bool> cancel{false};
    simulator.set_cancel_flag(&cancel);
    simulator.at(1.0, [&] { ++fired_flagged; });
    simulator.run();
  }
  EXPECT_EQ(fired_plain, fired_flagged);
}

// ---------------------------------------------------------------------------
// Quarantine report

TEST(Quarantine, OutcomeNamesAreStable) {
  EXPECT_EQ(res::to_string(res::TrialOutcomeKind::kOk), "ok");
  EXPECT_EQ(res::to_string(res::TrialOutcomeKind::kHung), "hung");
  EXPECT_EQ(res::to_string(res::TrialOutcomeKind::kCrashed), "crashed");
  EXPECT_EQ(res::to_string(res::TrialOutcomeKind::kAuditFailed),
            "audit-failed");
}

TEST(Quarantine, ReportIsValidJsonWithAllFields) {
  std::vector<res::QuarantineRecord> records(1);
  records[0].index = 3;
  records[0].key = "abc123";
  records[0].seed = 7;
  records[0].trials = 2;
  records[0].label = "x=0.3 strategy=SWAP";
  records[0].outcome = res::TrialOutcomeKind::kHung;
  records[0].attempts = 2;
  records[0].error = "trial hung";
  std::ostringstream os;
  res::write_quarantine_json(os, records);

  const auto v = res::parse_json(os.str());
  const auto& entries = v.at("quarantined").as_array();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].at("index").as_uint64(), 3u);
  EXPECT_EQ(entries[0].at("key").as_string(), "abc123");
  EXPECT_EQ(entries[0].at("seed").as_uint64(), 7u);
  EXPECT_EQ(entries[0].at("outcome").as_string(), "hung");
  EXPECT_EQ(entries[0].at("attempts").as_uint64(), 2u);
  EXPECT_EQ(entries[0].at("error").as_string(), "trial hung");

  // Full bytes: one record of each outcome (escaped error text included),
  // stamped with a provenance block, trailing newline.
  std::vector<res::QuarantineRecord> each;
  const res::TrialOutcomeKind outcomes[] = {
      res::TrialOutcomeKind::kOk, res::TrialOutcomeKind::kHung,
      res::TrialOutcomeKind::kCrashed, res::TrialOutcomeKind::kAuditFailed};
  for (std::size_t i = 0; i < 4; ++i)
    each.push_back({i, "00000000000000a" + std::to_string(i), 9, 2,
                    "cell " + std::to_string(i), outcomes[i], i + 1,
                    i == 2 ? "bad\n\"x\"" : ""});
  const simsweep::obs::Provenance prov{"v1", "Release", 9, "0123456789abcdef"};
  std::ostringstream stamped;
  res::write_quarantine_json(stamped, each, &prov);
  EXPECT_EQ(
      stamped.str(),
      R"({"meta":{"version":"v1","build_type":"Release","seed":9,)"
      R"("config_digest":"0123456789abcdef"},"quarantined":[)"
      R"({"index":0,"key":"00000000000000a0","seed":9,"trials":2,)"
      R"("label":"cell 0","outcome":"ok","attempts":1,"error":""},)"
      R"({"index":1,"key":"00000000000000a1","seed":9,"trials":2,)"
      R"("label":"cell 1","outcome":"hung","attempts":2,"error":""},)"
      R"({"index":2,"key":"00000000000000a2","seed":9,"trials":2,)"
      R"("label":"cell 2","outcome":"crashed","attempts":3,)"
      R"("error":"bad\n\"x\""},)"
      R"({"index":3,"key":"00000000000000a3","seed":9,"trials":2,)"
      R"("label":"cell 3","outcome":"audit-failed","attempts":4,)"
      R"("error":""}]})"
      "\n");
  std::ostringstream empty;
  res::write_quarantine_json(empty, {});
  EXPECT_EQ(empty.str(), "{\"quarantined\":[]}\n");
}

// ---------------------------------------------------------------------------
// Signals

TEST(Signal, SimulateAndClearInterrupt) {
  res::arm_interrupt_handlers();
  res::arm_interrupt_handlers();  // idempotent
  res::clear_interrupted();
  EXPECT_FALSE(res::interrupted());
  res::simulate_interrupt();
  EXPECT_TRUE(res::interrupted());
  res::clear_interrupted();
  EXPECT_FALSE(res::interrupted());
}

// ---------------------------------------------------------------------------
// Sweep runner: resume identity, quarantine, partial artifacts

/// A small but non-trivial sweep: 2 points x 4 strategies = 8 cells.
cli::SweepPlan small_plan() {
  cli::SweepPlan plan;
  plan.spec = simsweep::scenario::sweep_scenario();
  plan.spec.hosts = 8;
  plan.spec.active = 4;
  plan.spec.iterations = 10;
  plan.spec.iter_minutes = 2.0;
  plan.spec.spares = 4;
  plan.spec.seed = 1;
  plan.spec.axis.x = {0.0, 0.3};
  plan.trials = 2;
  plan.jobs = 1;
  plan.hooks.interrupted = [] { return false; };
  return plan;
}

std::string report_json(const cli::SweepResult& result) {
  std::ostringstream os;
  result.reports.front().print_json(os, &result.provenance);
  return os.str();
}

/// The headline guarantee: run to completion; separately run with a
/// simulated crash after `stop_after` cells, then resume from the journal at
/// `resume_jobs` — every artifact must be byte-identical.
void expect_resume_identity(std::size_t stop_after, std::size_t resume_jobs) {
  cli::SweepPlan plan = small_plan();
  plan.metrics = true;
  plan.timeline = true;

  const cli::SweepResult full = cli::run_sweep(plan);
  EXPECT_FALSE(full.partial);
  EXPECT_EQ(full.cells_total, 8u);
  EXPECT_EQ(full.cells_executed, 8u);

  TempPath journal("resume_identity");
  cli::SweepPlan interrupted = plan;
  interrupted.journal_path = journal.str();
  interrupted.hooks.stop_after_cells = stop_after;
  const cli::SweepResult partial = cli::run_sweep(interrupted);
  EXPECT_TRUE(partial.partial);
  EXPECT_TRUE(partial.provenance.partial);
  EXPECT_EQ(partial.cells_executed, stop_after);
  EXPECT_EQ(partial.cells_skipped, 8u - stop_after);
  EXPECT_NE(report_json(partial).find("\"partial\":true"), std::string::npos);

  // Journal on disk: header + one record per completed cell.
  EXPECT_EQ(journal_cells(journal.str()), stop_after);

  cli::SweepPlan resumed = plan;
  resumed.jobs = resume_jobs;
  resumed.journal_path = journal.str();
  resumed.resume_path = journal.str();
  const cli::SweepResult second = cli::run_sweep(resumed);
  EXPECT_FALSE(second.partial);
  EXPECT_EQ(second.cells_reused, stop_after);
  EXPECT_EQ(second.cells_executed, 8u - stop_after);

  EXPECT_EQ(report_json(full), report_json(second));
  EXPECT_EQ(full.metrics_json, second.metrics_json);
  EXPECT_EQ(full.timeline_json, second.timeline_json);
}

TEST(SweepResume, ByteIdenticalAtJobs1) { expect_resume_identity(3, 1); }

TEST(SweepResume, ByteIdenticalAtJobs4) { expect_resume_identity(5, 4); }

TEST(SweepResume, CompletedJournalResumesWithNoWork) {
  TempPath journal("resume_complete");
  cli::SweepPlan plan = small_plan();
  plan.journal_path = journal.str();
  const cli::SweepResult first = cli::run_sweep(plan);

  plan.resume_path = journal.str();
  const cli::SweepResult second = cli::run_sweep(plan);
  EXPECT_EQ(second.cells_reused, 8u);
  EXPECT_EQ(second.cells_executed, 0u);
  EXPECT_EQ(report_json(first), report_json(second));
}

TEST(SweepResume, MismatchedJournalIsRejected) {
  TempPath journal("resume_mismatch");
  cli::SweepPlan plan = small_plan();
  plan.journal_path = journal.str();
  (void)cli::run_sweep(plan);

  cli::SweepPlan other = plan;
  other.resume_path = journal.str();
  other.spec.seed = 2;  // different sweep, same journal
  EXPECT_THROW((void)cli::run_sweep(other), std::runtime_error);
}

TEST(SweepResume, JournalWithoutMetricsCannotSeedMetricsRun) {
  // A journal recorded without --metrics lacks the per-cell snapshots a
  // metrics-producing resume needs; those cells must re-execute.
  TempPath journal("resume_nometrics");
  cli::SweepPlan plan = small_plan();
  plan.journal_path = journal.str();
  (void)cli::run_sweep(plan);

  cli::SweepPlan with_metrics = plan;
  with_metrics.resume_path = journal.str();
  with_metrics.metrics = true;
  const cli::SweepResult result = cli::run_sweep(with_metrics);
  EXPECT_EQ(result.cells_reused, 0u);
  EXPECT_EQ(result.cells_executed, 8u);

  cli::SweepPlan fresh = small_plan();
  fresh.metrics = true;
  EXPECT_EQ(result.metrics_json, cli::run_sweep(fresh).metrics_json);
}

TEST(SweepResume, JournalHistogramWithoutOverflowBucketIsATypedError) {
  // A record whose embedded histogram lost counts must not be merged: the
  // bucket arrays would be read past their end.
  TempPath journal("resume_short_histogram");
  cli::SweepPlan plan = small_plan();
  plan.metrics = true;
  plan.journal_path = journal.str();
  (void)cli::run_sweep(plan);

  std::vector<std::string> lines;
  {
    std::ifstream in(journal.str());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  // Inside the record the snapshot is an escaped string: \"counts\":[...].
  const std::string marker = R"(\"counts\":[)";
  const std::size_t open = lines[1].find(marker);
  ASSERT_NE(open, std::string::npos);
  const std::size_t close = lines[1].find(']', open);
  lines[1].replace(open + marker.size(), close - open - marker.size(), "1,2,3");
  {
    std::ofstream out(journal.str(), std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }

  cli::SweepPlan resumed = plan;
  resumed.resume_path = journal.str();
  try {
    (void)cli::run_sweep(resumed);
    FAIL() << "resumed a journal with a short histogram";
  } catch (const simsweep::report::ArtifactError& e) {
    EXPECT_EQ(e.path(), journal.str());
    EXPECT_NE(e.rule().find("journal: line 2: metrics: histogram"),
              std::string::npos)
        << e.what();
    EXPECT_NE(e.rule().find("has 3 counts"), std::string::npos) << e.what();
  }
}

TEST(SweepForbidStalls, ResourceExhaustionIsNotADeadlock) {
  // CR loses more hosts than it has spares and gives up cleanly in every
  // trial.  Those runs count as stalled, but a scenario that forbids stalls
  // only rejects deadlocks.
  TempPath journal("forbid_stalls_exhausted");
  cli::SweepPlan plan = small_plan();
  plan.spec.hosts = 6;
  plan.spec.spares = 2;
  plan.spec.iterations = 30;
  plan.spec.mtbf_hours = 2.0;
  plan.spec.forbid_stalls = true;
  plan.spec.axis.x = {0.0};
  plan.spec.variants = {plan.spec.variants.back()};  // CR
  plan.trials = 4;
  plan.journal_path = journal.str();
  const cli::SweepResult result = cli::run_sweep(plan);
  EXPECT_FALSE(result.partial);

  const auto artifact = simsweep::report::load_artifact(journal.str());
  ASSERT_EQ(artifact.journal.cells.size(), 1u);
  const core::TrialStats& stats = artifact.journal.cells[0].record.stats;
  EXPECT_GT(stats.resource_exhausted, 0u);
  EXPECT_EQ(stats.stalled, stats.resource_exhausted);
}

TEST(SweepQuarantine, RetryExhaustionQuarantinesAndContinues) {
  cli::SweepPlan plan = small_plan();
  plan.trial_retries = 2;
  plan.hooks.inject_fail = {1};
  const cli::SweepResult result = cli::run_sweep(plan);

  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].index, 1u);
  EXPECT_EQ(result.quarantined[0].outcome, res::TrialOutcomeKind::kCrashed);
  EXPECT_EQ(result.quarantined[0].attempts, 3u);  // 1 + 2 retries
  EXPECT_FALSE(result.quarantined[0].key.empty());

  // The sweep continued degraded: every other cell completed, the
  // quarantined cell reports NaN, and the run is NOT partial (nothing was
  // left unattempted — cells_executed counts the failed attempt too).
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.cells_executed, 8u);
  EXPECT_TRUE(std::isnan(result.reports.front().series[1].y[0]));
  EXPECT_FALSE(std::isnan(result.reports.front().series[0].y[0]));
}

TEST(SweepQuarantine, WatchdogCancelReportsHung) {
  cli::SweepPlan plan = small_plan();
  plan.trial_timeout_s = 0.25;
  plan.trial_retries = 0;
  plan.hooks.inject_hang = {2};
  const cli::SweepResult result = cli::run_sweep(plan);

  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].index, 2u);
  EXPECT_EQ(result.quarantined[0].outcome, res::TrialOutcomeKind::kHung);
  EXPECT_EQ(result.quarantined[0].attempts, 1u);
}

TEST(SweepQuarantine, QuarantinedCellReattemptsOnResume) {
  TempPath journal("resume_quarantine");
  cli::SweepPlan plan = small_plan();
  plan.journal_path = journal.str();
  plan.trial_retries = 0;
  plan.hooks.inject_fail = {4};
  const cli::SweepResult broken = cli::run_sweep(plan);
  ASSERT_EQ(broken.quarantined.size(), 1u);

  // Resume with the fault gone: only the quarantined cell re-runs, and the
  // final report matches an uninterrupted healthy sweep.
  cli::SweepPlan healed = small_plan();
  healed.journal_path = journal.str();
  healed.resume_path = journal.str();
  const cli::SweepResult fixed = cli::run_sweep(healed);
  EXPECT_EQ(fixed.cells_reused, 7u);
  EXPECT_EQ(fixed.cells_executed, 1u);
  EXPECT_TRUE(fixed.quarantined.empty());
  EXPECT_EQ(report_json(fixed), report_json(cli::run_sweep(small_plan())));
}

TEST(SweepInterrupt, SignalFlushesJournalAndMarksPartial) {
  TempPath journal("sigint_partial");
  cli::SweepPlan plan = small_plan();
  plan.journal_path = journal.str();
  plan.hooks.interrupted = nullptr;  // use the real SIGINT flag

  res::clear_interrupted();
  res::simulate_interrupt();
  const cli::SweepResult result = cli::run_sweep(plan);
  res::clear_interrupted();

  EXPECT_TRUE(result.partial);
  EXPECT_TRUE(result.provenance.partial);
  EXPECT_EQ(result.cells_executed, 0u);
  EXPECT_EQ(result.cells_skipped, 8u);
  // The journal was still published durably (header line, zero cells).
  EXPECT_EQ(journal_cells(journal.str()), 0u);
}

TEST(SweepTrials, OneCellSpreadsItsTrialsOverTheWorkers) {
  // The trial, not the cell, is the unit of work: a one-cell grid at
  // --jobs=2 runs its four trials as four tasks on two workers, and the
  // worker that finishes the last one reduces the cell exactly as a serial
  // run does.
  cli::SweepPlan plan = small_plan();
  plan.spec.axis.x = {0.3};
  plan.spec.variants = {plan.spec.variants[1]};  // SWAP(greedy)
  plan.trials = 4;
  plan.metrics = true;
  plan.timeline = true;
  plan.trace_decisions = true;
  const cli::SweepResult serial = cli::run_sweep(plan);

  plan.jobs = 2;
  simsweep::obs::TrialProfiler profiler;
  plan.profiler = &profiler;
  const cli::SweepResult pooled = cli::run_sweep(plan);
  const auto report = profiler.report();
  EXPECT_EQ(report.tasks, 4u);
  EXPECT_LE(report.workers.size(), 2u);
  std::size_t recorded = 0;
  for (const auto& w : report.workers) recorded += w.tasks;
  EXPECT_EQ(recorded, 4u);

  ASSERT_TRUE(pooled.stats.front().has_value());
  EXPECT_EQ(pooled.stats.front()->trials, 4u);
  EXPECT_EQ(report_json(serial), report_json(pooled));
  EXPECT_EQ(serial.metrics_json, pooled.metrics_json);
  EXPECT_EQ(serial.timeline_json, pooled.timeline_json);
  EXPECT_FALSE(serial.decisions_jsonl.empty());
  EXPECT_EQ(serial.decisions_jsonl, pooled.decisions_jsonl);
}

TEST(SweepTrials, ExhaustedTrialQuarantinesItsCellOnce) {
  // Retries count per trial; the first trial out of attempts quarantines
  // the cell, and its other trials are dropped rather than reported.
  cli::SweepPlan plan = small_plan();
  plan.trials = 3;
  plan.jobs = 3;
  plan.trial_retries = 1;
  plan.retry_backoff_s = 0.0;
  plan.hooks.inject_fail = {2, 5};
  const cli::SweepResult result = cli::run_sweep(plan);
  ASSERT_EQ(result.quarantined.size(), 2u);
  EXPECT_EQ(result.quarantined[0].index, 2u);
  EXPECT_EQ(result.quarantined[1].index, 5u);
  for (const auto& record : result.quarantined) {
    EXPECT_EQ(record.attempts, 2u);
    EXPECT_EQ(record.trials, 3u);
  }
  EXPECT_EQ(result.cells_executed, 8u);
  EXPECT_FALSE(result.stats[2].has_value());
  ASSERT_TRUE(result.stats[3].has_value());
  EXPECT_EQ(result.stats[3]->trials, 3u);
}

TEST(SweepPlanValidation, RejectsMalformedPlans) {
  cli::SweepPlan no_points = small_plan();
  no_points.spec.axis.x.clear();
  EXPECT_THROW((void)cli::run_sweep(no_points), std::invalid_argument);

  // plan.trials == 0 falls back to the spec's count, so both must be zeroed
  // to exercise the rejection.
  cli::SweepPlan no_trials = small_plan();
  no_trials.trials = 0;
  no_trials.spec.trials = 0;
  EXPECT_THROW((void)cli::run_sweep(no_trials), std::invalid_argument);

  cli::SweepPlan hang_without_watchdog = small_plan();
  hang_without_watchdog.hooks.inject_hang = {0};
  EXPECT_THROW((void)cli::run_sweep(hang_without_watchdog),
               std::invalid_argument);
}

}  // namespace
