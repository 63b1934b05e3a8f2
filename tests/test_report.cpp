// Tests for PR 10's observability surface: the EtaEstimator's determinism,
// the StatusBoard's snapshot contract and zero-overhead identity, artifact
// loading/kind-sniffing in src/report, the diff engine's tolerance and NaN
// semantics, staleness detection, and the `simsweep report` / `simsweep
// status` exit codes through the installed binary.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/sweep_runner.hpp"
#include "obs/profiler.hpp"
#include "obs/status.hpp"
#include "report/analyze.hpp"
#include "report/artifact.hpp"
#include "resilience/journal.hpp"
#include "resilience/json_read.hpp"
#include "resilience/quarantine.hpp"
#include "scenario/scenario.hpp"
#include "strategy/decision_trace.hpp"

#ifndef SIMSWEEP_BINARY_PATH
#define SIMSWEEP_BINARY_PATH "simsweep"
#endif

namespace {

namespace cli = simsweep::cli;
namespace obs = simsweep::obs;
namespace report = simsweep::report;
namespace res = simsweep::resilience;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A unique path under the system temp dir; removed (with any .tmp sibling)
/// when the fixture object dies, so tests cannot observe each other's files.
class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static std::atomic<unsigned> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("simsweep_report_" + stem + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
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

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << contents;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `command` (already shell-quoted), captures stdout+stderr, and
/// returns the exit code through `exit_code`.
std::string run_command(const std::string& command, int& exit_code) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    output.append(buffer, n);
  const int status = ::pclose(pipe);
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return output;
}

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

/// `json` with the value of each member named in `keys` replaced by '#':
/// masks build stamps and wall-clock fields before a byte comparison.
std::string mask_values(const std::string& json,
                        const std::vector<std::string>& keys) {
  std::string out;
  for (std::size_t i = 0; i < json.size();) {
    const auto key = std::find_if(keys.begin(), keys.end(), [&](auto& k) {
      return json.compare(i, k.size() + 3, "\"" + k + "\":") == 0;
    });
    if (key == keys.end()) {
      out += json[i++];
      continue;
    }
    out += "\"" + *key + "\":#";
    i = json.find_first_of(",}", i + key->size() + 3);
  }
  return out;
}

std::string report_json(const cli::SweepResult& result) {
  std::ostringstream os;
  result.reports.front().print_json(os, &result.provenance);
  return os.str();
}

// ---------------------------------------------------------------------------
// EtaEstimator: a pure function of the recorded duration sequence

TEST(EtaEstimator, MatchesHandComputedEwmaRecurrence) {
  obs::EtaEstimator eta(0.25);
  EXPECT_EQ(eta.completed(), 0u);
  EXPECT_EQ(eta.ewma_s(), 0.0);

  eta.record(2.0);  // first sample sets the EWMA directly
  EXPECT_EQ(eta.ewma_s(), 2.0);
  eta.record(4.0);  // 0.25 * 4 + 0.75 * 2
  EXPECT_EQ(eta.ewma_s(), 2.5);
  eta.record(1.0);  // 0.25 * 1 + 0.75 * 2.5
  EXPECT_EQ(eta.ewma_s(), 2.125);
  EXPECT_EQ(eta.completed(), 3u);
}

TEST(EtaEstimator, SameSequenceIsBitwiseIdenticalAtAnyJobs) {
  // The estimator never sees the worker count while recording, only when
  // asked for an ETA — so the smoothed duration from one sequence is the
  // same object at --jobs=1 and --jobs=4, and the ETA scales exactly.
  const std::vector<double> durations = {0.125, 0.5, 0.25, 1.0, 0.0625};
  obs::EtaEstimator a(0.25);
  obs::EtaEstimator b(0.25);
  for (const double d : durations) {
    a.record(d);
    b.record(d);
  }
  EXPECT_EQ(a.ewma_s(), b.ewma_s());  // bitwise, not approximate
  EXPECT_EQ(a.eta_s(12, 1), b.eta_s(12, 1));
  EXPECT_EQ(a.eta_s(12, 4), a.eta_s(12, 1) / 4.0);
  EXPECT_EQ(a.eta_s(12, 0), a.eta_s(12, 1));  // jobs 0 counts as 1
}

TEST(EtaEstimator, EdgesAreClampedNotPropagated) {
  obs::EtaEstimator eta(0.25);
  EXPECT_EQ(eta.eta_s(100, 4), 0.0);  // no history -> no estimate
  eta.record(-5.0);                   // clock skew clamps to 0
  EXPECT_EQ(eta.ewma_s(), 0.0);
  eta.record(kNaN);  // NaN clamps to 0 instead of poisoning the EWMA
  EXPECT_FALSE(std::isnan(eta.ewma_s()));
  eta.record(8.0);
  EXPECT_GT(eta.ewma_s(), 0.0);
  EXPECT_EQ(eta.eta_s(0, 4), 0.0);  // nothing remaining -> 0, not epsilon
}

TEST(EtaEstimator, InvalidAlphaFallsBackToDefault) {
  obs::EtaEstimator bad(-1.0);
  obs::EtaEstimator standard(0.25);
  for (const double d : {1.0, 3.0, 2.0}) {
    bad.record(d);
    standard.record(d);
  }
  EXPECT_EQ(bad.ewma_s(), standard.ewma_s());
}

// ---------------------------------------------------------------------------
// StatusBoard: snapshot contract

TEST(StatusBoard, SnapshotCarriesLifecycleAndGroupProgress) {
  TempPath path("board");
  obs::StatusBoard::Options options;
  options.path = path.str();
  options.heartbeat_s = 0.0;  // publish on every event
  obs::StatusBoard board(options);

  obs::Provenance prov = obs::make_provenance(7, "cafe");
  board.begin_run("demo", prov, 10, 2, 4, {"NONE", "SWAP", "DLB", "CR"});

  // begin_run publishes immediately: a kill before the first cell still
  // leaves a parseable, partial-marked snapshot on disk.
  const auto first = res::parse_json(read_file(path.str()));
  EXPECT_EQ(first.at("kind").as_string(), "sweep-status");
  EXPECT_EQ(first.at("state").as_string(), "running");
  EXPECT_TRUE(first.at("meta").at("partial").as_bool());
  EXPECT_EQ(first.at("cells").at("total").as_uint64(), 10u);
  // 10 cells over 4 groups: the remainder goes to the first groups.
  const auto& groups = first.at("groups").as_array();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].at("total").as_uint64(), 3u);
  EXPECT_EQ(groups[1].at("total").as_uint64(), 3u);
  EXPECT_EQ(groups[2].at("total").as_uint64(), 2u);
  EXPECT_EQ(groups[3].at("total").as_uint64(), 2u);

  board.cell_reused(0);
  board.cell_started(1);
  board.cell_retried(1);
  board.cell_finished(1, 0.5);
  board.cell_started(2);
  board.cell_quarantined(2);
  board.finish("done");

  const auto last = res::parse_json(read_file(path.str()));
  EXPECT_EQ(last.at("state").as_string(), "done");
  EXPECT_EQ(last.at("meta").find("partial"), nullptr);  // terminal success
  // "done" counts resolved cells: reused + executed + quarantined.
  EXPECT_EQ(last.at("cells").at("done").as_uint64(), 3u);
  EXPECT_EQ(last.at("cells").at("reused").as_uint64(), 1u);
  EXPECT_EQ(last.at("cells").at("executed").as_uint64(), 1u);
  EXPECT_EQ(last.at("cells").at("in_flight").as_uint64(), 0u);
  EXPECT_EQ(last.at("cells").at("retries").as_uint64(), 1u);
  EXPECT_EQ(last.at("cells").at("quarantined").as_uint64(), 1u);
  // Cell index i belongs to group i % 4: reused 0, finished 1, quarantined 2.
  const auto& done_groups = last.at("groups").as_array();
  EXPECT_EQ(done_groups[0].at("done").as_uint64(), 1u);
  EXPECT_EQ(done_groups[1].at("done").as_uint64(), 1u);
  EXPECT_EQ(done_groups[2].at("done").as_uint64(), 1u);
  EXPECT_EQ(done_groups[3].at("done").as_uint64(), 0u);
  EXPECT_EQ(last.at("eta").at("ewma_cell_s").as_double(), 0.5);

  // Full bytes with the build stamps and clock fields masked.
  const std::string body =
      R"("heartbeat_s":0,"jobs":4,"trials":2,)"
      R"("cells":{"total":10,"done":3,"reused":1,"executed":1,)"
      R"("in_flight":0,"retries":1,"quarantined":1},)"
      R"("groups":[{"name":"NONE","done":1,"total":3},)"
      R"({"name":"SWAP","done":1,"total":3},{"name":"DLB","done":1,"total":2},)"
      R"({"name":"CR","done":0,"total":2}],)"
      R"("eta":{"ewma_cell_s":0.5,"eta_s":0.875,"percent":30})";
  const std::vector<std::string> masked = {"version", "build_type",
                                           "heartbeat_unix_s", "elapsed_s"};
  EXPECT_EQ(mask_values(read_file(path.str()), masked),
            R"({"kind":"sweep-status","meta":{"version":#,"build_type":#,)"
            R"("seed":7,"config_digest":"cafe"},"scenario":"demo",)"
            R"("state":"done","heartbeat_unix_s":#,"elapsed_s":#,)" +
                body + "}\n");

  // A snapshot embeds the profiler's workers once one is attached, and
  // one taken mid-run is marked partial.
  obs::TrialProfiler profiler;
  profiler.record(0, 0, 0.0, 0.0, 2.0);
  profiler.record(1, 1, 0.0, 1.0, 4.0);
  board.set_profiler(&profiler);
  EXPECT_EQ(mask_values(board.snapshot_json(), masked),
            R"({"kind":"sweep-status","meta":{"version":#,"build_type":#,)"
            R"("seed":7,"config_digest":"cafe","partial":true},)"
            R"("scenario":"demo","state":"running","heartbeat_unix_s":#,)"
            R"("elapsed_s":#,)" +
                body +
                R"(,"workers":[{"tasks":1,"busy_s":2,"utilization":0.5},)"
                R"({"tasks":1,"busy_s":3,"utilization":0.75}]})"
                "\n");
}

TEST(StatusBoard, InterruptedFinishMarksPartial) {
  TempPath path("partial");
  obs::StatusBoard board({path.str(), 0.0, false, 0.25});
  board.begin_run("demo", obs::Provenance{}, 4, 1, 1, {"NONE"});
  board.cell_started(0);
  board.finish("interrupted");
  const auto doc = res::parse_json(read_file(path.str()));
  EXPECT_EQ(doc.at("state").as_string(), "interrupted");
  EXPECT_TRUE(doc.at("meta").at("partial").as_bool());
}

// ---------------------------------------------------------------------------
// Zero-overhead identity: observation never perturbs the simulation

TEST(StatusBoard, ObservedSweepIsBitwiseIdenticalToPlain) {
  cli::SweepPlan plain = small_plan();
  plain.metrics = true;
  const cli::SweepResult baseline = cli::run_sweep(plain);

  TempPath snapshot("identity");
  obs::StatusBoard::Options options;
  options.path = snapshot.str();
  options.heartbeat_s = 0.0;  // maximum observation pressure
  obs::StatusBoard board(options);

  cli::SweepPlan observed = small_plan();
  observed.metrics = true;
  observed.jobs = 4;  // and at different parallelism
  observed.status = &board;
  const cli::SweepResult result = cli::run_sweep(observed);

  EXPECT_EQ(baseline.metrics_json, result.metrics_json);
  EXPECT_EQ(report_json(baseline), report_json(result));

  // ... and the snapshot faithfully describes the finished sweep.
  const report::Artifact artifact = report::load_artifact(snapshot.str());
  ASSERT_EQ(artifact.kind, report::ArtifactKind::kStatus);
  EXPECT_EQ(artifact.status.state, "done");
  EXPECT_EQ(artifact.status.cells.total, 8u);
  EXPECT_EQ(artifact.status.cells.done, 8u);
  EXPECT_EQ(artifact.status.cells.executed, 8u);
  EXPECT_EQ(artifact.status.cells.quarantined, 0u);
  ASSERT_EQ(artifact.status.groups.size(), 4u);
  for (const auto& group : artifact.status.groups)
    EXPECT_EQ(group.done, group.total);
}

// ---------------------------------------------------------------------------
// Artifact loading: kind sniffing from document structure

TEST(ArtifactLoad, SniffsEveryEmitterWithoutFilenameHints) {
  cli::SweepPlan plan = small_plan();
  plan.metrics = true;
  plan.timeline = true;
  TempPath journal("journal");
  plan.journal_path = journal.str();
  const cli::SweepResult result = cli::run_sweep(plan);

  const report::Artifact loaded_journal =
      report::load_artifact(journal.str());
  ASSERT_EQ(loaded_journal.kind, report::ArtifactKind::kJournal);
  EXPECT_EQ(loaded_journal.journal.header.cells, 8u);
  ASSERT_EQ(loaded_journal.journal.cells.size(), 8u);
  EXPECT_EQ(loaded_journal.journal.header.trials, 2u);

  TempPath metrics("metrics");
  write_file(metrics.str(), result.metrics_json);
  const report::Artifact loaded_metrics =
      report::load_artifact(metrics.str());
  ASSERT_EQ(loaded_metrics.kind, report::ArtifactKind::kMetrics);
  EXPECT_FALSE(loaded_metrics.metrics.counters.empty());

  TempPath timeline("timeline");
  write_file(timeline.str(), result.timeline_json);
  const report::Artifact loaded_timeline =
      report::load_artifact(timeline.str());
  ASSERT_EQ(loaded_timeline.kind, report::ArtifactKind::kTimeline);
  EXPECT_GT(loaded_timeline.timeline.events, 0u);

  TempPath profile("profile");
  write_file(profile.str(),
             R"({"meta":{"version":"t","build_type":"Release","seed":1,)"
             R"("config_digest":"0123456789abcdef"},)"
             R"("tasks":8,"wall_s":1.5,"mean_task_s":0.1,"min_task_s":0.05,)"
             R"("max_task_s":0.2,"mean_queue_wait_s":0.01,)"
             R"("max_queue_wait_s":0.02,"workers":[{"worker":0,"tasks":8,)"
             R"("busy_s":0.8,"utilization":0.53}]})"
             "\n");
  const report::Artifact loaded_profile =
      report::load_artifact(profile.str());
  ASSERT_EQ(loaded_profile.kind, report::ArtifactKind::kProfile);
  EXPECT_EQ(loaded_profile.profile.tasks, 8u);
  ASSERT_EQ(loaded_profile.profile.workers.size(), 1u);
  EXPECT_EQ(loaded_profile.profile.workers[0].busy_s, 0.8);

  TempPath quarantine("quarantine");
  write_file(quarantine.str(),
             R"({"meta":{"version":"t","build_type":"Release","seed":1,)"
             R"("config_digest":"0123456789abcdef"},)"
             R"("quarantined":[{"index":3,"key":"00000000000000ab","seed":1,)"
             R"("trials":2,"label":"DLB","outcome":"crashed","attempts":2,)"
             R"("error":"boom"}]})"
             "\n");
  const report::Artifact loaded_quarantine =
      report::load_artifact(quarantine.str());
  ASSERT_EQ(loaded_quarantine.kind, report::ArtifactKind::kQuarantine);
  ASSERT_EQ(loaded_quarantine.quarantine.size(), 1u);
  EXPECT_EQ(loaded_quarantine.quarantine[0].error, "boom");

  TempPath series("series");
  write_file(series.str(),
             R"({"meta":{"version":"t","build_type":"Release","seed":1,)"
             R"("config_digest":"0123456789abcdef"},)"
             R"("title":"fig1","x_label":"dynamism","x":[0,0.3],)"
             R"("series":[{"name":"NONE","mean_makespan_s":[1.5,null],)"
             R"("mean_adaptations":[0,0]}]})"
             "\n");
  const report::Artifact loaded_series = report::load_artifact(series.str());
  ASSERT_EQ(loaded_series.kind, report::ArtifactKind::kSeries);
  ASSERT_EQ(loaded_series.series.series.size(), 1u);
  EXPECT_TRUE(std::isnan(loaded_series.series.series[0].y[1]));

  TempPath junk("junk");
  write_file(junk.str(), R"({"hello":"world"})");
  EXPECT_THROW((void)report::load_artifact(junk.str()), std::runtime_error);
  EXPECT_THROW((void)report::load_artifact("/nonexistent/simsweep_artifact"),
               std::runtime_error);
}

/// `item` through the shared writer, stamped with `meta` when set.
template <typename T>
std::string written(const T& item, const obs::Provenance* meta = nullptr) {
  std::ostringstream os;
  obs::write_json(os, item, meta);
  return os.str();
}

TEST(ArtifactLoad, WhatTheWriterWroteLoadsBackFieldForField) {
  // Shortest round-trip text is one-to-one on doubles and parse_json
  // re-reads a token's exact bits, so writing a loaded struct again gives
  // the file's bytes exactly when every written field came back bitwise;
  // a null (non-finite double) comes back as NaN.
  const auto load = [](const std::string& stem, const std::string& bytes) {
    TempPath file(stem);
    write_file(file.str(), bytes);
    return report::load_artifact(file.str());
  };
  const obs::Provenance meta{"v1", "Release", 9, "0123456789abcdef", true};

  // Provenance (with "partial") and TrialStats: null, -0 and a subnormal.
  simsweep::core::TrialStats stats;
  stats.mean = kNaN;
  stats.stddev = -0.0;
  stats.min = 4.9406564584124654e-324;
  stats.max = 0.1 + 0.2;
  stats.trials = 5;
  stats.unfinished = 3;
  stats.stalled = 2;
  stats.resource_exhausted = 1;
  stats.mean_time_lost_s = std::numeric_limits<double>::infinity();
  stats.audit_violations = 7;
  std::ostringstream stats_json;
  stats.print_json(stats_json, &meta);
  const report::Artifact s = load("rt_stats", stats_json.str());
  ASSERT_EQ(s.kind, report::ArtifactKind::kStats);
  EXPECT_EQ(written(*s.meta), written(meta));
  EXPECT_EQ(written(s.stats, &*s.meta), stats_json.str());
  EXPECT_TRUE(std::isnan(s.stats.mean));
  EXPECT_TRUE(std::isnan(s.stats.mean_time_lost_s));
  EXPECT_TRUE(std::signbit(s.stats.stddev));
  EXPECT_EQ(s.stats.min, stats.min);

  // Metrics, with gauge and histogram snapshots.
  obs::MetricsRegistry registry;
  registry.add(obs::labelled("net.flows", "kind", "swap"), 3);
  registry.set_gauge("depth", 2.5);
  registry.set_gauge("depth", -1.0);
  registry.histogram("h", {1.0, 2.0}).observe(1.5);
  std::ostringstream metrics_json;
  registry.write_json(metrics_json, &meta);
  const report::Artifact m = load("rt_metrics", metrics_json.str());
  EXPECT_EQ(written(m.metrics, &*m.meta), metrics_json.str());
  EXPECT_EQ(m.metrics.gauges.at("depth").min, -1.0);

  // A series with a cell that never ran.
  simsweep::core::SeriesReport series;
  series.title = "fig \"4\"";
  series.x_label = "dynamism";
  series.x = {0.0, 0.3};
  series.series.push_back({"SWAP", {1234.5678901234567, kNaN}, {2.0, kNaN}});
  std::ostringstream series_json;
  series.print_json(series_json, &meta);
  const report::Artifact r = load("rt_series", series_json.str());
  EXPECT_EQ(written(r.series, &*r.meta), series_json.str());
  EXPECT_TRUE(std::isnan(r.series.series[0].y[1]));

  // A profile and a status snapshot embedding its workers.
  obs::TrialProfiler profiler;
  profiler.record(0, 0, 0.0, 0.125, 2.0);
  profiler.record(1, 1, 0.0, 0.5, 1.0 / 3.0 + 1.0);
  std::ostringstream profile_json;
  profiler.write_json(profile_json, &meta);
  const report::Artifact p = load("rt_profile", profile_json.str());
  EXPECT_EQ(written(p.profile, &*p.meta), profile_json.str());
  TempPath board_file("rt_board");
  obs::StatusBoard board({board_file.str(), 0.0, false, 0.25});
  board.begin_run("demo", meta, 4, 2, 2, {"NONE", "SWAP"});
  board.set_profiler(&profiler);
  board.cell_started(0);
  board.cell_finished(0, 0.75);
  const std::string snapshot = board.snapshot_json();
  const report::Artifact st = load("rt_status", snapshot);
  EXPECT_EQ(written(st.status) + "\n", snapshot);
  ASSERT_TRUE(st.status.workers.has_value());
  EXPECT_EQ(st.status.workers->size(), 2u);

  // A quarantine report of every failure outcome.
  std::vector<res::QuarantineRecord> records = {
      {1, "00000000000000a1", 9, 2, "x", res::TrialOutcomeKind::kHung, 2, ""},
      {4, "00000000000000a4", 9, 2, "y", res::TrialOutcomeKind::kCrashed, 1,
       "boom\n"},
      {6, "00000000000000a6", 9, 2, "z", res::TrialOutcomeKind::kAuditFailed,
       3, "bad"}};
  std::ostringstream quarantine_json;
  res::write_quarantine_json(quarantine_json, records, &meta);
  const report::Artifact q = load("rt_quarantine", quarantine_json.str());
  EXPECT_EQ(written(q.quarantine, &*q.meta) + "\n", quarantine_json.str());
  EXPECT_EQ(q.quarantine[2].outcome, res::TrialOutcomeKind::kAuditFailed);

  // A journal header and its records, embedded metrics and timelines.
  cli::SweepPlan plan = small_plan();
  plan.metrics = true;
  plan.timeline = true;
  TempPath journal("rt_journal");
  plan.journal_path = journal.str();
  (void)cli::run_sweep(plan);
  const std::string journal_text = read_file(journal.str());
  const report::Artifact j = report::load_artifact(journal.str());
  std::string rewritten = written(j.journal.header) + "\n";
  for (const report::JournalModel::Cell& cell : j.journal.cells) {
    const std::string line = written([&](auto& v) {
      walk(v, const_cast<res::JournalRecord&>(cell.record), j.journal.header);
    });
    EXPECT_EQ(line, cell.raw);
    ASSERT_TRUE(cell.record.metrics.has_value());
    rewritten += line + "\n";
  }
  EXPECT_EQ(rewritten, journal_text);

  // Decision records of both kinds; an infinite payback comes back NaN.
  namespace strat = simsweep::strategy;
  strat::DecisionRecord boundary;
  boundary.iteration = 3;
  boundary.time_s = 360.25;
  boundary.considered.resize(2);
  boundary.considered[0].to = 7;
  boundary.considered[0].to_est_speed = 2.5e8;
  boundary.considered[1].payback_iters =
      std::numeric_limits<double>::infinity();
  boundary.considered[1].rejection = simsweep::swap::RejectReason::kPayback;
  strat::DecisionRecord recovery;
  recovery.kind = strat::TraceKind::kRecovery;
  recovery.action = "replace_on_spares";
  recovery.processes = 2;
  std::ostringstream trace;
  strat::write_trace_jsonl(trace, "SWAP(greedy)", 12, 1, {boundary, recovery});
  const report::Artifact d = load("rt_decisions", trace.str());
  ASSERT_EQ(d.kind, report::ArtifactKind::kDecisions);
  ASSERT_EQ(d.decisions.size(), 2u);
  EXPECT_EQ(written(d.decisions[0]) + "\n" + written(d.decisions[1]) + "\n",
            trace.str());
  EXPECT_TRUE(std::isnan(d.decisions[0].record.considered[1].payback_iters));
  EXPECT_EQ(d.decisions[1].record.action, "replace_on_spares");
}

// ---------------------------------------------------------------------------
// Diff: tolerance boundaries, NaN semantics, direction awareness

report::Artifact metrics_artifact(
    std::map<std::string, double> gauge_last_values) {
  report::Artifact artifact;
  artifact.kind = report::ArtifactKind::kMetrics;
  for (const auto& [name, last] : gauge_last_values) {
    obs::Gauge::Snapshot gauge;
    gauge.last = gauge.min = gauge.max = last;
    artifact.metrics.gauges[name] = gauge;
  }
  return artifact;
}

const report::KeyDelta* find_delta(const report::DiffResult& result,
                                   const std::string& key) {
  for (const auto& delta : result.deltas)
    if (delta.key == key) return &delta;
  return nullptr;
}

TEST(Diff, AbsoluteToleranceBoundaryIsInclusive) {
  const auto a = metrics_artifact({{"g", 1.0}});
  const auto at_tol = metrics_artifact({{"g", 1.5}});
  report::DiffOptions options;
  options.abs_tol = 0.5;
  const auto ok = report::diff_artifacts(a, at_tol, options);
  EXPECT_FALSE(ok.regression());  // |delta| == abs_tol passes
  EXPECT_EQ(ok.within_tol, ok.compared);

  const auto over_tol = metrics_artifact({{"g", 1.5625}});
  const auto gated = report::diff_artifacts(a, over_tol, options);
  EXPECT_TRUE(gated.regression());
}

TEST(Diff, RelativeToleranceScalesWithTheLargerMagnitude) {
  const auto a = metrics_artifact({{"g", 100.0}});
  const auto b = metrics_artifact({{"g", 110.0}});
  report::DiffOptions loose;
  loose.rel_tol = 0.1;  // 10 <= 0.1 * max(100, 110) = 11
  EXPECT_FALSE(report::diff_artifacts(a, b, loose).regression());
  report::DiffOptions tight;
  tight.rel_tol = 0.05;  // 10 > 5.5
  EXPECT_TRUE(report::diff_artifacts(a, b, tight).regression());
}

TEST(Diff, NaNEqualsNaNButNotNumbers) {
  // A quarantined cell that stayed quarantined is not a regression; a cell
  // that disappeared (or came back) is, in either direction.
  const auto both = report::diff_artifacts(metrics_artifact({{"g", kNaN}}),
                                           metrics_artifact({{"g", kNaN}}),
                                           report::DiffOptions{});
  EXPECT_FALSE(both.regression());
  EXPECT_EQ(both.within_tol, both.compared);

  const auto vanished = report::diff_artifacts(
      metrics_artifact({{"g", 2.0}}), metrics_artifact({{"g", kNaN}}),
      report::DiffOptions{});
  EXPECT_TRUE(vanished.regression());
  const auto* delta = find_delta(vanished, "gauges/g/last");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->verdict, report::Verdict::kRegressed);

  const auto returned = report::diff_artifacts(
      metrics_artifact({{"g", kNaN}}), metrics_artifact({{"g", 2.0}}),
      report::DiffOptions{});
  EXPECT_TRUE(returned.regression());
}

TEST(Diff, MissingKeyGatesAddedKeyInforms) {
  const auto missing = report::diff_artifacts(
      metrics_artifact({{"g", 1.0}, {"h", 2.0}}),
      metrics_artifact({{"g", 1.0}}), report::DiffOptions{});
  EXPECT_TRUE(missing.regression());
  const auto* gone = find_delta(missing, "gauges/h/last");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->verdict, report::Verdict::kMissing);

  const auto added = report::diff_artifacts(
      metrics_artifact({{"g", 1.0}}),
      metrics_artifact({{"g", 1.0}, {"h", 2.0}}), report::DiffOptions{});
  EXPECT_FALSE(added.regression());  // new keys never gate
  const auto* fresh = find_delta(added, "gauges/h/last");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->verdict, report::Verdict::kAdded);
}

TEST(Diff, LowerIsBetterKeysOnlyGateOnGrowth) {
  // "makespan" marks the key lower-is-better: shrinking beyond tolerance is
  // an improvement (reported, not gated); growth is a regression.
  const auto faster = report::diff_artifacts(
      metrics_artifact({{"makespan_s", 10.0}}),
      metrics_artifact({{"makespan_s", 8.0}}), report::DiffOptions{});
  EXPECT_FALSE(faster.regression());
  const auto* improved = find_delta(faster, "gauges/makespan_s/last");
  ASSERT_NE(improved, nullptr);
  EXPECT_EQ(improved->verdict, report::Verdict::kImproved);

  const auto slower = report::diff_artifacts(
      metrics_artifact({{"makespan_s", 10.0}}),
      metrics_artifact({{"makespan_s", 12.0}}), report::DiffOptions{});
  EXPECT_TRUE(slower.regression());

  // A direction-less key gates on any out-of-tolerance drift — this repo
  // promises bitwise identity, so unexplained movement must fail CI.
  const auto drift = report::diff_artifacts(
      metrics_artifact({{"queue_depth", 10.0}}),
      metrics_artifact({{"queue_depth", 8.0}}), report::DiffOptions{});
  EXPECT_TRUE(drift.regression());
  const auto* changed = find_delta(drift, "gauges/queue_depth/last");
  ASSERT_NE(changed, nullptr);
  EXPECT_EQ(changed->verdict, report::Verdict::kChanged);
}

TEST(Diff, KindMismatchThrows) {
  report::Artifact status;
  status.kind = report::ArtifactKind::kStatus;
  EXPECT_THROW((void)report::diff_artifacts(metrics_artifact({}), status,
                                            report::DiffOptions{}),
               std::invalid_argument);
}

TEST(Diff, StatusFlattenIgnoresRunPathCounters) {
  // A resumed sweep reuses cells a fresh run executes; both end "done" with
  // the same totals.  The flatten must compare the destination, not the
  // route, so resumed-vs-fresh gates nothing.
  report::Artifact fresh;
  fresh.kind = report::ArtifactKind::kStatus;
  fresh.status.cells.total = fresh.status.cells.done = 8;
  fresh.status.cells.executed = 8;
  fresh.status.groups.push_back({"NONE", 4, 4});

  report::Artifact resumed = fresh;
  resumed.status.cells.executed = 3;
  resumed.status.cells.reused = 5;
  resumed.status.cells.retries = 2;

  const auto result =
      report::diff_artifacts(fresh, resumed, report::DiffOptions{});
  EXPECT_FALSE(result.regression());
  EXPECT_TRUE(result.deltas.empty());
}

// ---------------------------------------------------------------------------
// Top: hot-spot ranking

TEST(Top, RanksJournalCellsBySimulatedMakespan) {
  cli::SweepPlan plan = small_plan();
  TempPath journal("top");
  plan.journal_path = journal.str();
  (void)cli::run_sweep(plan);

  const report::Artifact artifact = report::load_artifact(journal.str());
  const auto top = report::top_entries(artifact, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].value, top[1].value);
  EXPECT_GE(top[1].value, top[2].value);

  report::Artifact timeline;
  timeline.kind = report::ArtifactKind::kTimeline;
  EXPECT_THROW((void)report::top_entries(timeline, 3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Analysis over every artifact kind: flatten, diff, summary and top

constexpr report::ArtifactKind kAllKinds[] = {
    report::ArtifactKind::kMetrics,    report::ArtifactKind::kTimeline,
    report::ArtifactKind::kProfile,    report::ArtifactKind::kJournal,
    report::ArtifactKind::kQuarantine, report::ArtifactKind::kStatus,
    report::ArtifactKind::kSeries,     report::ArtifactKind::kStats,
    report::ArtifactKind::kDecisions};

/// A small artifact of `kind` whose model sets every field that flatten,
/// the summary and top read.  Every kind but the journal and the decision
/// trace carries meta.
report::Artifact fixture(report::ArtifactKind kind) {
  using report::ArtifactKind;
  report::Artifact a;
  a.kind = kind;
  a.path = "fixture." + std::string(report::to_string(kind));
  if (kind != ArtifactKind::kJournal && kind != ArtifactKind::kDecisions)
    a.meta = obs::Provenance{"t", "Release", 1, "0123456789abcdef"};
  switch (kind) {
    case ArtifactKind::kMetrics: {
      a.metrics.counters["run.trials"] = 8;
      a.metrics.gauges["run.makespan_s"] = {3.0, 2.0, 4.0};
      obs::Histogram::Snapshot h;
      h.bounds = {1.0, 2.0};
      h.counts = {0, 5, 2};
      h.count = 7;
      h.sum = 10.5;
      h.min = 1.25;
      h.max = 2.5;
      a.metrics.histograms["load"] = h;
      break;
    }
    case ArtifactKind::kTimeline:
      a.timeline = {120, 3, 4.5e6};
      break;
    case ArtifactKind::kProfile:
      a.profile.tasks = 8;
      a.profile.wall_s = 1.5;
      a.profile.mean_task_s = 0.125;
      a.profile.min_task_s = 0.0625;
      a.profile.max_task_s = 0.25;
      a.profile.workers = {{5, 0.75, 0.5}, {3, 0.375, 0.25}};
      break;
    case ArtifactKind::kJournal:
      a.journal.header.scenario = "fig4";
      a.journal.header.version = 1;
      a.journal.header.trials = 2;
      a.journal.header.points = 2;
      a.journal.header.cells = 4;
      for (const std::size_t index : {0u, 2u}) {
        report::JournalModel::Cell cell;
        cell.record.index = index;
        cell.record.label = index == 0 ? "NONE" : "SWAP";
        cell.record.stats.trials = 2;
        cell.record.stats.mean = 100.0 + static_cast<double>(index);
        a.journal.cells.push_back(cell);
      }
      break;
    case ArtifactKind::kQuarantine:
      a.quarantine.push_back({3, "00000000000000ab", 1, 2, "DLB",
                              res::TrialOutcomeKind::kCrashed, 2, "boom"});
      break;
    case ArtifactKind::kStatus:
      a.status.scenario = "fig4";
      a.status.state = "running";
      a.status.jobs = 2;
      a.status.cells.total = 8;
      a.status.cells.done = 6;
      a.status.cells.retries = 1;
      a.status.cells.quarantined = 1;
      a.status.groups = {{"NONE", 4, 4}, {"SWAP", 2, 4}};
      a.status.elapsed_s = 3.0;
      a.status.eta = {0.5, 1.0, 75.0};
      a.status.workers =
          std::vector<obs::TrialProfiler::WorkerStats>{{4, 2.0, 0.5}};
      break;
    case ArtifactKind::kSeries:
      a.series.title = "fig4";
      a.series.x_label = "dynamism";
      a.series.x = {0.0, 0.3};
      a.series.series.push_back({"NONE", {1.5, kNaN}, {0.0, 0.0}});
      break;
    case ArtifactKind::kStats:
      a.stats.trials = 4;
      a.stats.mean = 2500.0;
      a.stats.stddev = 10.0;
      a.stats.unfinished = 1;
      a.stats.mean_adaptations = 3.0;
      break;
    case ArtifactKind::kDecisions: {
      simsweep::strategy::TraceLine boundary{"SWAP(greedy)", 0, 1, {}};
      boundary.record.considered.resize(2);
      boundary.record.considered[1].rejection =
          simsweep::swap::RejectReason::kPayback;
      simsweep::strategy::TraceLine recovery = boundary;
      recovery.record.kind = simsweep::strategy::TraceKind::kRecovery;
      recovery.record.considered.clear();
      a.decisions = {boundary, boundary, recovery};
      break;
    }
  }
  return a;
}

TEST(Analyze, EveryKindFlattensDiffsAndSummarizes) {
  using report::ArtifactKind;
  // Per kind: one flattened key, a change to it and the verdict that
  // change earns, and one line of the human summary.
  struct Case {
    std::string key;
    std::function<void(report::Artifact&)> change;
    report::Verdict verdict;
    std::string summary_line;
  };
  const std::map<ArtifactKind, Case> cases{
      {ArtifactKind::kMetrics,
       {"histograms/load/bucket1",
        [](report::Artifact& a) { a.metrics.histograms["load"].counts[1] = 6; },
        report::Verdict::kChanged, "  counter run.trials = 8\n"}},
      {ArtifactKind::kTimeline,
       {"timeline/events", [](report::Artifact& a) { a.timeline.events = 121; },
        report::Verdict::kChanged,
        "  120 event(s) across 3 process(es), span 4500000 us\n"}},
      {ArtifactKind::kProfile,
       {"profile/workers",
        [](report::Artifact& a) { a.profile.workers.pop_back(); },
        report::Verdict::kChanged,
        "  worker 1: 3 task(s), busy 0.375 s (25%)\n"}},
      {ArtifactKind::kJournal,
       {"cells/2/mean",
        [](report::Artifact& a) {
          a.journal.cells[1].record.stats.mean = 103.0;
        },
        report::Verdict::kRegressed,
        "  scenario fig4 v1: 2/4 cell(s) recorded, 2 trial(s)/cell, 2 "
        "point(s)\n"}},
      {ArtifactKind::kQuarantine,
       {"quarantine/cell3",
        [](report::Artifact& a) { a.quarantine[0].attempts = 3; },
        report::Verdict::kRegressed,
        "  cell 3 (DLB): crashed after 2 attempt(s)\n"}},
      {ArtifactKind::kStatus,
       {"status/group/SWAP/done",
        [](report::Artifact& a) { a.status.groups[1].done = 3; },
        report::Verdict::kChanged,
        "  scenario fig4: running, 6/8 cell(s) (75%), 1 retry, 1 "
        "quarantined\n"}},
      {ArtifactKind::kSeries,
       {"series/NONE/x=0.3/makespan",
        [](report::Artifact& a) { a.series.series[0].y[1] = 2.0; },
        report::Verdict::kRegressed,
        "  fig4: 1 series over 2 point(s) of dynamism\n"}},
      {ArtifactKind::kStats,
       {"stats/unfinished", [](report::Artifact& a) { a.stats.unfinished = 2; },
        report::Verdict::kRegressed,
        "  4 trial(s): makespan mean 2500 s (stddev 10), 1 unfinished, 3 "
        "adaptation(s) per run\n"}},
      {ArtifactKind::kDecisions,
       {"decisions/rejection/accepted",
        [](report::Artifact& a) {
          a.decisions[0].record.considered.emplace_back();
        },
        report::Verdict::kChanged, "  3 record(s): 2 boundary, 1 recovery\n"}},
  };
  for (const ArtifactKind kind : kAllKinds) {
    const std::string name(report::to_string(kind));
    SCOPED_TRACE(name);
    const Case& c = cases.at(kind);
    const report::Artifact a = fixture(kind);

    const auto flat = report::flatten(a);
    const auto found =
        std::find_if(flat.begin(), flat.end(),
                     [&c](const auto& entry) { return entry.first == c.key; });
    EXPECT_NE(found, flat.end()) << c.key;

    const auto same = report::diff_artifacts(a, a, report::DiffOptions{});
    EXPECT_EQ(same.compared, flat.size());
    EXPECT_EQ(same.within_tol, flat.size());
    EXPECT_TRUE(same.deltas.empty());

    report::Artifact b = a;
    c.change(b);
    const auto changed = report::diff_artifacts(a, b, report::DiffOptions{});
    ASSERT_EQ(changed.deltas.size(), 1u);
    EXPECT_EQ(changed.deltas[0].key, c.key);
    EXPECT_EQ(changed.deltas[0].verdict, c.verdict);
    EXPECT_TRUE(changed.regression());

    std::ostringstream summary;
    report::print_summary(summary, a);
    const std::string head =
        a.path + ": " + name +
        (a.meta ? " (seed 1, config 0123456789abcdef)\n" : "\n");
    EXPECT_EQ(summary.str().rfind(head, 0), 0u) << summary.str();
    EXPECT_NE(summary.str().find(c.summary_line), std::string::npos)
        << summary.str();

    std::ostringstream json;
    report::write_summary_json(json, a);
    EXPECT_EQ(json.str().rfind("{\"kind\":\"" + name + "\"", 0), 0u);
    EXPECT_NE(json.str().find("\"" + c.key + "\":"), std::string::npos);
  }
}

TEST(Analyze, DiffReportNotesDigestMismatchAndPartialArtifacts) {
  const report::Artifact a = fixture(report::ArtifactKind::kStats);
  report::Artifact b = a;
  b.meta->config_digest = "fedcba9876543210";
  b.meta->partial = true;
  b.stats.unfinished = 2;
  std::ostringstream os;
  report::print_diff(os, a, b,
                     report::diff_artifacts(a, b, report::DiffOptions{}));
  const std::string text = os.str();
  EXPECT_NE(text.find("note: config digests differ (0123456789abcdef vs "
                      "fedcba9876543210)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("note: B is a partial artifact"), std::string::npos);
  EXPECT_NE(text.find("regressed  stats/unfinished  1 -> 2  (delta 1)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 delta(s), 1 gating\nverdict: REGRESSION\n"),
            std::string::npos)
      << text;

  // A partial A is named as such; a clean diff says ok.
  report::Artifact partial = a;
  partial.meta->partial = true;
  std::ostringstream clean;
  report::print_diff(
      clean, partial, a,
      report::diff_artifacts(partial, a, report::DiffOptions{}));
  EXPECT_NE(clean.str().find("note: A is a partial artifact"),
            std::string::npos);
  EXPECT_EQ(clean.str().find("config digests differ"), std::string::npos);
  EXPECT_NE(clean.str().find("verdict: ok\n"), std::string::npos);

  // Keys only one side has: a missing key gates, an added one informs.
  const auto before = metrics_artifact({{"g", 1.0}, {"h", 1.0}});
  const auto after = metrics_artifact({{"g", 1.0}, {"k", 2.0}});
  std::ostringstream keys;
  report::print_diff(
      keys, before, after,
      report::diff_artifacts(before, after, report::DiffOptions{}));
  EXPECT_NE(keys.str().find("missing  gauges/h/last  1 -> nan\n"),
            std::string::npos)
      << keys.str();
  EXPECT_NE(keys.str().find("added  gauges/k/last  nan -> 2\n"),
            std::string::npos)
      << keys.str();
  EXPECT_EQ(report::to_string(report::Verdict::kOk), "ok");
}

TEST(Analyze, TopRanksEveryKindWithSomethingToRank) {
  using report::ArtifactKind;
  const auto labels = [](const std::vector<report::TopEntry>& entries) {
    std::vector<std::string> out;
    for (const report::TopEntry& e : entries) out.push_back(e.label);
    return out;
  };
  // Metrics: the non-empty histogram buckets, fullest first.
  const auto buckets =
      report::top_entries(fixture(ArtifactKind::kMetrics), 5);
  EXPECT_EQ(labels(buckets),
            (std::vector<std::string>{"load [1, 2)", "load [2, +inf)"}));
  EXPECT_EQ(buckets[0].value, 5.0);
  EXPECT_EQ(buckets[0].unit, "sample(s)");
  // Journal: the slowest cells; profile and status: the busiest workers.
  EXPECT_EQ(labels(report::top_entries(fixture(ArtifactKind::kJournal), 1)),
            std::vector<std::string>{"cell 2 (SWAP)"});
  EXPECT_EQ(labels(report::top_entries(fixture(ArtifactKind::kProfile), 5)),
            (std::vector<std::string>{"worker 0", "worker 1"}));
  EXPECT_EQ(labels(report::top_entries(fixture(ArtifactKind::kStatus), 5)),
            std::vector<std::string>{"worker 0"});
  // A status snapshot written without a profiler has nothing to rank.
  report::Artifact bare = fixture(ArtifactKind::kStatus);
  bare.status.workers.reset();
  EXPECT_THROW((void)report::top_entries(bare, 5), std::invalid_argument);
  for (const ArtifactKind kind :
       {ArtifactKind::kTimeline, ArtifactKind::kQuarantine,
        ArtifactKind::kSeries, ArtifactKind::kStats, ArtifactKind::kDecisions})
    EXPECT_THROW((void)report::top_entries(fixture(kind), 5),
                 std::invalid_argument)
        << report::to_string(kind);
}

// ---------------------------------------------------------------------------
// Staleness

obs::StatusSnapshot running_at(double heartbeat_unix_s) {
  obs::StatusSnapshot status;
  status.state = "running";
  status.heartbeat_unix_s = heartbeat_unix_s;
  return status;
}

TEST(Staleness, StrictlyAboveThresholdAndOnlyWhileRunning) {
  const auto status = running_at(1000.0);
  EXPECT_EQ(report::staleness_s(status, 1025.0), 25.0);
  EXPECT_FALSE(report::is_stale(status, 1025.0, 30.0));
  EXPECT_FALSE(report::is_stale(status, 1030.0, 30.0));  // == is not stale
  EXPECT_TRUE(report::is_stale(status, 1030.5, 30.0));

  // Terminal states never go stale — the writer is supposed to be gone.
  auto done = running_at(1000.0);
  done.state = "done";
  EXPECT_FALSE(report::is_stale(done, 99999.0, 30.0));
  auto interrupted = running_at(1000.0);
  interrupted.state = "interrupted";
  EXPECT_FALSE(report::is_stale(interrupted, 99999.0, 30.0));
}

// ---------------------------------------------------------------------------
// Exit codes through the installed binary

TEST(ReportCli, DiffExitsZeroOnIdenticalAndThreeOnRegression) {
  cli::SweepPlan plan = small_plan();
  TempPath journal_a("cli_a");
  plan.journal_path = journal_a.str();
  (void)cli::run_sweep(plan);

  TempPath journal_b("cli_b");
  cli::SweepPlan same = small_plan();
  same.journal_path = journal_b.str();
  (void)cli::run_sweep(same);

  TempPath journal_c("cli_c");
  cli::SweepPlan shifted = small_plan();
  shifted.spec.seed = 2;  // an injected "regression": different results
  shifted.journal_path = journal_c.str();
  (void)cli::run_sweep(shifted);

  const std::string binary = SIMSWEEP_BINARY_PATH;
  int exit_code = -1;
  std::string output = run_command(
      binary + " report diff " + journal_a.str() + " " + journal_b.str(),
      exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("verdict: ok"), std::string::npos) << output;

  output = run_command(
      binary + " report diff " + journal_a.str() + " " + journal_c.str(),
      exit_code);
  EXPECT_EQ(exit_code, 3) << output;
  EXPECT_NE(output.find("verdict: REGRESSION"), std::string::npos) << output;

  // A huge relative tolerance waives the gate without hiding the deltas.
  output = run_command(binary + " report diff " + journal_a.str() + " " +
                           journal_c.str() + " --rel-tol=10",
                       exit_code);
  EXPECT_EQ(exit_code, 0) << output;

  output = run_command(binary + " report", exit_code);
  EXPECT_EQ(exit_code, 2) << output;  // usage error
}

TEST(ReportCli, StatusExitsFourOnStaleHeartbeat) {
  // A running snapshot whose heartbeat is decades old: the writer is dead.
  TempPath stale("stale");
  write_file(stale.str(),
             R"({"kind":"sweep-status","meta":{"version":"t","build_type":)"
             R"("Release","seed":1,"config_digest":"0000000000000000",)"
             R"("partial":true},)"
             R"("scenario":"demo","state":"running","heartbeat_unix_s":1000,)"
             R"("elapsed_s":5,"heartbeat_s":1,"jobs":2,"trials":2,)"
             R"("cells":{"total":8,"done":1,"reused":0,"executed":1,)"
             R"("in_flight":1,"retries":0,"quarantined":0},)"
             R"("groups":[{"name":"NONE","done":1,"total":8}],)"
             R"("eta":{"ewma_cell_s":0.5,"eta_s":3.5,"percent":12.5}})"
             "\n");

  const std::string binary = SIMSWEEP_BINARY_PATH;
  int exit_code = -1;
  std::string output =
      run_command(binary + " status " + stale.str(), exit_code);
  EXPECT_EQ(exit_code, 4) << output;
  EXPECT_NE(output.find("STALE"), std::string::npos) << output;

  // The same snapshot marked terminal is merely old, not stale.
  TempPath done("done");
  std::string body = read_file(stale.str());
  const auto pos = body.find("\"running\"");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, 9, "\"interrupted\"");
  write_file(done.str(), body);
  output = run_command(binary + " status " + done.str(), exit_code);
  EXPECT_EQ(exit_code, 0) << output;

  output = run_command(binary + " status", exit_code);
  EXPECT_EQ(exit_code, 2) << output;  // usage error
}

// ---------------------------------------------------------------------------
// report validate: the one reader of every schema

constexpr const char* kMeta =
    R"({"version":"t","build_type":"Release","seed":1,)"
    R"("config_digest":"0123456789abcdef"})";

constexpr const char* kStats =
    R"("mean":1,"stddev":0,"min":1,"max":1,"trials":2,"unfinished":0,)"
    R"("stalled":0,"resource_exhausted":0,"mean_adaptations":0,)"
    R"("mean_crashes":0,"mean_transfer_failures":0,"mean_recoveries":0,)"
    R"("mean_checkpoint_failures":0,"mean_time_lost_s":0,)"
    R"("audit_violations":0)";

using KindedFiles = std::vector<std::pair<std::string, std::string>>;

/// Every file one sweep writes with all artifacts on: journal, status
/// snapshots (every event, with a profiler), metrics, timeline, series,
/// quarantine report and --profile-json.
struct SweepArtifacts {
  TempPath journal{"v_journal"};
  TempPath status{"v_status"};
  TempPath metrics{"v_metrics"};
  TempPath timeline{"v_timeline"};
  TempPath series{"v_series"};
  TempPath quarantine{"v_quarantine"};
  TempPath profile{"v_profile"};

  cli::SweepResult run(cli::SweepPlan plan) const {
    obs::StatusBoard::Options board_options;
    board_options.path = status.str();
    board_options.heartbeat_s = 0.0;
    obs::StatusBoard board(board_options);
    obs::TrialProfiler profiler;
    plan.metrics = true;
    plan.timeline = true;
    plan.journal_path = journal.str();
    plan.status = &board;
    plan.profiler = &profiler;
    const cli::SweepResult result = cli::run_sweep(plan);

    write_file(metrics.str(), result.metrics_json);
    write_file(timeline.str(), result.timeline_json);
    write_file(series.str(), report_json(result) + "\n");
    std::ostringstream os;
    res::write_quarantine_json(os, result.quarantined, &result.provenance);
    write_file(quarantine.str(), os.str());
    os.str("");
    profiler.write_json(os, &result.provenance);
    write_file(profile.str(), os.str() + "\n");
    return result;
  }

  [[nodiscard]] KindedFiles files() const {
    return {{journal.str(), "journal"},       {status.str(), "status"},
            {metrics.str(), "metrics"},       {timeline.str(), "timeline"},
            {series.str(), "series"},         {quarantine.str(), "quarantine"},
            {profile.str(), "profile"}};
  }
};

/// `simsweep report validate` accepts every file as the named kind.
void expect_valid(const KindedFiles& files) {
  std::string command = std::string(SIMSWEEP_BINARY_PATH) + " report validate";
  std::string expected;
  for (const auto& [path, kind] : files) {
    command += " " + path;
    expected += "ok " + kind + " " + path + "\n";
  }
  int exit_code = -1;
  const std::string output = run_command(command, exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_EQ(output, expected);
}

TEST(ReportCli, ValidateAcceptsEveryEmitter) {
  // One sweep with every artifact on, one cell quarantined, plus the
  // single-run emitters and a journal cut short by the stop hook.
  SweepArtifacts sweep;
  cli::SweepPlan plan = small_plan();
  plan.trial_retries = 0;
  plan.hooks.inject_fail = {2};
  const cli::SweepResult result = sweep.run(plan);
  ASSERT_EQ(result.quarantined.size(), 1u);

  TempPath partial("v_partial");
  cli::SweepPlan stopped = small_plan();
  stopped.journal_path = partial.str();
  stopped.hooks.stop_after_cells = 3;
  (void)cli::run_sweep(stopped);

  TempPath stats("v_stats");
  std::ostringstream os;
  report::load_artifact(sweep.journal.str())
      .journal.cells[0]
      .record.stats.print_json(os, &result.provenance);
  write_file(stats.str(), os.str() + "\n");

  KindedFiles files = sweep.files();
  files.emplace_back(partial.str(), "journal");
  files.emplace_back(stats.str(), "stats");
  expect_valid(files);
}

TEST(ReportCli, ValidateAcceptsSweepsThatCompleteNoCell) {
  // Sweeps that finish no cell in this process still write every artifact:
  // stopped before the first cell, every cell quarantined, and every cell
  // replayed from a complete journal.  The first two write timelines with
  // no events.
  SweepArtifacts stopped;
  cli::SweepPlan stop_plan = small_plan();
  stop_plan.hooks.interrupted = [] { return true; };
  const cli::SweepResult stop_result = stopped.run(stop_plan);
  EXPECT_TRUE(stop_result.partial);
  EXPECT_EQ(stop_result.cells_executed, 0u);
  expect_valid(stopped.files());
  EXPECT_EQ(report::load_artifact(stopped.timeline.str()).timeline.events, 0u);

  SweepArtifacts failed;
  cli::SweepPlan fail_plan = small_plan();
  fail_plan.trial_retries = 0;
  fail_plan.hooks.inject_fail = {0, 1, 2, 3, 4, 5, 6, 7};
  const cli::SweepResult fail_result = failed.run(fail_plan);
  EXPECT_FALSE(fail_result.partial);
  EXPECT_EQ(fail_result.quarantined.size(), 8u);
  expect_valid(failed.files());
  EXPECT_EQ(report::load_artifact(failed.timeline.str()).timeline.events, 0u);

  SweepArtifacts complete;
  (void)complete.run(small_plan());
  SweepArtifacts replayed;
  cli::SweepPlan replay_plan = small_plan();
  replay_plan.resume_path = complete.journal.str();
  const cli::SweepResult replay_result = replayed.run(replay_plan);
  EXPECT_EQ(replay_result.cells_reused, 8u);
  expect_valid(replayed.files());
  EXPECT_EQ(report::load_artifact(replayed.status.str()).status.cells.reused,
            8u);
}

TEST(ReportCli, FirstHeartbeatWithProfilerIsValid) {
  // With --profile-json on, a snapshot carries "workers" from the first
  // heartbeat, before the profiler has recorded any task: an empty list.
  // A writer killed then leaves that snapshot, and `simsweep status` must
  // still read it (a stale one exits 4, not 1).
  TempPath path("first_heartbeat");
  obs::StatusBoard::Options options;
  options.path = path.str();
  options.heartbeat_s = 0.0;
  obs::StatusBoard board(options);
  obs::TrialProfiler profiler;
  board.begin_run("demo", obs::make_provenance(7, obs::hex64(0xcafe)), 8, 2,
                  1, {"NONE", "SWAP"});
  board.set_profiler(&profiler);
  board.cell_started(0);

  EXPECT_NE(read_file(path.str()).find("\"workers\":[]"), std::string::npos);
  const report::Artifact artifact = report::load_artifact(path.str());
  EXPECT_EQ(artifact.status.state, "running");
  ASSERT_TRUE(artifact.status.workers.has_value());
  EXPECT_TRUE(artifact.status.workers->empty());
  expect_valid({{path.str(), "status"}});
  const std::string binary = SIMSWEEP_BINARY_PATH;
  int exit_code = -1;
  std::string output = run_command(binary + " status " + path.str(), exit_code);
  EXPECT_EQ(exit_code, 0) << output;

  // The same snapshot once its writer has been dead for decades.
  std::string body = read_file(path.str());
  const std::size_t begin = body.find("\"heartbeat_unix_s\":");
  ASSERT_NE(begin, std::string::npos);
  body.replace(begin, body.find(',', begin) - begin,
               "\"heartbeat_unix_s\":1000");
  TempPath stale("first_heartbeat_stale");
  write_file(stale.str(), body);
  output = run_command(binary + " status " + stale.str(), exit_code);
  EXPECT_EQ(exit_code, 4) << output;
}

/// A running status snapshot with `cells_and_groups` spliced in.
std::string status_with(const std::string& cells_and_groups) {
  return R"({"kind":"sweep-status","meta":{"version":"t","build_type":"R",)"
         R"("seed":1,"config_digest":"0123456789abcdef","partial":true},)"
         R"("scenario":"demo","state":"running","heartbeat_unix_s":1000,)"
         R"("elapsed_s":5,"heartbeat_s":1,"jobs":2,"trials":2,)" +
         cells_and_groups +
         R"("eta":{"ewma_cell_s":0.5,"eta_s":3.5,"percent":25}})";
}

TEST(ReportCli, ValidateRejectsOneFixturePerCheckFamily) {
  const std::string meta = kMeta;
  const std::string stats = kStats;
  const std::string header =
      R"({"kind":"sweep-journal","version":2,"scenario":"sweep",)"
      R"("sweep":"0123456789abcdef","seed":1,"trials":2,"points":1,)";
  const struct {
    std::string body;
    std::string rule;
  } fixtures[] = {
      {"{\"hello\":\"world\"}", "not a recognized simsweep artifact"},
      {"{\"meta\":", "invalid JSON: json: "},
      {R"({"meta":{"version":"t","build_type":"Release","seed":1,)"
       R"("config_digest":"00"},"counters":{},"gauges":{},"histograms":{}})",
       "metrics: meta config_digest must be 16 lowercase hex chars"},
      {R"({"meta":)" + meta + R"(,"counters":{},"histograms":{}})",
       "metrics: keys [meta, counters, histograms] != "
       "[meta, counters, gauges, histograms]"},
      {R"({"meta":)" + meta + R"(,"counters":{},"gauges":{"g":{}},)"
       R"("histograms":{}})",
       "metrics: gauge 'g' keys [] != [last, min, max]"},
      {R"({"meta":)" + meta + R"(,"counters":{},"gauges":{"g":{"last":5,)"
       R"("min":0,"max":1}},"histograms":{}})",
       "metrics: gauge 'g' last outside [min, max]"},
      // A histogram with as many counts as bounds (it needs one more).
      {R"({"meta":)" + meta + R"(,"counters":{},"gauges":{},"histograms":)"
       R"({"h":{"count":0,"sum":0,"min":0,"max":0,"bounds":[1,2],)"
       R"("counts":[0,0]}}})",
       "metrics: histogram 'h' has 2 counts for 2 bounds"},
      // A timeline event with ts -5.
      {R"({"displayTimeUnit":"ms","otherData":{"meta":)" + meta +
           R"(},"traceEvents":[{"name":"process_name","ph":"M","pid":1,)"
           R"("tid":0,"args":{"name":"trial 0"}},{"name":"load","cat":"p",)"
           R"("ph":"i","ts":-5,"s":"t","pid":1,"tid":0}]})",
       "timeline: traceEvents[1] ts must be a non-negative number"},
      {header + R"("cells":0})" + "\n",
       "journal: header cells must be a positive integer"},
      // A journal record whose seed differs from its header.
      {header + R"("cells":1})" + "\n" +
           R"({"kind":"cell","index":0,"key":"0123456789abcdef","seed":2,)"
           R"("trials":2,"label":"NONE","outcome":"ok","stats":{)" + stats +
           "}}\n",
       "journal: line 2: seed differs from header"},
      // A quarantine record with outcome "exploded".
      {R"({"meta":)" + meta + R"(,"quarantined":[{"index":0,)"
       R"("key":"0123456789abcdef","seed":1,"trials":2,"label":"NONE",)"
       R"("outcome":"exploded","attempts":1,"error":"boom"}]})",
       "quarantine: quarantined[0] outcome 'exploded' not a failure kind"},
      // A status snapshot whose done != reused + executed + quarantined.
      {R"({"kind":"sweep-status","meta":{"version":"t","build_type":"R",)"
       R"("seed":1,"config_digest":"0123456789abcdef","partial":true},)"
       R"("scenario":"demo","state":"running","heartbeat_unix_s":1000,)"
       R"("elapsed_s":5,"heartbeat_s":1,"jobs":2,"trials":2,)"
       R"("cells":{"total":8,"done":2,"reused":0,"executed":1,)"
       R"("in_flight":1,"retries":0,"quarantined":0},)"
       R"("groups":[{"name":"NONE","done":2,"total":8}],)"
       R"("eta":{"ewma_cell_s":0.5,"eta_s":3.5,"percent":25}})",
       "status: done != reused + executed + quarantined"},
      {R"({"meta":)" + meta + R"(,"tasks":1,"wall_s":1,"mean_task_s":1,)"
       R"("min_task_s":1,"max_task_s":1,"mean_queue_wait_s":0,)"
       R"("max_queue_wait_s":0,"workers":[{"worker":0,"tasks":1,)"
       R"("busy_s":1,"utilization":1.5}]})",
       "profile: workers[0] utilization outside [0, 1]"},
      {R"({"meta":)" + meta + R"(,"title":"t","x_label":"x","x":[0,1],)"
       R"("series":[{"name":"NONE","mean_makespan_s":[1],)"
       R"("mean_adaptations":[0,0]}]})",
       "series: series[0] mean_makespan_s has 1 entries for 2 x points"},
      {R"({"meta":)" + meta + "," +
           std::string(kStats).replace(stats.find("\"stalled\":0"), 11,
                                       "\"stalled\":1") +
           "}",
       "stats: needs resource_exhausted <= stalled <= unfinished <= trials"},
      // Sums that wrap past 2^64 back onto their total.
      {R"({"meta":)" + meta + R"(,"counters":{},"gauges":{},"histograms":)"
       R"({"h":{"count":0,"sum":0,"min":0,"max":0,"bounds":[1],)"
       R"("counts":[18446744073709551615,1]}}})",
       "metrics: histogram 'h' bucket counts do not sum to count"},
      {status_with(R"("cells":{"total":8,"done":2,)"
                   R"("reused":18446744073709551615,"executed":3,)"
                   R"("in_flight":1,"retries":0,"quarantined":0},)"
                   R"("groups":[{"name":"NONE","done":2,"total":8}],)"),
       "status: done != reused + executed + quarantined"},
      {status_with(R"("cells":{"total":8,"done":2,"reused":0,"executed":2,)"
                   R"("in_flight":1,"retries":0,"quarantined":0},)"
                   R"("groups":[{"name":"A","done":0,)"
                   R"("total":18446744073709551615},)"
                   R"({"name":"B","done":2,"total":9}],)"),
       "status: group totals do not sum to cells.total"},
      {R"({"meta":)" + meta + R"(,"tasks":1,"wall_s":1,"mean_task_s":1,)"
       R"("min_task_s":1,"max_task_s":1,"mean_queue_wait_s":0,)"
       R"("max_queue_wait_s":0,"workers":[{"worker":0,)"
       R"("tasks":18446744073709551615,"busy_s":1,"utilization":1},)"
       R"({"worker":1,"tasks":2,"busy_s":1,"utilization":1}]})",
       "profile: worker task counts do not sum to tasks"},
  };
  const std::string binary = SIMSWEEP_BINARY_PATH;
  for (const auto& fixture : fixtures) {
    TempPath file("v_bad");
    write_file(file.str(), fixture.body);
    int exit_code = -1;
    const std::string output =
        run_command(binary + " report validate " + file.str(), exit_code);
    EXPECT_EQ(exit_code, 1) << output;
    EXPECT_EQ(output.rfind("FAIL " + file.str() + ": " + fixture.rule, 0), 0u)
        << output;
    try {
      (void)report::load_artifact(file.str());
      ADD_FAILURE() << "loaded: " << fixture.body;
    } catch (const report::ArtifactError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "report: '" + file.str() + "': " + fixture.rule, 0),
                0u)
          << e.what();
    }
  }
}

TEST(ReportCli, SummaryWritesNothingWhenAnyFileFails) {
  // `summary A B --json` loads B before writing A's entry, so a bad B
  // leaves stdout empty instead of a truncated document.
  TempPath good("summary_good");
  write_file(good.str(), std::string(R"({"meta":)") + kMeta + "," + kStats +
                             "}\n");
  const std::string command = std::string(SIMSWEEP_BINARY_PATH) +
                              " report summary " + good.str() +
                              " /nonexistent/simsweep_artifact";
  for (const std::string& flags : {std::string(" --json"), std::string()}) {
    int exit_code = -1;
    // The subshell's stderr goes to /dev/null: only stdout is captured.
    const std::string output =
        run_command("(" + command + flags + " 2>/dev/null)", exit_code);
    EXPECT_EQ(exit_code, 1) << flags;
    EXPECT_EQ(output, "") << flags;
  }
}

TEST(ReportCli, DecisionTracesValidateSummarizeAndDiff) {
  // SWAP traces boundary records; CR under crashes adds recovery records.
  const std::string binary = SIMSWEEP_BINARY_PATH;
  TempPath swap("d_swap");
  TempPath cr("d_cr");
  TempPath none("d_none");
  const std::string run =
      binary + " run --hosts=8 --active=4 --iters=10 --trials=2 ";
  int exit_code = -1;
  std::string output = run_command(
      run + "--strategy=swap --trace-decisions=" + swap.str(), exit_code);
  ASSERT_EQ(exit_code, 0) << output;
  output = run_command(
      run + "--strategy=cr --mtbf-hours=1 --trace-decisions=" + cr.str(),
      exit_code);
  ASSERT_EQ(exit_code, 0) << output;
  expect_valid({{swap.str(), "decisions"}, {cr.str(), "decisions"}});

  const report::Artifact swaps = report::load_artifact(swap.str());
  const report::Artifact crs = report::load_artifact(cr.str());
  ASSERT_FALSE(swaps.decisions.empty());
  EXPECT_FALSE(swaps.meta.has_value());
  const auto recovery = [](const simsweep::strategy::TraceLine& line) {
    return line.record.kind == simsweep::strategy::TraceKind::kRecovery;
  };
  EXPECT_TRUE(std::any_of(crs.decisions.begin(), crs.decisions.end(),
                          recovery));
  const auto flat = report::flatten(crs);
  const auto value = [&flat](const std::string& key) {
    for (const auto& [k, v] : flat)
      if (k == key) return v;
    ADD_FAILURE() << "no key " << key;
    return kNaN;
  };
  EXPECT_EQ(value("decisions/records"), value("decisions/kind/boundary") +
                                            value("decisions/kind/recovery"));
  EXPECT_GT(value("decisions/kind/recovery"), 0.0);

  output = run_command(binary + " report summary " + cr.str(), exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find(" record(s): "), std::string::npos) << output;
  output = run_command(binary + " report diff " + swap.str() + " " + swap.str(),
                       exit_code);
  EXPECT_EQ(exit_code, 0) << output;

  // A run that decides nothing writes an empty trace, which names no kind.
  output = run_command(
      run + "--strategy=none --trace-decisions=" + none.str(), exit_code);
  ASSERT_EQ(exit_code, 0) << output;
  EXPECT_EQ(read_file(none.str()), "");
  output = run_command(binary + " report validate " + none.str(), exit_code);
  EXPECT_EQ(exit_code, 1) << output;
}

TEST(ReportCli, SummaryJsonDocumentShape) {
  cli::SweepPlan plan = small_plan();
  plan.metrics = true;
  TempPath journal("s_journal");
  plan.journal_path = journal.str();
  const cli::SweepResult result = cli::run_sweep(plan);
  TempPath metrics("s_metrics");
  write_file(metrics.str(), result.metrics_json);

  int exit_code = -1;
  const std::string output = run_command(
      std::string(SIMSWEEP_BINARY_PATH) + " report summary " + metrics.str() +
          " " + journal.str() + " --json",
      exit_code);
  ASSERT_EQ(exit_code, 0) << output;
  const res::JsonValue doc = res::parse_json(output);
  ASSERT_EQ(doc.object.size(), 2u);
  EXPECT_EQ(doc.object[0].first, "kind");
  EXPECT_EQ(doc.at("kind").as_string(), "report-summary");
  EXPECT_EQ(doc.object[1].first, "artifacts");
  const auto& artifacts = doc.at("artifacts").as_array();
  ASSERT_EQ(artifacts.size(), 2u);
  const std::vector<std::string> kinds = {"metrics", "journal"};
  const std::vector<std::string> paths = {metrics.str(), journal.str()};
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    const res::JsonValue& a = artifacts[i];
    ASSERT_EQ(a.object.size(), 4u);
    EXPECT_EQ(a.object[0].first, "kind");
    EXPECT_EQ(a.object[1].first, "path");
    EXPECT_EQ(a.object[2].first, "meta");
    EXPECT_EQ(a.object[3].first, "values");
    EXPECT_EQ(a.at("kind").as_string(), kinds[i]);
    EXPECT_EQ(a.at("path").as_string(), paths[i]);
    EXPECT_FALSE(a.at("values").object.empty());
    for (const auto& [key, value] : a.at("values").object)
      EXPECT_TRUE(value.kind == res::JsonValue::Kind::kNumber ||
                  value.is_null())
          << key;
  }
  // Metrics carry the provenance block; the journal has none.
  const res::JsonValue& meta = artifacts[0].at("meta");
  EXPECT_EQ(meta.at("seed").as_uint64(), 1u);
  EXPECT_EQ(meta.at("config_digest").as_string().size(), 16u);
  EXPECT_TRUE(artifacts[1].at("meta").is_null());
}

}  // namespace
