// Observability layer: metrics registry semantics (bucket edges, labels,
// merge associativity), timeline ordering and Chrome export, trial-engine
// profiler arithmetic, provenance digests — and the two identities the
// design rests on: an observed run is bitwise identical to a plain one,
// and the merged metrics snapshot is identical at any --jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/sweep_runner.hpp"
#include "golden_scenarios.hpp"
#include "load/hyperexp.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "load/reclamation.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/timeline.hpp"

namespace obs = simsweep::obs;
namespace core = simsweep::core;
namespace load = simsweep::load;

namespace {

std::string registry_json(const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  registry.write_json(out);
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulates) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("hits"), 0u);
  registry.add("hits");
  registry.add("hits", 41);
  EXPECT_EQ(registry.counter_value("hits"), 42u);
}

TEST(Metrics, GaugeTracksLastMinMax) {
  obs::MetricsRegistry registry;
  registry.set_gauge("depth", 3.0);
  registry.set_gauge("depth", -1.0);
  registry.set_gauge("depth", 2.0);
  const auto snap = registry.gauge_snapshot("depth");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->last, 2.0);
  EXPECT_EQ(snap->min, -1.0);
  EXPECT_EQ(snap->max, 3.0);
  EXPECT_FALSE(registry.gauge_snapshot("missing").has_value());
}

TEST(Metrics, HistogramBucketEdgesAreUpperInclusive) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1        -> bucket 0
  h.observe(1.0);    // == bound 0  -> bucket 0 (inclusive upper edge)
  h.observe(1.5);    //             -> bucket 1
  h.observe(10.0);   // == bound 1  -> bucket 1
  h.observe(100.0);  // == bound 2  -> bucket 2
  h.observe(100.5);  // above last  -> overflow
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.min, 0.5);
  EXPECT_EQ(snap.max, 100.5);
}

TEST(Metrics, HistogramHandlesInfinitiesAndRejectsNaN) {
  obs::Histogram h({1.0});
  h.observe(-std::numeric_limits<double>::infinity());  // first bucket
  h.observe(std::numeric_limits<double>::infinity());   // overflow bucket
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_THROW(h.observe(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Metrics, HistogramRejectsUnsortedBoundsAndMismatchedMerge) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  obs::Histogram a({1.0, 2.0});
  obs::Histogram b({1.0, 3.0});
  EXPECT_THROW(a.merge(b.snapshot()), std::invalid_argument);
}

TEST(Metrics, MergeRejectsSnapshotWithoutOneCountPerBucket) {
  // A snapshot read from a malformed artifact must not index past the end
  // of the bucket array: bounds + 1 counts, overflow bucket last.
  obs::Histogram h({1.0, 2.0});
  obs::Histogram::Snapshot short_snap{{1.0, 2.0}, {1, 0}, 1, 0.5, 0.5, 0.5};
  EXPECT_THROW(h.merge(short_snap), std::invalid_argument);
  obs::Histogram::Snapshot long_snap{{1.0, 2.0}, {1, 0, 0, 0}, 1, 0.5, 0.5,
                                     0.5};
  EXPECT_THROW(h.merge(long_snap), std::invalid_argument);
  EXPECT_EQ(h.snapshot().count, 0u);  // nothing was folded in
  h.merge({{1.0, 2.0}, {1, 0, 0}, 1, 0.5, 0.5, 0.5});
  EXPECT_EQ(h.snapshot().counts[0], 1u);
}

TEST(Metrics, RegistryRejectsBoundsRedefinition) {
  obs::MetricsRegistry registry;
  (void)registry.histogram("lat", {1.0, 2.0});
  (void)registry.histogram("lat", {1.0, 2.0});  // same bounds: fine
  EXPECT_THROW((void)registry.histogram("lat", {1.0, 3.0}),
               std::invalid_argument);
}

TEST(Metrics, DefaultBoundsCoverMicrosecondsToGigas) {
  const auto& bounds = obs::default_histogram_bounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1e-6);
  EXPECT_EQ(bounds.back(), 1e9);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(Metrics, LabelledComposesNames) {
  EXPECT_EQ(obs::labelled("fault.injections", "kind", "host_crash"),
            "fault.injections{kind=host_crash}");
}

TEST(Metrics, MergeIsAssociative) {
  // Build three registries with overlapping and disjoint metrics, fold them
  // ((A+B)+C) and (A+(B+C)), and demand identical JSON.
  const auto make = [](std::uint64_t hits, double gauge, double sample) {
    auto r = std::make_unique<obs::MetricsRegistry>();
    r->add("hits", hits);
    r->set_gauge("depth", gauge);
    r->observe("lat", sample);
    return r;
  };
  const auto a = make(1, 5.0, 0.5);
  const auto b = make(10, -2.0, 3.0e3);
  const auto c = make(100, 9.0, 7.7);
  b->add("only_b", 4);  // disjoint key exercises get-or-create during merge

  obs::MetricsRegistry left;  // (A + B) + C
  left.merge_from(*a);
  left.merge_from(*b);
  left.merge_from(*c);

  obs::MetricsRegistry bc;  // A + (B + C)
  bc.merge_from(*b);
  bc.merge_from(*c);
  obs::MetricsRegistry right;
  right.merge_from(*a);
  right.merge_from(bc);

  EXPECT_EQ(registry_json(left), registry_json(right));
  EXPECT_EQ(left.counter_value("hits"), 111u);
  EXPECT_EQ(left.counter_value("only_b"), 4u);
  const auto depth = left.gauge_snapshot("depth");
  ASSERT_TRUE(depth.has_value());
  EXPECT_EQ(depth->last, 9.0);  // C merged last: last-write-wins
  EXPECT_EQ(depth->min, -2.0);
  EXPECT_EQ(depth->max, 9.0);
}

TEST(Metrics, JsonSnapshotIsSortedAndParsesShape) {
  obs::MetricsRegistry registry;
  registry.add("z.count", 2);
  registry.add("a.count", 1);
  registry.set_gauge("g", 1.5);
  registry.observe("h", 0.25);
  const std::string json = registry_json(registry);
  // Sorted keys: "a.count" precedes "z.count".
  EXPECT_LT(json.find("\"a.count\""), json.find("\"z.count\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json.find("\"meta\""), std::string::npos);  // no provenance given
}

// --------------------------------------------------------------- timeline

TEST(Timeline, StableOrderAtEqualTimestamps) {
  obs::TimelineTracer tracer;
  const auto track = tracer.track("t");
  tracer.instant(track, "first", "c", 1.0);
  tracer.instant(track, "second", "c", 1.0);
  tracer.span(track, "third", "c", 1.0, 2.0);
  tracer.instant(track, "earlier", "c", 0.5);
  const auto events = tracer.sorted_events();
  ASSERT_EQ(events.size(), 4u);
  // Sorted by begin time; the three events at t=1.0 keep recording order.
  EXPECT_EQ(events[0].name, "earlier");
  EXPECT_EQ(events[1].name, "first");
  EXPECT_EQ(events[2].name, "second");
  EXPECT_EQ(events[3].name, "third");
}

TEST(Timeline, RejectsInvalidSpans) {
  obs::TimelineTracer tracer;
  const auto track = tracer.track("t");
  EXPECT_THROW(tracer.span(track, "x", "c", 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(
      tracer.span(track, "x", "c", 0.0,
                  std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Timeline, TracksAreDeduplicatedByName) {
  obs::TimelineTracer tracer;
  const auto a = tracer.track("host0");
  const auto b = tracer.track("host1");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.track("host0"), a);
  EXPECT_EQ(tracer.track_names(),
            (std::vector<std::string>{"host0", "host1"}));
}

TEST(Timeline, ChromeJsonMapsSecondsToMicroseconds) {
  obs::TimelineTracer tracer;
  const auto track = tracer.track("net");
  tracer.span(track, "flow", "net", 1.0, 2.5, {{"bytes", 100.0}});
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Shortest round-trip serialization: 1e6 µs prints as 1e+06.
  EXPECT_NE(json.find("\"ts\":1e+06"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":100"), std::string::npos);
  // Metadata names the track as a thread.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Timeline, MultiProcessExportNumbersPidsFromOne) {
  obs::TimelineTracer t0;
  obs::TimelineTracer t1;
  t0.instant(t0.track("a"), "e0", "c", 0.0);
  t1.instant(t1.track("a"), "e1", "c", 0.0);
  std::ostringstream out;
  obs::TimelineTracer::write_chrome_json(
      out, {{"trial 0", &t0}, {"trial 1", &t1}});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trial 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trial 1\""), std::string::npos);
}

// --------------------------------------------------------------- profiler

TEST(Profiler, ReportArithmetic) {
  obs::TrialProfiler profiler;
  // Two workers, three tasks; submitted at t=0, executed back to back.
  profiler.record(/*task=*/0, /*worker=*/0, 0.0, 0.0, 2.0);
  profiler.record(/*task=*/1, /*worker=*/1, 0.0, 0.0, 1.0);
  profiler.record(/*task=*/2, /*worker=*/1, 0.0, 1.0, 4.0);
  const auto report = profiler.report();
  EXPECT_EQ(report.tasks, 3u);
  EXPECT_DOUBLE_EQ(report.wall_s, 4.0);  // first submit -> last end
  EXPECT_DOUBLE_EQ(report.mean_task_s, 2.0);
  EXPECT_DOUBLE_EQ(report.min_task_s, 1.0);
  EXPECT_DOUBLE_EQ(report.max_task_s, 3.0);
  EXPECT_DOUBLE_EQ(report.mean_queue_wait_s, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.max_queue_wait_s, 1.0);
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_EQ(report.workers[0].tasks, 1u);
  EXPECT_DOUBLE_EQ(report.workers[0].busy_s, 2.0);
  EXPECT_DOUBLE_EQ(report.workers[0].utilization, 0.5);
  EXPECT_EQ(report.workers[1].tasks, 2u);
  EXPECT_DOUBLE_EQ(report.workers[1].busy_s, 4.0);
  EXPECT_DOUBLE_EQ(report.workers[1].utilization, 1.0);
}

/// True when `line` is `shape` with each '#' standing for one number in
/// iostream's default form; the numbers are appended to `numbers`.
bool matches_shape(const std::string& line, const std::string& shape,
                   std::vector<double>& numbers) {
  std::size_t at = 0;
  for (const char c : shape) {
    if (c != '#') {
      if (at >= line.size() || line[at] != c) return false;
      ++at;
      continue;
    }
    const std::size_t end = line.find_first_not_of("0123456789.e+-", at);
    const std::string token = line.substr(at, end - at);
    if (token.empty()) return false;
    numbers.push_back(std::stod(token));
    at = end == std::string::npos ? line.size() : end;
  }
  return at == line.size();
}

TEST(Profiler, PrintEmitsFourLineShapes) {
  // The --profile text: a wall-clock summary, trial durations, queue waits,
  // then one utilization line per worker.
  obs::TrialProfiler profiler;
  profiler.record(0, 0, 0.0, 0.0, 2.0);
  profiler.record(1, 1, 0.0, 0.5, 1.0);
  std::ostringstream out;
  profiler.print(out);
  std::istringstream lines(out.str());
  std::vector<std::string> got;
  for (std::string line; std::getline(lines, line);) got.push_back(line);
  ASSERT_EQ(got.size(), 5u) << out.str();
  std::vector<double> n;
  EXPECT_TRUE(matches_shape(got[0], "profile: # trials in # s wall", n))
      << got[0];
  EXPECT_TRUE(matches_shape(
      got[1], "profile: trial duration mean=# s min=# s max=# s", n))
      << got[1];
  EXPECT_TRUE(matches_shape(got[2], "profile: queue wait mean=# s max=# s", n))
      << got[2];
  for (std::size_t i = 3; i < got.size(); ++i) {
    std::vector<double> w;
    ASSERT_TRUE(matches_shape(
        got[i], "profile: worker #: # trials, busy # s, utilization #%", w))
        << got[i];
    EXPECT_EQ(w[0], static_cast<double>(i - 3));
    EXPECT_GE(w[3], 0.0);
    EXPECT_LE(w[3], 100.0);
  }
  EXPECT_EQ(n.front(), 2.0);  // trials
}

TEST(Profiler, EmptyReportIsAllZero) {
  obs::TrialProfiler profiler;
  const auto report = profiler.report();
  EXPECT_EQ(report.tasks, 0u);
  EXPECT_EQ(report.wall_s, 0.0);
  EXPECT_TRUE(report.workers.empty());
}

// -------------------------------------------------------------- provenance

TEST(Provenance, DigestIgnoresSeedButSeesEveryShapeField) {
  core::ExperimentConfig a;
  core::ExperimentConfig b;
  EXPECT_EQ(core::config_digest(a), core::config_digest(b));
  b.seed = 999;
  EXPECT_EQ(core::config_digest(a), core::config_digest(b));  // seed excluded
  b.app.iterations += 1;
  EXPECT_NE(core::config_digest(a), core::config_digest(b));
  core::ExperimentConfig c;
  c.faults.swap_fail_prob = 0.25;
  EXPECT_NE(core::config_digest(a), core::config_digest(c));
}

TEST(Provenance, DigestSeesModelAndStrategyDescriptors) {
  const core::ExperimentConfig cfg;
  // The load model and strategy live outside ExperimentConfig; the `extra`
  // input is how their shape reaches the digest.
  const load::OnOffModel calm(load::OnOffParams::dynamism(0.1));
  const load::OnOffModel busy(load::OnOffParams::dynamism(0.4));
  EXPECT_NE(calm.describe(), busy.describe());
  EXPECT_NE(core::config_digest(cfg, calm.describe() + ";SWAP(greedy)"),
            core::config_digest(cfg, busy.describe() + ";SWAP(greedy)"));
  EXPECT_NE(core::config_digest(cfg, calm.describe() + ";SWAP(greedy)"),
            core::config_digest(cfg, calm.describe() + ";SWAP(safe)"));
  EXPECT_EQ(core::config_digest(cfg, calm.describe() + ";SWAP(greedy)"),
            core::config_digest(cfg, calm.describe() + ";SWAP(greedy)"));
}

TEST(Provenance, ModelDescriptionsAreCanonical) {
  // Every in-tree model names itself and its parameters; equal parameters
  // give equal strings, any differing parameter changes the string.
  const load::HyperExpParams he;
  EXPECT_EQ(load::HyperExpModel(he).describe(),
            load::HyperExpModel(he).describe());
  load::HyperExpParams heavier = he;
  heavier.long_prob = 0.05;
  EXPECT_NE(load::HyperExpModel(he).describe(),
            load::HyperExpModel(heavier).describe());
  EXPECT_EQ(load::ConstantModel(2).describe(), "constant;competitors=2");
  const load::ReclamationModel reclaim(
      std::make_shared<load::OnOffModel>(load::OnOffParams::dynamism(0.2)),
      load::ReclamationParams{});
  EXPECT_NE(reclaim.describe().find("reclaim;"), std::string::npos);
  EXPECT_NE(reclaim.describe().find("base=[onoff;"), std::string::npos);
}

TEST(Provenance, RunProvenanceCarriesSeedAndDigest) {
  core::ExperimentConfig cfg;
  cfg.seed = 17;
  const obs::Provenance prov =
      obs::make_provenance(cfg.seed, core::config_digest(cfg));
  EXPECT_EQ(prov.seed, 17u);
  EXPECT_EQ(prov.config_digest, core::config_digest(cfg));
  EXPECT_FALSE(prov.version.empty());
  std::ostringstream out;
  prov.write_json(out);
  EXPECT_NE(out.str().find("\"config_digest\""), std::string::npos);
}

TEST(Provenance, StatsJsonLeadsWithMeta) {
  core::TrialStats stats;
  stats.trials = 1;
  const obs::Provenance prov =
      obs::make_provenance(0, core::config_digest({}));
  std::ostringstream with_meta;
  stats.print_json(with_meta, &prov);
  EXPECT_EQ(with_meta.str().rfind("{\"meta\":{", 0), 0u);
  std::ostringstream without;
  stats.print_json(without);
  EXPECT_EQ(without.str().find("\"meta\""), std::string::npos);
}

// ---------------------------------------------------- observed-run identity

TEST(ObsIdentity, ObservedCellsMatchGoldenTable) {
  // Every golden cell re-run with both collectors attached must reproduce
  // the recorded (unobserved) makespans exactly: observability is read-only.
  core::ObsConfig obs_on;
  obs_on.metrics = true;
  obs_on.timeline = true;
  for (const std::string& scenario : golden::scenarios()) {
    for (const std::string& technique : golden::techniques()) {
      for (const std::uint64_t seed : golden::seeds()) {
        SCOPED_TRACE(scenario + "/" + technique +
                     "/seed=" + std::to_string(seed));
        const auto plain = golden::run_cell(scenario, technique, seed);
        const auto observed =
            golden::run_cell(scenario, technique, seed,
                             simsweep::audit::AuditMode::kOff, obs_on);
        EXPECT_EQ(observed.makespan_s, plain.makespan_s);
        EXPECT_EQ(observed.iterations_completed, plain.iterations_completed);
        EXPECT_EQ(observed.adaptations, plain.adaptations);
        EXPECT_EQ(observed.adaptation_overhead_s,
                  plain.adaptation_overhead_s);
        EXPECT_TRUE(observed.failures == plain.failures);
        // And the collectors actually collected.
        ASSERT_TRUE(observed.metrics != nullptr);
        EXPECT_FALSE(observed.metrics->empty());
        EXPECT_GT(observed.metrics->counter_value("sim.events_fired"), 0u);
        ASSERT_TRUE(observed.timeline != nullptr);
        EXPECT_GT(observed.timeline->event_count(), 0u);
        EXPECT_TRUE(plain.metrics == nullptr);
        EXPECT_TRUE(plain.timeline == nullptr);
      }
    }
  }
}

TEST(ObsIdentity, MergedMetricsIdenticalAcrossJobs) {
  auto cfg = golden::config_for("faulty");
  cfg.seed = 1;
  cfg.obs.metrics = true;
  cfg.obs.timeline = true;
  const auto model = golden::model_for("faulty");
  const auto serial_strategy = golden::make_technique("swap_greedy");
  const auto serial = core::run_trials_results(cfg, *model, *serial_strategy,
                                               /*trials=*/4, /*jobs=*/1);
  const auto pooled_strategy = golden::make_technique("swap_greedy");
  const auto pooled = core::run_trials_results(cfg, *model, *pooled_strategy,
                                               /*trials=*/4, /*jobs=*/4);
  const auto merged_serial = core::merge_trial_metrics(serial);
  const auto merged_pooled = core::merge_trial_metrics(pooled);
  EXPECT_EQ(registry_json(*merged_serial), registry_json(*merged_pooled));
  // Per-trial timelines are reproducible too: identical multi-process
  // exports regardless of which worker ran which trial.
  const auto chrome = [](const std::vector<simsweep::strategy::RunResult>&
                             results) {
    std::vector<obs::TimelineTracer::Process> processes;
    for (std::size_t t = 0; t < results.size(); ++t)
      processes.push_back(
          {"trial " + std::to_string(t), results[t].timeline.get()});
    std::ostringstream out;
    obs::TimelineTracer::write_chrome_json(out, processes);
    return out.str();
  };
  EXPECT_EQ(chrome(serial), chrome(pooled));
}

TEST(ObsIdentity, ProfilerRecordsEveryTrial) {
  // The calm golden cell for NONE as a one-cell grid: the sweep runner's
  // unit of work is the trial, so its profile records each one.
  simsweep::cli::SweepPlan plan;
  plan.spec = golden::spec_for("calm");
  plan.spec.seed = 1;
  plan.spec.variants.resize(1);
  ASSERT_EQ(plan.spec.variants.front().name, "none");
  plan.trials = 3;
  plan.jobs = 2;
  plan.hooks.interrupted = [] { return false; };
  obs::TrialProfiler profiler;
  plan.profiler = &profiler;
  const auto result = simsweep::cli::run_sweep(plan);
  ASSERT_TRUE(result.stats.front().has_value());
  EXPECT_EQ(result.stats.front()->trials, 3u);
  const auto report = profiler.report();
  EXPECT_EQ(report.tasks, 3u);
  EXPECT_GT(report.wall_s, 0.0);
  ASSERT_FALSE(report.workers.empty());
  std::size_t recorded = 0;
  for (const auto& w : report.workers) recorded += w.tasks;
  EXPECT_EQ(recorded, 3u);
}
