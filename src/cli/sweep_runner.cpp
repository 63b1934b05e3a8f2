#include "cli/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "audit/auditor.hpp"
#include "core/trial_runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/status.hpp"
#include "obs/timeline.hpp"
#include "report/artifact.hpp"
#include "resilience/journal.hpp"
#include "resilience/signal.hpp"
#include "resilience/watchdog.hpp"
#include "simcore/simulator.hpp"
#include "strategy/decision_trace.hpp"

namespace simsweep::cli {

namespace {

using resilience::TrialOutcomeKind;

/// Version 2: the sweep is a declarative scenario; the header carries the
/// scenario name and ScenarioSpec::digest() (which folds the full canonical
/// serialization), and cell keys come from the per-cell key extra.  v1
/// journals (hard-coded onoff × technique grids) cannot resume into v2.
constexpr std::uint64_t kJournalVersion = 2;

/// Per-cell state, filled either by simulation or by journal replay; the
/// final artifacts read only this, in index order, so both sources are
/// interchangeable byte-for-byte (a metrics snapshot read back from the
/// journal is bitwise the registry that wrote it).
struct CellData {
  bool done = false;
  core::TrialStats stats;
  obs::MetricsSnapshot metrics;
  std::string timeline_json;  ///< traceEvents fragment (pids pre-assigned)
  std::string decisions_jsonl;  ///< every trial's decision trace, in order
  std::string raw_line;       ///< journal record, adopted verbatim on resume
};

std::string header_line(const std::string& scenario_name,
                        const obs::Provenance& prov, std::size_t trials,
                        std::size_t points, std::size_t cells) {
  std::ostringstream os;
  os << "{\"kind\":\"sweep-journal\",\"version\":";
  obs::write_json_number(os, kJournalVersion);
  os << ",\"scenario\":";
  obs::write_json_string(os, scenario_name);
  os << ",\"sweep\":";
  obs::write_json_string(os, prov.config_digest);
  os << ",\"seed\":";
  obs::write_json_number(os, prov.seed);
  os << ",\"trials\":";
  obs::write_json_number(os, static_cast<std::uint64_t>(trials));
  os << ",\"points\":";
  obs::write_json_number(os, static_cast<std::uint64_t>(points));
  os << ",\"cells\":";
  obs::write_json_number(os, static_cast<std::uint64_t>(cells));
  os << '}';
  return os.str();
}

/// `metrics_json` / `timeline_json` are stored only when non-empty.
std::string cell_record_line(std::size_t index, const std::string& key,
                             const obs::Provenance& prov, std::size_t trials,
                             const std::string& label,
                             const core::TrialStats& stats,
                             const std::string& metrics_json,
                             const std::string& timeline_json) {
  std::ostringstream os;
  os << "{\"kind\":\"cell\",\"index\":";
  obs::write_json_number(os, static_cast<std::uint64_t>(index));
  os << ",\"key\":";
  obs::write_json_string(os, key);
  os << ",\"seed\":";
  obs::write_json_number(os, prov.seed);
  os << ",\"trials\":";
  obs::write_json_number(os, static_cast<std::uint64_t>(trials));
  os << ",\"label\":";
  obs::write_json_string(os, label);
  os << ",\"outcome\":\"ok\",\"stats\":";
  stats.print_json(os);
  if (!metrics_json.empty()) {
    os << ",\"metrics\":";
    obs::write_json_string(os, metrics_json);
  }
  if (!timeline_json.empty()) {
    os << ",\"timeline\":";
    obs::write_json_string(os, timeline_json);
  }
  os << '}';
  return os.str();
}

[[noreturn]] void resume_mismatch(const std::string& what) {
  throw std::runtime_error(
      "sweep --resume: journal does not match this sweep (" + what +
      "); delete the journal or rerun the original command line");
}

void validate_header(const report::JournalModel& journal,
                     const std::string& scenario_name,
                     const obs::Provenance& prov, std::size_t trials,
                     std::size_t cells) {
  if (journal.version != kJournalVersion)
    resume_mismatch("journal version " + std::to_string(journal.version));
  if (journal.scenario != scenario_name)
    resume_mismatch("scenario " + journal.scenario + " vs " + scenario_name);
  if (journal.sweep_digest != prov.config_digest)
    resume_mismatch("config digest " + journal.sweep_digest + " vs " +
                    prov.config_digest);
  if (journal.seed != prov.seed) resume_mismatch("seed mismatch");
  if (journal.trials != trials) resume_mismatch("trials mismatch");
  if (journal.cells_total != cells) resume_mismatch("cell count mismatch");
}

/// Metric extraction for one report series at one cell (completed cells
/// only; callers substitute NaN for cells that never ran).
double metric_value(scenario::Metric metric, const core::TrialStats& s) {
  switch (metric) {
    case scenario::Metric::kMakespan:
      return s.mean;
    case scenario::Metric::kAdaptations:
      return s.mean_adaptations;
    case scenario::Metric::kCompletionRate:
      return static_cast<double>(s.trials - s.unfinished) /
             static_cast<double>(s.trials);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double metric_adaptations(scenario::Metric metric, const core::TrialStats& s) {
  // The completion-rate view pairs each rate with the mean crash
  // recoveries per run; every other metric keeps the adaptation count.
  return metric == scenario::Metric::kCompletionRate ? s.mean_recoveries
                                                     : s.mean_adaptations;
}

}  // namespace

SweepResult run_sweep(const SweepPlan& plan) {
  // materialize() validates the spec (grid kind, non-empty variants/axis,
  // nonzero trials) and expands the cell grid.
  const scenario::MaterializedGrid grid =
      scenario::materialize(plan.spec, plan.trials);
  if (!plan.hooks.inject_hang.empty() && plan.trial_timeout_s <= 0.0)
    throw std::invalid_argument(
        "sweep: hang injection requires --trial-timeout");

  const std::size_t total = grid.cells.size();
  const std::size_t trials = grid.trials;
  const obs::Provenance base_prov =
      obs::make_provenance(grid.seed, grid.digest);

  std::vector<std::string> keys(total);
  for (std::size_t index = 0; index < total; ++index)
    keys[index] = core::config_digest(grid.cells[index].config,
                                      grid.cells[index].key_extra);

  std::vector<CellData> cells(total);
  std::size_t reused = 0;

  // A resume journal that was never written (missing, unreadable or empty:
  // peek() finds no byte) is a fresh start; any other is read through the
  // strict journal loader, which also checks every embedded metrics
  // snapshot before it is merged.
  if (!plan.resume_path.empty() &&
      std::ifstream(plan.resume_path).peek() != std::char_traits<char>::eof()) {
    const report::Artifact artifact = report::load_artifact(plan.resume_path);
    if (artifact.kind != report::ArtifactKind::kJournal)
      resume_mismatch("not a sweep journal");
    validate_header(artifact.journal, plan.spec.name, base_prov, trials,
                    total);
    for (const report::JournalModel::Cell& record : artifact.journal.cells) {
      if (record.key != keys[record.index])
        resume_mismatch("cell " + std::to_string(record.index) +
                        " key mismatch despite matching header");
      // A record is only reusable when it stored everything this run
      // needs; otherwise the cell silently re-executes.
      if (record.outcome != "ok") continue;
      if (plan.metrics && !record.metrics) continue;
      if (plan.timeline && !record.timeline) continue;
      if (plan.trace_decisions) continue;  // traces are not journaled
      CellData& cell = cells[record.index];
      cell.stats = record.stats;
      if (record.metrics) cell.metrics = *record.metrics;
      if (record.timeline) cell.timeline_json = *record.timeline;
      cell.raw_line = record.raw;
      cell.done = true;
      ++reused;
    }
  }

  // Publish the journal (header + replayed records) before simulating, so
  // even an immediately-killed sweep leaves a valid, resumable file.
  std::unique_ptr<resilience::JournalWriter> journal;
  if (!plan.journal_path.empty()) {
    journal =
        std::make_unique<resilience::JournalWriter>(plan.journal_path);
    journal->append(header_line(plan.spec.name, base_prov, trials,
                                grid.points.size(), total),
                    /*flush_now=*/false);
    for (const CellData& cell : cells)
      if (cell.done) journal->append(cell.raw_line, /*flush_now=*/false);
    journal->flush();
  }

  // Watchdog before runner: the runner's destructor joins its workers while
  // the guard must still be alive.
  std::unique_ptr<resilience::Watchdog> watchdog;
  if (plan.trial_timeout_s > 0.0)
    watchdog = std::make_unique<resilience::Watchdog>(plan.trial_timeout_s);
  core::TrialRunner runner(plan.jobs);
  if (watchdog) runner.set_trial_guard(watchdog.get());
  if (plan.profiler != nullptr) runner.set_profiler(plan.profiler);

  obs::StatusBoard* const status = plan.status;
  if (status != nullptr) {
    std::vector<std::string> group_names;
    group_names.reserve(plan.spec.variants.size());
    for (const scenario::VariantSpec& variant : plan.spec.variants)
      group_names.push_back(variant.name);
    status->begin_run(plan.spec.name, base_prov, total, trials,
                      runner.parallelism(), std::move(group_names));
    if (plan.profiler != nullptr) status->set_profiler(plan.profiler);
    for (std::size_t index = 0; index < total; ++index)
      if (cells[index].done) status->cell_reused(index);
  }

  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> skipped{0};

  const auto stop_requested = [&plan, &executed]() -> bool {
    if (plan.hooks.interrupted ? plan.hooks.interrupted()
                               : resilience::interrupted())
      return true;
    return plan.hooks.stop_after_cells != 0 &&
           executed.load(std::memory_order_relaxed) >=
               plan.hooks.stop_after_cells;
  };
  const auto injected = [](const std::vector<std::size_t>& list,
                           std::size_t index) {
    return std::find(list.begin(), list.end(), index) != list.end();
  };

  // One task per trial of every cell still to run, cell-major, so at
  // --jobs=1 a cell's trials run back to back.  The first of a cell's
  // trials to be claimed decides its fate once: skipped when a stop was
  // requested, else running, and a running cell runs every trial.
  enum class Fate { kPending, kRunning, kSkipped, kQuarantined };
  struct CellRun {
    Fate fate = Fate::kPending;
    std::size_t remaining = 0;  ///< trials not yet succeeded
    std::vector<strategy::RunResult> results;  ///< slot per trial
    std::chrono::steady_clock::time_point epoch;
  };
  std::vector<std::size_t> pending;
  for (std::size_t index = 0; index < total; ++index)
    if (!cells[index].done) pending.push_back(index);
  std::mutex fate_mutex;  // guards each run's fate and remaining, quarantined
  std::vector<CellRun> runs(total);
  std::vector<resilience::QuarantineRecord> quarantined;

  // Runs on whichever worker completed the cell's last trial.
  const auto finish_cell = [&](std::size_t index) {
    const scenario::Cell& cell = grid.cells[index];
    const std::vector<strategy::RunResult> results =
        std::move(runs[index].results);
    CellData data;
    data.stats = core::reduce_trials(results);
    std::string metrics_json;
    if (plan.metrics) {
      const auto merged = core::merge_trial_metrics(results);
      data.metrics = merged->snapshot();
      std::ostringstream os;
      merged->write_json(os);
      metrics_json = os.str();
    }
    if (plan.timeline) {
      std::vector<obs::TimelineTracer::Process> processes;
      for (std::size_t t = 0; t < results.size(); ++t)
        processes.push_back({cell.label + " trial " + std::to_string(t),
                             results[t].timeline.get()});
      std::ostringstream os;
      obs::TimelineTracer::write_chrome_fragment(
          os, processes, static_cast<std::uint32_t>(index * trials + 1));
      data.timeline_json = os.str();
    }
    if (plan.trace_decisions) {
      std::ostringstream os;
      for (std::size_t t = 0; t < results.size(); ++t)
        strategy::write_trace_jsonl(os, cell.strategy->name(),
                                    cell.config.seed + t, t,
                                    results[t].decision_trace);
      data.decisions_jsonl = os.str();
    }
    data.raw_line = cell_record_line(index, keys[index], base_prov, trials,
                                     cell.label, data.stats, metrics_json,
                                     data.timeline_json);
    data.done = true;
    cells[index] = std::move(data);
    executed.fetch_add(1, std::memory_order_relaxed);
    if (journal) journal->append(cells[index].raw_line);
    if (status != nullptr)
      status->cell_finished(
          index, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - runs[index].epoch)
                     .count());
  };

  runner.parallel_for(pending.size() * trials, [&](std::size_t task) {
    const std::size_t index = pending[task / trials];
    const std::size_t trial = task % trials;
    CellRun& run = runs[index];
    {
      const std::lock_guard<std::mutex> lock(fate_mutex);
      if (run.fate == Fate::kPending) {
        if (stop_requested()) {
          run.fate = Fate::kSkipped;
          skipped.fetch_add(1, std::memory_order_relaxed);
        } else {
          run.fate = Fate::kRunning;
          run.results.resize(trials);
          run.remaining = trials;
          run.epoch = std::chrono::steady_clock::now();
          if (status != nullptr) status->cell_started(index);
        }
      }
      if (run.fate != Fate::kRunning) return;
    }
    const scenario::Cell& cell = grid.cells[index];
    core::ExperimentConfig cfg = cell.config;
    cfg.seed += trial;
    cfg.obs.metrics = plan.metrics;
    cfg.obs.timeline = plan.timeline;
    cfg.trace_decisions = plan.trace_decisions;
    cfg.audit = plan.audit;

    for (std::size_t attempts = 1;; ++attempts) {
      TrialOutcomeKind outcome = TrialOutcomeKind::kCrashed;
      std::string error;
      try {
        if (injected(plan.hooks.inject_fail, index))
          throw std::runtime_error("injected failure (inject_fail hook)");
        if (injected(plan.hooks.inject_hang, index)) {
          const std::atomic<bool>* flag =
              core::TrialRunner::current_cancel_flag();
          if (flag == nullptr)
            throw std::runtime_error("inject_hang: no cancel flag published");
          while (!flag->load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          throw sim::RunCancelled();
        }
        // The watchdog flag published for this task reaches the trial's
        // simulator through the runner's thread-local.
        run.results[trial] =
            core::run_single(cfg, *cell.model, *cell.strategy);
        break;
      } catch (const audit::AuditFailure& e) {
        outcome = TrialOutcomeKind::kAuditFailed;
        error = e.what();
      } catch (const sim::RunCancelled& e) {
        outcome = TrialOutcomeKind::kHung;
        error = e.what();
      } catch (const std::exception& e) {
        // A watchdog cancellation can surface as a foreign exception when
        // the strategy wraps it; the fired record disambiguates.
        outcome = (watchdog != nullptr && watchdog->fired(task))
                      ? TrialOutcomeKind::kHung
                      : TrialOutcomeKind::kCrashed;
        error = e.what();
      }
      if (attempts > plan.trial_retries) {
        // Out of attempts: the cell is quarantined once, by the first of
        // its trials to get here, and its other trials are dropped.
        const std::lock_guard<std::mutex> lock(fate_mutex);
        if (run.fate != Fate::kRunning) return;
        run.fate = Fate::kQuarantined;
        quarantined.push_back({index, keys[index], base_prov.seed, trials,
                               cell.label, outcome, attempts, error});
        executed.fetch_add(1, std::memory_order_relaxed);
        if (status != nullptr) status->cell_quarantined(index);
        return;
      }
      if (status != nullptr) status->cell_retried(index);
      if (plan.retry_backoff_s > 0.0) {
        const double backoff_s = std::min(
            plan.retry_backoff_s * std::pow(2.0, double(attempts - 1)), 1.0);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff_s));
      }
      if (watchdog) watchdog->rearm(task);  // fresh deadline per attempt
    }
    // A quarantined cell never gets here with its last trial: the trial
    // that failed never counts down.
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(fate_mutex);
      last = --run.remaining == 0;
    }
    if (last) finish_cell(index);
  });

  // A deadlocked run must fail the whole sweep when the scenario says so:
  // its "makespan" would silently pollute the figure as an ordinary slow
  // point.  Runs that exhausted the spare pool also count as stalled, but
  // they gave up cleanly and are reported as such.
  if (grid.forbid_stalls) {
    for (std::size_t index = 0; index < total; ++index) {
      const core::TrialStats& stats = cells[index].stats;
      const std::size_t deadlocked = stats.stalled - stats.resource_exhausted;
      if (cells[index].done && deadlocked > 0)
        throw std::runtime_error(
            "sweep: " + std::to_string(deadlocked) +
            " stalled run(s) in cell '" + grid.cells[index].label +
            "' — a strategy deadlocked instead of timing out");
    }
  }

  SweepResult result;
  result.cells_total = total;
  result.cells_reused = reused;
  result.cells_executed = executed.load();
  result.cells_skipped = skipped.load();
  std::sort(quarantined.begin(), quarantined.end(),
            [](const resilience::QuarantineRecord& a,
               const resilience::QuarantineRecord& b) {
              return a.index < b.index;
            });
  result.quarantined = std::move(quarantined);

  std::vector<bool> in_quarantine(total, false);
  for (const auto& record : result.quarantined)
    in_quarantine[record.index] = true;
  for (std::size_t index = 0; index < total; ++index)
    if (!cells[index].done && !in_quarantine[index]) result.partial = true;

  result.provenance = base_prov;
  result.provenance.partial = result.partial;
  result.stats.resize(total);
  for (std::size_t index = 0; index < total; ++index)
    if (cells[index].done) result.stats[index] = cells[index].stats;

  if (status != nullptr)
    status->finish(result.partial ? "interrupted" : "done");

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const scenario::ReportSpec& spec_report : grid.reports) {
    core::SeriesReport report;
    report.title = spec_report.title;
    report.x_label = grid.x_label;
    report.x = grid.points;
    for (const scenario::SeriesSpec& series : spec_report.series)
      report.series.push_back({series.name, {}, {}});
    for (std::size_t xi = 0; xi < grid.points.size(); ++xi) {
      for (std::size_t si = 0; si < spec_report.series.size(); ++si) {
        const scenario::SeriesSpec& series = spec_report.series[si];
        const CellData& cell = cells[xi * grid.variant_count + series.variant];
        report.series[si].y.push_back(
            cell.done ? metric_value(series.metric, cell.stats) : nan);
        report.series[si].adaptations.push_back(
            cell.done ? metric_adaptations(series.metric, cell.stats) : nan);
      }
    }
    result.reports.push_back(std::move(report));
    result.expectations.push_back(spec_report.expectation);
  }

  if (plan.metrics) {
    obs::MetricsRegistry merged;
    for (const CellData& cell : cells)
      if (cell.done) merged.merge(cell.metrics);
    std::ostringstream os;
    merged.write_json(os, &result.provenance);
    os << '\n';
    result.metrics_json = os.str();
  }

  if (plan.timeline) {
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"meta\":";
    result.provenance.write_json(os);
    os << "},\"traceEvents\":[";
    bool first = true;
    for (const CellData& cell : cells) {
      if (!cell.done || cell.timeline_json.empty()) continue;
      if (!first) os << ',';
      first = false;
      os << cell.timeline_json;
    }
    os << "]}\n";
    result.timeline_json = os.str();
  }

  if (plan.trace_decisions)
    for (const CellData& cell : cells)
      result.decisions_jsonl += cell.decisions_jsonl;

  return result;
}

}  // namespace simsweep::cli
