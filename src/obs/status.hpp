// Live sweep telemetry: periodic, crash-consistent status snapshots.
//
// A multi-hour sweep used to give no sign of life until it exited.  The
// StatusBoard fixes that without touching the simulation: the sweep runner
// reports cell lifecycle events (started / finished / reused / retried /
// quarantined) through null-guarded pointer calls — the same zero-overhead
// contract as the auditor and the metrics registry — and the board
// periodically publishes a JSON snapshot via obs::atomic_write_file, so a
// monitor (or `simsweep status FILE`) always reads a complete, current
// document even if the sweep is SIGKILLed mid-heartbeat.
//
// Snapshots are deliberately wall-clock artifacts, like the trial profiler:
// they carry epoch timestamps and host-machine durations and are never
// merged into the reproducible artifacts.  The ETA, however, is a pure
// function of the recorded per-cell durations (EtaEstimator), so replaying
// the same duration sequence yields bitwise-identical estimates at any
// --jobs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"

namespace simsweep::obs {

/// Wall-clock ETA from an exponentially weighted moving average of
/// completed-cell durations.  Pure and deterministic: feeding the same
/// duration sequence produces bitwise-identical estimates regardless of how
/// many workers produced them.
class EtaEstimator {
 public:
  /// `alpha` is the EWMA weight of the newest sample, in (0, 1].
  explicit EtaEstimator(double alpha = 0.25);

  /// Records one completed cell's wall-clock duration, in completion order.
  void record(double duration_s);

  [[nodiscard]] std::size_t completed() const noexcept { return completed_; }

  /// Smoothed per-cell duration; 0 until the first record.
  [[nodiscard]] double ewma_s() const noexcept { return ewma_s_; }

  /// Estimated wall-clock seconds to finish `cells_remaining` more cells
  /// with `jobs` parallel workers (jobs 0 counts as 1).  0 until the first
  /// record — no history means no estimate, not an infinite one.
  [[nodiscard]] double eta_s(std::size_t cells_remaining,
                             std::size_t jobs) const noexcept;

 private:
  double alpha_;
  double ewma_s_ = 0.0;
  std::size_t completed_ = 0;
};

/// One status snapshot: what `--status` publishes and `simsweep status`
/// reads back.
struct StatusSnapshot {
  /// Marked partial whenever `state` is not "done".
  Provenance meta;
  std::string scenario;
  std::string state;  ///< "running" | "done" | "interrupted"
  double heartbeat_unix_s = 0.0;
  double elapsed_s = 0.0;
  double heartbeat_s = 0.0;
  std::size_t jobs = 1;
  std::size_t trials = 0;

  /// done = reused + executed + quarantined.
  struct Cells {
    std::size_t total = 0, done = 0, reused = 0, executed = 0;
    std::size_t in_flight = 0, retries = 0, quarantined = 0;
  } cells;

  /// Strategy-lineup progress; cell i belongs to group i % groups.size().
  struct Group {
    std::string name;
    std::size_t done = 0, total = 0;
  };
  std::vector<Group> groups;

  struct Eta {
    double ewma_cell_s = 0.0, eta_s = 0.0, percent = 0.0;
  } eta;

  /// Present (possibly empty, before the profiler records its first task)
  /// exactly when the sweep runs with a profiler.
  std::optional<std::vector<TrialProfiler::WorkerStats>> workers;
};

template <typename V>
void walk(V& v, StatusSnapshot::Cells& c) {
  v("total", c.total);
  v("done", c.done);
  v("reused", c.reused);
  v("executed", c.executed);
  v("in_flight", c.in_flight);
  v("retries", c.retries);
  v("quarantined", c.quarantined);
}

template <typename V>
void walk(V& v, StatusSnapshot::Group& g) {
  v("name", g.name, Accept::kNonEmpty);
  v("done", g.done);
  v("total", g.total);
  if constexpr (V::kReading)
    v.check(g.done <= g.total, "done outside [0, total]");
}

template <typename V>
void walk(V& v, StatusSnapshot::Eta& e) {
  v("ewma_cell_s", e.ewma_cell_s, Accept::kNonNegative);
  v("eta_s", e.eta_s, Accept::kNonNegative);
  v("percent", e.percent);
  if constexpr (V::kReading)
    v.check(e.percent >= 0.0 && e.percent <= 100.0, "percent outside [0, 100]");
}

template <typename V>
void walk(V& v, StatusSnapshot& s) {
  std::string kind = "sweep-status";
  v("kind", kind);
  v.section("meta", s.meta);
  v("scenario", s.scenario, Accept::kNonEmpty);
  v("state", s.state);
  if constexpr (V::kReading) {
    if (s.state != "running" && s.state != "done" && s.state != "interrupted")
      v.fail("state '" + s.state + "' not in [done, interrupted, running]");
    // Anything short of "done" is a partial view of the run.
    if ((s.state != "done") != s.meta.partial)
      v.fail("state '" + s.state + "' inconsistent with meta.partial");
  }
  v("heartbeat_unix_s", s.heartbeat_unix_s, Accept::kNonNegative);
  v("elapsed_s", s.elapsed_s, Accept::kNonNegative);
  v("heartbeat_s", s.heartbeat_s, Accept::kNonNegative);
  v("jobs", s.jobs);
  v("trials", s.trials);
  if constexpr (V::kReading)
    v.check(s.jobs >= 1 && s.trials >= 1,
            "jobs and trials must be positive integers");
  v.section("cells", s.cells);
  if constexpr (V::kReading) {
    const StatusSnapshot::Cells& c = s.cells;
    v.check(c.done <= c.total, "done > total");
    const std::size_t resolved[] = {c.reused, c.executed, c.quarantined};
    v.check(sums_to(resolved, c.done),
            "done != reused + executed + quarantined");
    v.check(s.state != "done" || c.in_flight == 0, "done with cells in flight");
  }
  v.list("groups", s.groups, Need::kRequired);
  if constexpr (V::kReading) {
    if (!s.groups.empty()) {
      v.check(sums_to(s.groups, s.cells.total, &StatusSnapshot::Group::total),
              "group totals do not sum to cells.total");
      v.check(sums_to(s.groups, s.cells.done, &StatusSnapshot::Group::done),
              "group done counts do not sum to cells.done");
    }
  }
  v.section("eta", s.eta);
  v.list("workers", s.workers);
}

/// Periodic status-snapshot publisher for a running sweep.  Thread-safe:
/// worker threads report cell events concurrently; the internal mutex is
/// taken only on those (rare — once per cell, not per simulation event)
/// calls.  Disabled telemetry never constructs a board at all: the sweep
/// runner holds a `StatusBoard*` and every call site is a null check.
class StatusBoard {
 public:
  struct Options {
    std::string path;          ///< snapshot file; must be non-empty
    double heartbeat_s = 1.0;  ///< min seconds between periodic snapshots
    bool progress = false;     ///< one-line progress updates on stderr
    double eta_alpha = 0.25;   ///< EWMA weight for the ETA estimator
  };

  explicit StatusBoard(Options options);

  StatusBoard(const StatusBoard&) = delete;
  StatusBoard& operator=(const StatusBoard&) = delete;

  /// Describes the run and publishes the initial snapshot immediately, so
  /// the file exists from the first instant (a kill before the first cell
  /// still leaves a parseable, partial-marked snapshot).  `group_names` is
  /// the strategy lineup; cell index i belongs to group i % group_names
  /// .size() (the sweep grid is x-major).
  void begin_run(const std::string& scenario, const Provenance& provenance,
                 std::size_t cells_total, std::size_t trials, std::size_t jobs,
                 std::vector<std::string> group_names);

  /// Optional wall-clock profiler whose per-worker utilization is embedded
  /// in each snapshot.  Must outlive the board.
  void set_profiler(const TrialProfiler* profiler);

  // Cell lifecycle, called from worker threads.
  void cell_reused(std::size_t index);      ///< replayed from a journal
  void cell_started(std::size_t index);     ///< claimed by a worker
  void cell_retried(std::size_t index);     ///< one failed attempt, retrying
  void cell_quarantined(std::size_t index); ///< retry budget exhausted
  /// Completed successfully after `duration_s` wall-clock seconds (feeds
  /// the ETA estimator).
  void cell_finished(std::size_t index, double duration_s);

  /// Publishes the final snapshot with the given terminal state
  /// ("done" or "interrupted") — always written, heartbeat throttle ignored.
  void finish(const std::string& state);

  /// The snapshot JSON (single line + trailing newline).  Exposed for
  /// tests; writers use the path from Options.
  [[nodiscard]] std::string snapshot_json();

 private:
  void write_snapshot_locked(const std::string& state, bool force);
  /// The counters with the clock, ETA and worker fields filled in.
  [[nodiscard]] StatusSnapshot snapshot_locked(const std::string& state) const;
  /// Cell `index` resolved (reused, finished or quarantined).
  void resolve_locked(std::size_t index);

  Options options_;
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_;
  std::chrono::steady_clock::time_point last_write_;
  bool wrote_once_ = false;

  /// The run's description and cell counters; the clock, ETA and worker
  /// fields are filled per snapshot.
  StatusSnapshot run_;
  EtaEstimator eta_;
  const TrialProfiler* profiler_ = nullptr;
};

}  // namespace simsweep::obs
