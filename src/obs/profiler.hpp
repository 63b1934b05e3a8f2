// Wall-clock profiling of the trial engine.
//
// Where the metrics registry and timeline tracer observe *simulated* time,
// the profiler observes the host machine: how long each trial really took,
// how long it waited in the pool queue, and how evenly the workers were
// loaded.  Timestamps come from std::chrono::steady_clock relative to the
// profiler's construction, so reports are inherently non-deterministic and
// are never merged into the reproducible artifacts.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace simsweep::obs {

struct Provenance;

class TrialProfiler {
 public:
  TrialProfiler() : epoch_(std::chrono::steady_clock::now()) {}
  TrialProfiler(const TrialProfiler&) = delete;
  TrialProfiler& operator=(const TrialProfiler&) = delete;

  /// Wall seconds since construction (steady clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Records one completed task.  `submitted_s` is when the batch entered
  /// the pool, `begin_s`/`end_s` bracket the task body on worker `worker`
  /// (0 = the calling thread, which participates in the pool).
  void record(std::size_t task, std::size_t worker, double submitted_s,
              double begin_s, double end_s);

  struct TaskRecord {
    std::size_t task = 0;
    std::size_t worker = 0;
    double submitted_s = 0.0;
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  [[nodiscard]] std::vector<TaskRecord> records() const;

  struct WorkerStats {
    std::size_t tasks = 0;
    double busy_s = 0.0;
    double utilization = 0.0;  // busy_s / wall_s
  };

  struct Report {
    std::size_t tasks = 0;
    double wall_s = 0.0;  // first submit -> last completion
    double mean_task_s = 0.0;
    double min_task_s = 0.0;
    double max_task_s = 0.0;
    double mean_queue_wait_s = 0.0;
    double max_queue_wait_s = 0.0;
    std::vector<WorkerStats> workers;  // indexed by worker id
  };

  [[nodiscard]] Report report() const;

  /// Human-readable report ("profile: ..." lines).
  void print(std::ostream& os) const;

  /// The --profile-json document: report(), led by a "meta" block when
  /// `meta` is set.
  void write_json(std::ostream& os, const Provenance* meta = nullptr) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TaskRecord> records_;
};

template <typename V>
void walk(V& v, TrialProfiler::WorkerStats& w) {
  v("tasks", w.tasks);
  v("busy_s", w.busy_s, Accept::kNonNegative);
  v("utilization", w.utilization);
  if constexpr (V::kReading)
    v.check(w.utilization >= 0.0 && w.utilization <= 1.0,
            "utilization outside [0, 1]");
}

/// Profile workers carry their index; a status snapshot's do not.
template <typename V>
void walk(V& v, TrialProfiler::Report& r) {
  v("tasks", r.tasks);
  v("wall_s", r.wall_s, Accept::kNonNegative);
  v("mean_task_s", r.mean_task_s, Accept::kNonNegative);
  v("min_task_s", r.min_task_s, Accept::kNonNegative);
  v("max_task_s", r.max_task_s, Accept::kNonNegative);
  v("mean_queue_wait_s", r.mean_queue_wait_s, Accept::kNonNegative);
  v("max_queue_wait_s", r.max_queue_wait_s, Accept::kNonNegative);
  v.list("workers", r.workers, Need::kRequired, "worker");
  if constexpr (V::kReading)
    v.check(sums_to(r.workers, r.tasks, &TrialProfiler::WorkerStats::tasks),
            "worker task counts do not sum to tasks");
}

}  // namespace simsweep::obs
