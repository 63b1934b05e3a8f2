#include "obs/profiler.hpp"

#include <algorithm>
#include <ostream>

#include "obs/provenance.hpp"

namespace simsweep::obs {

void TrialProfiler::record(std::size_t task, std::size_t worker,
                           double submitted_s, double begin_s, double end_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(TaskRecord{task, worker, submitted_s, begin_s, end_s});
}

std::vector<TrialProfiler::TaskRecord> TrialProfiler::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

TrialProfiler::Report TrialProfiler::report() const {
  const std::vector<TaskRecord> recs = records();
  Report report;
  report.tasks = recs.size();
  if (recs.empty()) return report;
  double first_submit = recs.front().submitted_s;
  double last_end = recs.front().end_s;
  double task_total = 0.0;
  double wait_total = 0.0;
  std::size_t max_worker = 0;
  report.min_task_s = recs.front().end_s - recs.front().begin_s;
  for (const TaskRecord& r : recs) {
    first_submit = std::min(first_submit, r.submitted_s);
    last_end = std::max(last_end, r.end_s);
    const double task_s = r.end_s - r.begin_s;
    const double wait_s = std::max(0.0, r.begin_s - r.submitted_s);
    task_total += task_s;
    wait_total += wait_s;
    report.min_task_s = std::min(report.min_task_s, task_s);
    report.max_task_s = std::max(report.max_task_s, task_s);
    report.max_queue_wait_s = std::max(report.max_queue_wait_s, wait_s);
    max_worker = std::max(max_worker, r.worker);
  }
  report.wall_s = std::max(0.0, last_end - first_submit);
  report.mean_task_s = task_total / static_cast<double>(recs.size());
  report.mean_queue_wait_s = wait_total / static_cast<double>(recs.size());
  report.workers.assign(max_worker + 1, WorkerStats{});
  for (const TaskRecord& r : recs) {
    WorkerStats& w = report.workers[r.worker];
    ++w.tasks;
    w.busy_s += r.end_s - r.begin_s;
  }
  for (WorkerStats& w : report.workers)
    w.utilization = report.wall_s > 0.0 ? w.busy_s / report.wall_s : 0.0;
  return report;
}

void TrialProfiler::print(std::ostream& os) const {
  const Report r = report();
  os << "profile: " << r.tasks << " trials in " << r.wall_s << " s wall\n";
  os << "profile: trial duration mean=" << r.mean_task_s
     << " s min=" << r.min_task_s << " s max=" << r.max_task_s << " s\n";
  os << "profile: queue wait mean=" << r.mean_queue_wait_s
     << " s max=" << r.max_queue_wait_s << " s\n";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const WorkerStats& w = r.workers[i];
    os << "profile: worker " << i << ": " << w.tasks << " trials, busy "
       << w.busy_s << " s, utilization " << w.utilization * 100.0 << "%\n";
  }
}

void TrialProfiler::write_json(std::ostream& os, const Provenance* meta) const {
  obs::write_json(os, report(), meta);
}

}  // namespace simsweep::obs
