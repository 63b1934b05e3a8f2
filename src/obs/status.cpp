#include "obs/status.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/atomic_write.hpp"

namespace simsweep::obs {

namespace {

std::string json_line(const StatusSnapshot& snapshot) {
  std::ostringstream os;
  write_json(os, snapshot);
  os << '\n';
  return os.str();
}

}  // namespace

EtaEstimator::EtaEstimator(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0) || alpha > 1.0)
    alpha_ = 0.25;  // nonsense weight: fall back to the default
}

void EtaEstimator::record(double duration_s) {
  if (!(duration_s >= 0.0)) duration_s = 0.0;  // rejects NaN too
  if (completed_ == 0)
    ewma_s_ = duration_s;
  else
    ewma_s_ = alpha_ * duration_s + (1.0 - alpha_) * ewma_s_;
  ++completed_;
}

double EtaEstimator::eta_s(std::size_t cells_remaining,
                           std::size_t jobs) const noexcept {
  if (completed_ == 0 || cells_remaining == 0) return 0.0;
  const double workers = static_cast<double>(std::max<std::size_t>(1, jobs));
  return ewma_s_ * static_cast<double>(cells_remaining) / workers;
}

StatusBoard::StatusBoard(Options options) : options_(std::move(options)),
                                            eta_(options_.eta_alpha) {
  epoch_ = std::chrono::steady_clock::now();
  last_write_ = epoch_;
  run_.heartbeat_s = options_.heartbeat_s;
}

void StatusBoard::begin_run(const std::string& scenario,
                            const Provenance& provenance,
                            std::size_t cells_total, std::size_t trials,
                            std::size_t jobs,
                            std::vector<std::string> group_names) {
  const std::lock_guard<std::mutex> lock(mutex_);
  run_.scenario = scenario;
  run_.meta = provenance;
  run_.cells.total = cells_total;
  run_.trials = trials;
  run_.jobs = std::max<std::size_t>(1, jobs);
  run_.groups.clear();
  const std::size_t n = group_names.size();
  for (std::size_t i = 0; i < n; ++i) {
    // The grid is x-major: cell index % group-count selects the group, so
    // the first (total % n) groups get one extra cell when it divides
    // unevenly (it never does for a full grid, but resumed partial plans
    // keep the same mapping).
    run_.groups.push_back({std::move(group_names[i]), 0,
                           cells_total / n + (i < cells_total % n ? 1 : 0)});
  }
  // Publish immediately: a kill before the first cell completes must still
  // leave a parseable, partial-marked snapshot on disk.
  write_snapshot_locked("running", /*force=*/true);
}

void StatusBoard::set_profiler(const TrialProfiler* profiler) {
  const std::lock_guard<std::mutex> lock(mutex_);
  profiler_ = profiler;
}

void StatusBoard::resolve_locked(std::size_t index) {
  ++run_.cells.done;
  if (!run_.groups.empty()) ++run_.groups[index % run_.groups.size()].done;
}

void StatusBoard::cell_reused(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++run_.cells.reused;
  resolve_locked(index);
  write_snapshot_locked("running", /*force=*/false);
}

void StatusBoard::cell_started(std::size_t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++run_.cells.in_flight;
  write_snapshot_locked("running", /*force=*/false);
}

void StatusBoard::cell_retried(std::size_t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++run_.cells.retries;
  write_snapshot_locked("running", /*force=*/false);
}

void StatusBoard::cell_quarantined(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (run_.cells.in_flight > 0) --run_.cells.in_flight;
  ++run_.cells.quarantined;
  resolve_locked(index);
  write_snapshot_locked("running", /*force=*/false);
}

void StatusBoard::cell_finished(std::size_t index, double duration_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (run_.cells.in_flight > 0) --run_.cells.in_flight;
  ++run_.cells.executed;
  resolve_locked(index);
  eta_.record(duration_s);
  write_snapshot_locked("running", /*force=*/false);
}

void StatusBoard::finish(const std::string& state) {
  const std::lock_guard<std::mutex> lock(mutex_);
  write_snapshot_locked(state, /*force=*/true);
}

std::string StatusBoard::snapshot_json() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return json_line(snapshot_locked("running"));
}

StatusSnapshot StatusBoard::snapshot_locked(const std::string& state) const {
  StatusSnapshot s = run_;
  s.state = state;
  // Anything short of "done" is a partial view of the run; a monitor (or
  // `report`) must not treat it as a complete result.
  s.meta.partial = run_.meta.partial || state != "done";
  s.heartbeat_unix_s = std::chrono::duration<double>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  s.elapsed_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count();
  const std::size_t total = s.cells.total;
  const std::size_t done = s.cells.done;
  s.eta.ewma_cell_s = eta_.ewma_s();
  s.eta.eta_s = eta_.eta_s(total > done ? total - done : 0, s.jobs);
  s.eta.percent = total == 0 ? 100.0
                             : 100.0 * static_cast<double>(done) /
                                   static_cast<double>(total);
  if (profiler_ != nullptr) s.workers = profiler_->report().workers;
  return s;
}

void StatusBoard::write_snapshot_locked(const std::string& state, bool force) {
  const auto now = std::chrono::steady_clock::now();
  if (!force && wrote_once_) {
    const double since =
        std::chrono::duration<double>(now - last_write_).count();
    if (since < options_.heartbeat_s) return;
  }
  const StatusSnapshot snapshot = snapshot_locked(state);
  atomic_write_file(options_.path, json_line(snapshot));
  last_write_ = now;
  wrote_once_ = true;
  if (options_.progress)
    std::fprintf(stderr, "progress: %zu/%zu cells (%.1f%%), eta %.1fs [%s]\n",
                 snapshot.cells.done, snapshot.cells.total,
                 snapshot.eta.percent, snapshot.eta.eta_s, state.c_str());
}

}  // namespace simsweep::obs
