#include "platform/host.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace simsweep::platform {

Host::Host(sim::Simulator& simulator, HostId id, double peak_speed_flops,
           std::string name)
    : simulator_(simulator),
      id_(id),
      peak_speed_(peak_speed_flops),
      name_(std::move(name)),
      cpu_(simulator, "platform", peak_speed_flops) {
  if (peak_speed_flops <= 0.0)
    throw std::invalid_argument("Host: peak speed must be positive");
  load_history_.push_back(sim::Sample{simulator_.now(), 0.0});
}

void Host::set_external_load(int competitors) {
  if (competitors < 0)
    throw std::invalid_argument("Host: negative competing-process count");
  if (competitors == external_load_) return;
  external_load_ = competitors;
  if (online_) record_state();
  cpu_.set_background(static_cast<std::size_t>(competitors));
}

void Host::set_online(bool online) {
  if (crashed_) return;  // dead hosts stay dead
  if (online == online_) return;
  online_ = online;
  record_state();
  cpu_.set_capacity(online ? peak_speed_ : 0.0);
}

void Host::set_crashed() {
  if (crashed_) return;
  set_online(false);  // records the offline marker and stalls running tasks
  crashed_ = true;
}

void Host::record_state() {
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    const double avail = availability();
    if (avail < 0.0 || avail > 1.0)
      auditor->report("platform", "availability_in_unit_interval",
                      simulator_.now(),
                      name_ + " availability " + std::to_string(avail));
    if (!load_history_.empty() &&
        simulator_.now() < load_history_.back().time - sim::kTimeEpsilon)
      auditor->report("platform", "load_history_time_ordered",
                      simulator_.now(),
                      name_ + " history sample behind tail at t=" +
                          std::to_string(load_history_.back().time));
  }
  load_history_.push_back(sim::Sample{
      simulator_.now(),
      online_ ? static_cast<double>(external_load_) : kOfflineMarker});
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    if (load_changes_metric_ == nullptr) {
      static const std::vector<double> kAvailabilityBounds{
          0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
      load_changes_metric_ = &metrics->counter("platform.load_changes");
      availability_metric_ =
          &metrics->histogram("platform.availability", kAvailabilityBounds);
    }
    load_changes_metric_->add();
    availability_metric_->observe(availability());
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline()) {
    if (!timeline_track_cached_) {
      timeline_track_ = timeline->track(name_);
      timeline_track_cached_ = true;
    }
    timeline->instant(timeline_track_, "load", "platform", simulator_.now(),
                      {{"availability", availability()},
                       {"external_load", online_
                                             ? static_cast<double>(
                                                   external_load_)
                                             : kOfflineMarker}});
  }
}

std::shared_ptr<ComputeTask> Host::start_compute(double work,
                                                 ComputeTask::Completion done) {
  auto task = cpu_.create(work, std::move(done));
  cpu_.join(task);
  return task;
}

double Host::mean_availability(SimTime t0, SimTime t1) const {
  if (t1 < t0) throw std::invalid_argument("mean_availability: t1 < t0");
  if (sim::time_close(t0, t1)) return availability();
  // load_history_ is a time-ordered step series of competing-process counts
  // (the auditor checks the order); average the availability each implies.
  const double mean =
      sim::integrate_step_series(
          load_history_.begin(), load_history_.end(), t0, t1, 0.0,
          [](double value) { return availability_of_sample(value); }) /
      (t1 - t0);
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    // The integral of a step series bounded to [0, 1] must itself land in
    // [0, 1]; anything else means the window walk double-counted a segment.
    if (mean < -1e-12 || mean > 1.0 + 1e-12)
      auditor->report("platform", "availability_integral_in_unit_interval",
                      simulator_.now(),
                      name_ + " mean availability " + std::to_string(mean) +
                          " over [" + std::to_string(t0) + ", " +
                          std::to_string(t1) + "]");
  }
  return mean;
}

}  // namespace simsweep::platform
