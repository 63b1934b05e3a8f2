// Simulated workstation.
//
// A Host has a fixed peak speed and a time-varying number of external
// competing compute-bound processes.  The CPU is shared fairly between the
// competitors and every application task running on the host, so each
// application task progresses at
//
//     peak_speed / (external_load + running_app_tasks)        [flop/s]
//
// The sharing itself is a sim::FairShare: its capacity is the peak speed (0
// while the host is offline) and its background is the competing-process
// count.  The host keeps the load, the online/crash state and the history.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simcore/fair_share.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"
#include "simcore/step_series.hpp"

namespace simsweep::platform {

using sim::SimTime;

/// A unit of CPU work executing on a host, in flops.  Created via
/// Host::start_compute; destroyed (or cancelled) when complete.
using ComputeTask = sim::FairShare::Member;

/// Identifier of a host within its cluster.
using HostId = std::uint32_t;

class Host {
 public:
  Host(sim::Simulator& simulator, HostId id, double peak_speed_flops,
       std::string name);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Peak speed in flop/s with no competition.
  [[nodiscard]] double peak_speed() const noexcept { return peak_speed_; }

  /// Number of external competing compute-bound processes right now.
  [[nodiscard]] int external_load() const noexcept { return external_load_; }

  /// Fraction of peak speed an application task would receive if it were the
  /// only app task on the host: 1 / (1 + external_load), or 0 while the
  /// host is offline (reclaimed by its owner).
  [[nodiscard]] double availability() const noexcept {
    if (!online_) return 0.0;
    return 1.0 / (1.0 + static_cast<double>(external_load_));
  }

  /// Effective speed (flop/s) a single app task would get right now.
  [[nodiscard]] double effective_speed() const noexcept {
    return peak_speed_ * availability();
  }

  /// Sets the external competing-process count; re-plans running tasks.
  /// Called by load models.
  void set_external_load(int competitors);

  /// Marks the host reclaimed by its owner (offline) or available again.
  /// While offline the host contributes no cycles: availability() is 0 and
  /// running tasks stall until the host returns.  Orthogonal to the
  /// competing-process count, which is preserved across the outage.
  /// Ignored once the host has crashed — a dead machine does not come back.
  void set_online(bool online);

  [[nodiscard]] bool online() const noexcept { return online_; }

  /// Permanent failure (fault injection): the host goes offline forever and
  /// any process state it held is lost.  Unlike graceful reclamation
  /// (set_online(false)), a crashed host never returns; subsequent
  /// set_online(true) calls from load models are no-ops.
  void set_crashed();

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// Starts `work` flops of application work; `done` fires at completion.
  /// The returned task stays valid until completion or cancellation.
  std::shared_ptr<ComputeTask> start_compute(double work,
                                             ComputeTask::Completion done);

  /// Number of application tasks currently running here.
  [[nodiscard]] std::size_t running_tasks() const noexcept {
    return cpu_.size();
  }

  /// Recorded load history since construction: sample values are the
  /// competing-process count while online and kOfflineMarker (-1) while the
  /// host is reclaimed.  Used by performance-history estimators.
  [[nodiscard]] const std::vector<sim::Sample>& load_history() const noexcept {
    return load_history_;
  }

  /// Sentinel value in load_history() marking an offline interval.
  static constexpr double kOfflineMarker = -1.0;

  /// Availability implied by one load_history() sample value.
  [[nodiscard]] static double availability_of_sample(double value) noexcept {
    return value < 0.0 ? 0.0 : 1.0 / (1.0 + value);
  }

  /// Mean availability over [t0, t1] from the recorded history.
  [[nodiscard]] double mean_availability(SimTime t0, SimTime t1) const;

 private:
  void record_state();

  sim::Simulator& simulator_;
  HostId id_;
  double peak_speed_;
  std::string name_;
  int external_load_ = 0;
  bool online_ = true;
  bool crashed_ = false;
  sim::FairShare cpu_;  // app tasks share peak_speed_ with external_load_
  std::vector<sim::Sample> load_history_;

  // Cached observability handles: record_state fires on every load change
  // (the hottest instrumented path), and the registry/tracer are fixed for
  // a simulation's lifetime, so the name lookups happen once per host.
  obs::Counter* load_changes_metric_ = nullptr;
  obs::Histogram* availability_metric_ = nullptr;
  obs::TimelineTracer::TrackId timeline_track_ = 0;
  bool timeline_track_cached_ = false;
};

}  // namespace simsweep::platform
