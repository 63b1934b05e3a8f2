// Initial scheduling and performance estimation helpers (paper §6).
//
// "The initial schedule always uses the fastest performing processors at
// the time of application startup."  Allocation (the pool the application
// may ever touch) and the initial active set are both chosen by current
// effective speed.
#pragma once

#include <vector>

#include "platform/cluster.hpp"
#include "swap/planner.hpp"

namespace simsweep::strategy {

/// The processors granted to the application: `active` hosts compute,
/// `spares` idle (blocking on I/O; they consume nothing).
struct Allocation {
  std::vector<platform::HostId> active;
  std::vector<platform::HostId> spares;

  [[nodiscard]] std::size_t total() const noexcept {
    return active.size() + spares.size();
  }
};

/// How the pre-execution scheduler ranks hosts when choosing the
/// allocation.  The paper always uses kFastestEffective ("the fastest
/// performing processors at the time of application startup"); the other
/// kinds exist for the abl_initial_schedule experiment.
enum class InitialSchedule {
  kFastestEffective,  ///< rank by current effective speed (the paper)
  kFastestPeak,       ///< rank by peak speed, blind to current load
  kLoadBlind,         ///< take hosts in id order (speed- and load-blind)
};

/// Picks the `active + spare_count` best hosts under `kind`; the best
/// `active_count` of those become the active set.
[[nodiscard]] Allocation pick_allocation(
    const platform::Cluster& cluster, std::size_t active_count,
    std::size_t spare_count,
    InitialSchedule kind = InitialSchedule::kFastestEffective);

/// Predicted sustained speed of one process on `host`: instantaneous
/// effective speed when `window_s` == 0, otherwise peak speed times the
/// mean availability over the trailing window — the NWS-style predictor
/// the paper's runtime uses.
[[nodiscard]] double estimate_speed(const platform::Host& host,
                                    sim::SimTime now, double window_s);

class SpeedEstimator;  // strategy/estimator.hpp

/// Builds planner inputs for the current placement, each speed predicted by
/// `estimator`.
[[nodiscard]] std::vector<swap::ActiveProcess> make_active_estimates(
    const platform::Cluster& cluster,
    const std::vector<platform::HostId>& placement,
    const std::vector<double>& chunk_flops, sim::SimTime now,
    SpeedEstimator& estimator);

/// Builds planner inputs for the spare pool.
[[nodiscard]] std::vector<swap::HostEstimate> make_spare_estimates(
    const platform::Cluster& cluster,
    const std::vector<platform::HostId>& spares, sim::SimTime now,
    SpeedEstimator& estimator);

}  // namespace simsweep::strategy
