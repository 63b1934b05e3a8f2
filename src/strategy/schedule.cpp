#include "strategy/schedule.hpp"

#include <stdexcept>

#include "strategy/estimator.hpp"

namespace simsweep::strategy {

Allocation pick_allocation(const platform::Cluster& cluster,
                           std::size_t active_count, std::size_t spare_count,
                           InitialSchedule kind) {
  if (active_count == 0)
    throw std::invalid_argument("pick_allocation: no active processes");
  if (active_count + spare_count > cluster.size())
    throw std::invalid_argument(
        "pick_allocation: allocation exceeds platform size");
  std::vector<platform::HostId> ranked;
  switch (kind) {
    case InitialSchedule::kFastestEffective:
      ranked = cluster.by_effective_speed();
      break;
    case InitialSchedule::kFastestPeak:
      ranked = cluster.by_peak_speed();
      break;
    case InitialSchedule::kLoadBlind:
      ranked.resize(cluster.size());
      for (std::size_t i = 0; i < cluster.size(); ++i)
        ranked[i] = static_cast<platform::HostId>(i);
      break;
  }
  Allocation out;
  out.active.assign(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(active_count));
  out.spares.assign(
      ranked.begin() + static_cast<std::ptrdiff_t>(active_count),
      ranked.begin() + static_cast<std::ptrdiff_t>(active_count + spare_count));
  return out;
}

double estimate_speed(const platform::Host& host, sim::SimTime now,
                      double window_s) {
  if (window_s <= 0.0) return host.effective_speed();
  const sim::SimTime t0 = now > window_s ? now - window_s : 0.0;
  return host.peak_speed() * host.mean_availability(t0, now);
}

std::vector<swap::ActiveProcess> make_active_estimates(
    const platform::Cluster& cluster,
    const std::vector<platform::HostId>& placement,
    const std::vector<double>& chunk_flops, sim::SimTime now,
    SpeedEstimator& estimator) {
  if (placement.size() != chunk_flops.size())
    throw std::invalid_argument("make_active_estimates: size mismatch");
  std::vector<swap::ActiveProcess> out;
  out.reserve(placement.size());
  for (std::size_t slot = 0; slot < placement.size(); ++slot) {
    out.push_back(swap::ActiveProcess{
        .slot = slot,
        .host = placement[slot],
        .est_speed = estimator.estimate(cluster.host(placement[slot]), now),
        .chunk_flops = chunk_flops[slot],
    });
  }
  return out;
}

std::vector<swap::HostEstimate> make_spare_estimates(
    const platform::Cluster& cluster,
    const std::vector<platform::HostId>& spares, sim::SimTime now,
    SpeedEstimator& estimator) {
  std::vector<swap::HostEstimate> out;
  out.reserve(spares.size());
  for (platform::HostId h : spares) {
    out.push_back(swap::HostEstimate{
        .host = h,
        .est_speed = estimator.estimate(cluster.host(h), now),
    });
  }
  return out;
}

}  // namespace simsweep::strategy
