// Cluster: the simulated execution platform of the paper —
// heterogeneous workstations on a single shared Ethernet segment.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/host.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::platform {

/// Shared communication link parameters (paper §6: 100baseT LAN modelled as
/// a single shared link; latency alpha, bandwidth beta = 6 MB/s).
struct LinkSpec {
  double latency_s = 1e-4;          ///< per-message latency alpha (seconds)
  double bandwidth_Bps = 6.0e6;     ///< shared bandwidth beta (bytes/second)

  /// Time to move `bytes` as one message on an otherwise idle link.
  [[nodiscard]] double transfer_time(double bytes) const noexcept {
    return latency_s + bytes / bandwidth_Bps;
  }
};

/// Platform-wide constants.
struct ClusterSpec {
  /// Host peak speeds in flop/s.  The paper simulates machines in the
  /// "hundreds of megaflops" range; the builder draws uniformly from
  /// [min_speed, max_speed] unless explicit speeds are given.
  double min_speed_flops = 100.0e6;
  double max_speed_flops = 500.0e6;
  std::vector<double> explicit_speeds;  ///< overrides the range when nonempty

  std::size_t host_count = 32;
  LinkSpec link;

  /// MPI startup cost per allocated process (paper: 3/4 s per process).
  double startup_per_process_s = 0.75;
};

/// Heterogeneous set of hosts sharing one link.
class Cluster {
 public:
  /// Builds a cluster; random speeds are drawn from `rng` when explicit
  /// speeds are not supplied.
  Cluster(sim::Simulator& simulator, const ClusterSpec& spec, sim::Rng& rng);

  [[nodiscard]] std::size_t size() const noexcept { return hosts_.size(); }
  [[nodiscard]] Host& host(HostId id) { return *hosts_.at(id); }
  [[nodiscard]] const Host& host(HostId id) const { return *hosts_.at(id); }
  [[nodiscard]] const LinkSpec& link() const noexcept { return spec_.link; }
  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }

  /// Total startup delay for allocating `process_count` MPI processes.
  [[nodiscard]] double startup_cost(std::size_t process_count) const noexcept {
    return spec_.startup_per_process_s * static_cast<double>(process_count);
  }

  /// Hosts sorted by current effective speed, fastest first.
  [[nodiscard]] std::vector<HostId> by_effective_speed() const;

  /// Hosts sorted by peak speed, fastest first.
  [[nodiscard]] std::vector<HostId> by_peak_speed() const;

 private:
  sim::Simulator& simulator_;
  ClusterSpec spec_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace simsweep::platform
