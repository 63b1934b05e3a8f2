// External CPU load models.
//
// A LoadSource drives one host's external competing-process count over
// simulated time by scheduling events on the simulator.  The paper's two
// models are implemented (ON/OFF Markov sources and a degenerate
// hyperexponential lifetime model), plus constant load, trace replay and
// aggregation of ON/OFF sources, which the paper lists as future work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/host.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::platform {
class Cluster;
}

namespace simsweep::load {

/// Drives the external load of a single host.
class LoadSource {
 public:
  virtual ~LoadSource() = default;

  /// Begins generating load events for `host`.  Must be called once, before
  /// the simulation runs past time 0.
  virtual void start(sim::Simulator& simulator, platform::Host& host) = 0;
};

/// Abstract factory: builds one independent source per host, each with its
/// own derived random stream so platform size does not perturb the draws of
/// other hosts.
class LoadModel {
 public:
  virtual ~LoadModel() = default;

  /// A source drawing from the stream sim::Rng(seed), which it seeds in
  /// place: a stream is 2.5 KB, and building it where it lives copies none.
  [[nodiscard]] virtual std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const = 0;

  /// Canonical one-line description of the model and every parameter that
  /// shapes its load process ("onoff;p=0.3;q=0.08;..."), in round-trip
  /// number form.  Folded into the provenance config digest, so two runs
  /// whose digests match really did draw from the same load process.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Attaches a fresh source to every host of a cluster.  `root_seed`
  /// derives one stream per host id: host i's source draws from
  /// sim::Rng(root_seed, i).  Returns the sources; callers keep them
  /// alive for the duration of the simulation.
  static std::vector<std::unique_ptr<LoadSource>> attach_all(
      const LoadModel& model, sim::Simulator& simulator,
      platform::Cluster& cluster, std::uint64_t root_seed);
};

/// Shortest round-trip rendering of `value` for describe() strings, so
/// descriptions (and the digests built from them) distinguish any two
/// doubles that differ.
[[nodiscard]] std::string describe_number(double value);

}  // namespace simsweep::load
