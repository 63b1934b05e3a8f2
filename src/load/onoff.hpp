// ON/OFF Markov-chain CPU load source (paper §6, Fig. 2).
//
// A two-state discrete-time Markov chain with fixed probabilities of exiting
// each state: every `step_s` seconds an OFF host becomes loaded with
// probability p and an ON host becomes unloaded with probability q.  Sojourn
// times are therefore geometric; we sample them directly instead of stepping,
// so each source emits one event per state change rather than one per step.
//
// ON means one external compute-bound competitor (the paper simulates a
// single competing process per host under this model).
#pragma once

#include <cstdint>

#include "load/load_model.hpp"

namespace simsweep::load {

struct OnOffParams {
  double p = 0.3;     ///< probability of leaving OFF (becoming loaded) per step
  double q = 0.08;    ///< probability of leaving ON (becoming unloaded) per step

  /// Markov-chain time step in seconds.  The paper leaves this implicit,
  /// but the dynamism sweep pins it from two sides: at low probabilities
  /// competing load must persist across several of the 1-5 minute
  /// iterations (sojourn = step/x), so that adaptation can pay off, while
  /// at x -> 1 the load must flip within an iteration ("load changes
  /// dramatically during each application iteration") yet still be averaged
  /// away by the safe policy's 5-minute history window (window >> step).
  /// 100 s satisfies both.
  double step_s = 100.0;
  bool stationary_start = true;  ///< draw the initial state from pi = p/(p+q)

  /// The paper's "environment dynamism [load probability]" sweep: a single
  /// knob x in [0, 1] with p = q = x.  x -> 0 is quiescent (transitions
  /// rarer than the application run), x -> 1 flips state every step.
  [[nodiscard]] static OnOffParams dynamism(double x) {
    OnOffParams out;
    out.p = x;
    out.q = x;
    return out;
  }
};

class OnOffModel final : public LoadModel {
 public:
  explicit OnOffModel(const OnOffParams& params);

  [[nodiscard]] std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const override;

  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const OnOffParams& params() const noexcept { return params_; }

  /// Long-run fraction of time a host is loaded: p / (p + q); 0 when the
  /// chain never leaves OFF.
  [[nodiscard]] double stationary_on_fraction() const noexcept;

 private:
  OnOffParams params_;
};

/// Geometric sojourns in one state: the number of whole steps spent in a
/// state whose per-step exit probability is `exit_p`, times `step_s`.  The
/// log of the stay probability is taken once, here, so a draw costs one
/// uniform and one log.
class GeometricSojourn {
 public:
  GeometricSojourn(double exit_p, double step_s);

  /// +infinity when exit_p <= 0 and step_s when exit_p >= 1, neither
  /// drawing; otherwise one uniform draw, and +infinity again whenever the
  /// sojourn overflows a double, as it can for an exit_p near the smallest
  /// subnormal.
  [[nodiscard]] double draw(sim::Rng& rng) const;

 private:
  double log_stay_;  // ln(1 - exit_p); 0 never exits, -inf every step
  double step_s_;
};

/// One draw of GeometricSojourn(exit_p, step_s).
[[nodiscard]] double sample_geometric_sojourn(sim::Rng& rng, double exit_p,
                                              double step_s);

/// One ON/OFF chain on its own stream sim::Rng(seed): the state machine of
/// an OnOffModel source and of each part of a CompositeOnOffModel source.
/// The initial state is drawn at construction (the stationary start draws
/// once; otherwise the chain starts OFF), and each state keeps its own
/// GeometricSojourn.
class OnOffChain {
 public:
  OnOffChain(const OnOffParams& params, std::uint64_t seed);

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Enters the other state.
  void flip() noexcept { on_ = !on_; }

  /// Time until the next flip; +infinity once the chain is absorbed.
  [[nodiscard]] double draw_sojourn() {
    return (on_ ? leave_on_ : leave_off_).draw(rng_);
  }

 private:
  sim::Rng rng_;
  GeometricSojourn leave_off_;  // exit probability p
  GeometricSojourn leave_on_;   // exit probability q
  bool on_;
};

}  // namespace simsweep::load
