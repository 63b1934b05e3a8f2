// Degenerate hyperexponential CPU load source (paper §6, Fig. 3).
//
// Competing processes arrive with uniformly distributed interarrival times
// and live for a degenerate-hyperexponentially distributed duration, the
// model of Eager, Lazowska & Zahorjan used by the paper to capture the
// heavy-tailed nature of process lifetimes: with probability `long_prob` a
// process lives Exp(mean = mean_lifetime / long_prob), otherwise it exits
// immediately.  The branch means preserve the overall mean lifetime while
// inflating its coefficient of variation.  Unlike the ON/OFF model, several
// competitors may run simultaneously on one host.
#pragma once

#include "load/load_model.hpp"

namespace simsweep::load {

struct HyperExpParams {
  /// Mean competing-process lifetime in seconds (paper Fig. 9 sweeps this).
  double mean_lifetime_s = 100.0;

  /// Probability of the long-lived branch; smaller values give a heavier
  /// tail at the same mean (CV^2 = 2/long_prob - 1).
  double long_prob = 0.2;

  /// Mean interarrival time between competing processes on one host, in
  /// seconds.  Arrivals are Uniform(0, 2 * mean_interarrival_s).
  double mean_interarrival_s = 200.0;
};

class HyperExpModel final : public LoadModel {
 public:
  explicit HyperExpModel(const HyperExpParams& params);

  [[nodiscard]] std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const override;

  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const HyperExpParams& params() const noexcept {
    return params_;
  }

  /// Offered load: mean number of simultaneously running competitors
  /// (mean lifetime / mean interarrival).
  [[nodiscard]] double offered_load() const noexcept {
    return params_.mean_lifetime_s / params_.mean_interarrival_s;
  }

  /// Squared coefficient of variation of the lifetime distribution.
  [[nodiscard]] double lifetime_cv2() const noexcept {
    return 2.0 / params_.long_prob - 1.0;
  }

 private:
  HyperExpParams params_;
};

}  // namespace simsweep::load
