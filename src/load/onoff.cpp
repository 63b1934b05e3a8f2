#include "load/onoff.hpp"

#include <cmath>
#include <stdexcept>

namespace simsweep::load {

double sample_geometric_sojourn(sim::Rng& rng, double exit_p, double step_s) {
  if (exit_p <= 0.0) return sim::kTimeInfinity;
  if (exit_p >= 1.0) return step_s;
  // Geometric (number of trials until first success, support {1, 2, ...})
  // via inversion: k = ceil(ln(U) / ln(1 - p)).
  const double u = rng.uniform01();
  // 1 - exit_p rounds to a multiple of 2^-53, so for a tiny exit_p its log
  // is off by up to 2x, and it is 0 (every sojourn one step) at or below
  // 2^-54, about 5.6e-17.  log1p is accurate there; from 2^-26 up the plain
  // log errs by under 1e-8 relative and stays, so those sojourns keep
  // their bits.
  const double log_stay =
      exit_p < 0x1p-26 ? std::log1p(-exit_p) : std::log(1.0 - exit_p);
  const double k = std::ceil(std::log(1.0 - u) / log_stay);
  return std::max(1.0, k) * step_s;
}

namespace {

class OnOffSource final : public LoadSource {
 public:
  OnOffSource(const OnOffParams& params, sim::Rng rng)
      : params_(params), rng_(rng) {}

  void start(sim::Simulator& simulator, platform::Host& host) override {
    simulator_ = &simulator;
    host_ = &host;
    const double pi =
        params_.p + params_.q > 0.0 ? params_.p / (params_.p + params_.q) : 0.0;
    on_ = params_.stationary_start && rng_.bernoulli(pi);
    host_->set_external_load(on_ ? 1 : 0);
    schedule_next();
  }

 private:
  void schedule_next() {
    const double exit_p = on_ ? params_.q : params_.p;
    const double sojourn = sample_geometric_sojourn(rng_, exit_p, params_.step_s);
    if (sojourn == sim::kTimeInfinity) return;  // absorbed in this state
    simulator_->after(sojourn, [this] {
      on_ = !on_;
      host_->set_external_load(on_ ? 1 : 0);
      schedule_next();
    });
  }

  OnOffParams params_;
  sim::Rng rng_;
  sim::Simulator* simulator_ = nullptr;
  platform::Host* host_ = nullptr;
  bool on_ = false;
};

}  // namespace

OnOffModel::OnOffModel(const OnOffParams& params) : params_(params) {
  if (params.p < 0.0 || params.p > 1.0 || params.q < 0.0 || params.q > 1.0)
    throw std::invalid_argument("OnOffModel: p and q must lie in [0, 1]");
  if (params.step_s <= 0.0)
    throw std::invalid_argument("OnOffModel: step must be positive");
}

std::unique_ptr<LoadSource> OnOffModel::make_source(sim::Rng rng) const {
  return std::make_unique<OnOffSource>(params_, rng);
}

std::string OnOffModel::describe() const {
  return "onoff;p=" + describe_number(params_.p) +
         ";q=" + describe_number(params_.q) +
         ";step_s=" + describe_number(params_.step_s) + ";stationary_start=" +
         (params_.stationary_start ? "1" : "0");
}

double OnOffModel::stationary_on_fraction() const noexcept {
  const double total = params_.p + params_.q;
  return total > 0.0 ? params_.p / total : 0.0;
}

}  // namespace simsweep::load
