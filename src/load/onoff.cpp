#include "load/onoff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace simsweep::load {

GeometricSojourn::GeometricSojourn(double exit_p, double step_s)
    : step_s_(step_s) {
  if (exit_p <= 0.0) {
    log_stay_ = 0.0;
  } else if (exit_p >= 1.0) {
    log_stay_ = -std::numeric_limits<double>::infinity();
  } else {
    // 1 - exit_p rounds to a multiple of 2^-53, so for a tiny exit_p its
    // log is off by up to 2x, and it is 0 (every sojourn one step) at or
    // below 2^-54, about 5.6e-17.  log1p is accurate there; from 2^-26 up
    // the plain log errs by under 1e-8 relative and stays, so those
    // sojourns keep their bits.
    log_stay_ =
        exit_p < 0x1p-26 ? std::log1p(-exit_p) : std::log(1.0 - exit_p);
  }
}

double GeometricSojourn::draw(sim::Rng& rng) const {
  if (log_stay_ == 0.0) return sim::kTimeInfinity;
  if (log_stay_ == -std::numeric_limits<double>::infinity()) return step_s_;
  // Geometric (number of trials until first success, support {1, 2, ...})
  // via inversion: k = ceil(ln(U) / ln(1 - p)).
  const double u = rng.uniform01();
  const double k = std::ceil(std::log(1.0 - u) / log_stay_);
  return std::max(1.0, k) * step_s_;
}

double sample_geometric_sojourn(sim::Rng& rng, double exit_p, double step_s) {
  return GeometricSojourn(exit_p, step_s).draw(rng);
}

OnOffChain::OnOffChain(const OnOffParams& params, std::uint64_t seed)
    : rng_(seed),
      leave_off_(params.p, params.step_s),
      leave_on_(params.q, params.step_s) {
  const double pi =
      params.p + params.q > 0.0 ? params.p / (params.p + params.q) : 0.0;
  on_ = params.stationary_start && rng_.bernoulli(pi);
}

namespace {

class OnOffSource final : public LoadSource {
 public:
  OnOffSource(const OnOffParams& params, std::uint64_t seed)
      : chain_(params, seed) {}

  void start(sim::Simulator& simulator, platform::Host& host) override {
    simulator_ = &simulator;
    host_ = &host;
    host_->set_external_load(chain_.on() ? 1 : 0);
    schedule_next();
  }

 private:
  void schedule_next() {
    const double sojourn = chain_.draw_sojourn();
    if (sojourn == sim::kTimeInfinity) return;  // absorbed in this state
    simulator_->after(sojourn, [this] {
      chain_.flip();
      host_->set_external_load(chain_.on() ? 1 : 0);
      schedule_next();
    });
  }

  OnOffChain chain_;
  sim::Simulator* simulator_ = nullptr;
  platform::Host* host_ = nullptr;
};

}  // namespace

OnOffModel::OnOffModel(const OnOffParams& params) : params_(params) {
  if (params.p < 0.0 || params.p > 1.0 || params.q < 0.0 || params.q > 1.0)
    throw std::invalid_argument("OnOffModel: p and q must lie in [0, 1]");
  if (params.step_s <= 0.0)
    throw std::invalid_argument("OnOffModel: step must be positive");
}

std::unique_ptr<LoadSource> OnOffModel::make_source(std::uint64_t seed) const {
  return std::make_unique<OnOffSource>(params_, seed);
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
