#include "load/hyperexp.hpp"

#include <stdexcept>

namespace simsweep::load {

namespace {

class HyperExpSource final : public LoadSource {
 public:
  HyperExpSource(const HyperExpParams& params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  void start(sim::Simulator& simulator, platform::Host& host) override {
    simulator_ = &simulator;
    host_ = &host;
    host_->set_external_load(0);
    schedule_arrival();
  }

 private:
  void schedule_arrival() {
    const double gap = rng_.uniform(0.0, 2.0 * params_.mean_interarrival_s);
    simulator_->after(gap, [this] {
      arrive();
      schedule_arrival();
    });
  }

  void arrive() {
    const double lifetime = sample_lifetime();
    if (lifetime <= 0.0) return;  // degenerate branch: exits immediately
    ++alive_;
    host_->set_external_load(alive_);
    simulator_->after(lifetime, [this] {
      --alive_;
      host_->set_external_load(alive_);
    });
  }

  [[nodiscard]] double sample_lifetime() {
    if (!rng_.bernoulli(params_.long_prob)) return 0.0;
    return rng_.exponential_mean(params_.mean_lifetime_s / params_.long_prob);
  }

  HyperExpParams params_;
  sim::Rng rng_;
  sim::Simulator* simulator_ = nullptr;
  platform::Host* host_ = nullptr;
  int alive_ = 0;
};

}  // namespace

HyperExpModel::HyperExpModel(const HyperExpParams& params) : params_(params) {
  if (params.mean_lifetime_s <= 0.0)
    throw std::invalid_argument("HyperExpModel: mean lifetime must be positive");
  if (params.long_prob <= 0.0 || params.long_prob > 1.0)
    throw std::invalid_argument("HyperExpModel: long_prob must lie in (0, 1]");
  if (params.mean_interarrival_s <= 0.0)
    throw std::invalid_argument(
        "HyperExpModel: mean interarrival must be positive");
}

std::unique_ptr<LoadSource> HyperExpModel::make_source(
    std::uint64_t seed) const {
  return std::make_unique<HyperExpSource>(params_, seed);
}

std::string HyperExpModel::describe() const {
  return "hyperexp;mean_lifetime_s=" +
         describe_number(params_.mean_lifetime_s) +
         ";long_prob=" + describe_number(params_.long_prob) +
         ";mean_interarrival_s=" +
         describe_number(params_.mean_interarrival_s);
}

}  // namespace simsweep::load
