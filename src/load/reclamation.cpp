#include "load/reclamation.hpp"

#include <stdexcept>

namespace simsweep::load {

namespace {

class ReclamationSource final : public LoadSource {
 public:
  ReclamationSource(std::unique_ptr<LoadSource> base,
                    const ReclamationParams& params, std::uint64_t seed)
      : base_(std::move(base)), params_(params), rng_(seed) {}

  void start(sim::Simulator& simulator, platform::Host& host) override {
    simulator_ = &simulator;
    host_ = &host;
    if (base_) base_->start(simulator, host);
    available_ = params_.start_available;
    host_->set_online(available_);
    schedule_toggle();
  }

 private:
  void schedule_toggle() {
    const double mean =
        available_ ? params_.mean_available_s : params_.mean_reclaimed_s;
    simulator_->after(rng_.exponential_mean(mean), [this] {
      available_ = !available_;
      host_->set_online(available_);
      schedule_toggle();
    });
  }

  std::unique_ptr<LoadSource> base_;
  ReclamationParams params_;
  sim::Rng rng_;
  sim::Simulator* simulator_ = nullptr;
  platform::Host* host_ = nullptr;
  bool available_ = true;
};

}  // namespace

ReclamationModel::ReclamationModel(std::shared_ptr<const LoadModel> base,
                                   ReclamationParams params)
    : base_(std::move(base)), params_(params) {
  if (params.mean_available_s <= 0.0 || params.mean_reclaimed_s <= 0.0)
    throw std::invalid_argument(
        "ReclamationModel: phase durations must be positive");
}

std::unique_ptr<LoadSource> ReclamationModel::make_source(
    std::uint64_t seed) const {
  // The streams sim::Rng(seed).split(1) and .split(2) would return, in
  // that order; split(1) only when there is a base model.
  sim::Rng parent(seed);
  auto base_source =
      base_ ? base_->make_source(sim::derive_seed(parent.next_u64(), 1))
            : nullptr;
  return std::make_unique<ReclamationSource>(
      std::move(base_source), params_, sim::derive_seed(parent.next_u64(), 2));
}

std::string ReclamationModel::describe() const {
  return "reclaim;mean_available_s=" +
         describe_number(params_.mean_available_s) + ";mean_reclaimed_s=" +
         describe_number(params_.mean_reclaimed_s) + ";start_available=" +
         (params_.start_available ? "1" : "0") + ";base=[" +
         (base_ ? base_->describe() : "none") + "]";
}

}  // namespace simsweep::load
