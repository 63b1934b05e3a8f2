#include "forecast/forecaster.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "simcore/step_series.hpp"

namespace simsweep::forecast {

namespace {

class LastValue final : public Forecaster {
 public:
  void observe(double t, double value) override {
    check_time(t);
    last_ = value;
    seen_ = true;
  }
  [[nodiscard]] double predict(double fallback) const override {
    return seen_ ? last_ : fallback;
  }
  [[nodiscard]] std::unique_ptr<Forecaster> clone() const override {
    return std::make_unique<LastValue>(*this);
  }
  [[nodiscard]] std::string name() const override { return "last_value"; }

 private:
  void check_time(double t) {
    if (seen_ && t < last_t_)
      throw std::invalid_argument("Forecaster: time went backwards");
    last_t_ = t;
  }
  double last_ = 0.0;
  double last_t_ = 0.0;
  bool seen_ = false;
};

class WindowedMean final : public Forecaster {
 public:
  explicit WindowedMean(double window_s) : window_(window_s) {
    if (window_s <= 0.0)
      throw std::invalid_argument("WindowedMean: window must be positive");
  }
  void observe(double t, double value) override {
    if (!samples_.empty() && t < samples_.back().time)
      throw std::invalid_argument("Forecaster: time went backwards");
    samples_.push_back(sim::Sample{t, value});
    // Keep one sample older than the window (its value is in effect at the
    // window's left edge).
    while (samples_.size() > 1 && samples_[1].time <= t - window_)
      samples_.pop_front();
  }
  [[nodiscard]] double predict(double fallback) const override {
    if (samples_.empty()) return fallback;
    const double now = samples_.back().time;
    if (samples_.front().time >= now) return samples_.back().value;
    // Before the first sample the series takes the first sample's value
    // (there is no older information).
    return sim::integrate_step_series(samples_.begin(), samples_.end(),
                                      now - window_, now,
                                      samples_.front().value) /
           window_;
  }
  [[nodiscard]] std::unique_ptr<Forecaster> clone() const override {
    return std::make_unique<WindowedMean>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "mean_" + std::to_string(static_cast<int>(window_)) + "s";
  }

 private:
  double window_;
  std::deque<sim::Sample> samples_;
};

class Ewma final : public Forecaster {
 public:
  explicit Ewma(double tau_s) : tau_(tau_s) {
    if (tau_s <= 0.0)
      throw std::invalid_argument("Ewma: time constant must be positive");
  }
  void observe(double t, double value) override {
    if (seen_ && t < last_t_)
      throw std::invalid_argument("Forecaster: time went backwards");
    if (!seen_) {
      state_ = value;
      seen_ = true;
    } else {
      // Decay toward the new observation by the elapsed time.  A zero gap
      // (same-instant update) replaces nothing; value dominates as gap/tau
      // grows.
      const double gap = t - last_t_;
      const double alpha = 1.0 - std::exp(-gap / tau_);
      state_ += alpha * (value - state_);
    }
    last_t_ = t;
  }
  [[nodiscard]] double predict(double fallback) const override {
    return seen_ ? state_ : fallback;
  }
  [[nodiscard]] std::unique_ptr<Forecaster> clone() const override {
    return std::make_unique<Ewma>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "ewma_" + std::to_string(static_cast<int>(tau_)) + "s";
  }

 private:
  double tau_;
  double state_ = 0.0;
  double last_t_ = 0.0;
  bool seen_ = false;
};

class SlidingMedian final : public Forecaster {
 public:
  explicit SlidingMedian(std::size_t k) : k_(k) {
    if (k == 0) throw std::invalid_argument("SlidingMedian: k must be positive");
  }
  void observe(double t, double value) override {
    if (!window_.empty() && t < last_t_)
      throw std::invalid_argument("Forecaster: time went backwards");
    last_t_ = t;
    window_.push_back(value);
    if (window_.size() > k_) window_.pop_front();
  }
  [[nodiscard]] double predict(double fallback) const override {
    if (window_.empty()) return fallback;
    std::vector<double> sorted(window_.begin(), window_.end());
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(sorted.size() / 2),
                     sorted.end());
    return sorted[sorted.size() / 2];
  }
  [[nodiscard]] std::unique_ptr<Forecaster> clone() const override {
    return std::make_unique<SlidingMedian>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "median_" + std::to_string(k_);
  }

 private:
  std::size_t k_;
  double last_t_ = 0.0;
  std::deque<double> window_;
};

class Adaptive final : public Forecaster {
 public:
  explicit Adaptive(std::vector<std::unique_ptr<Forecaster>> candidates)
      : candidates_(std::move(candidates)),
        abs_error_(candidates_.size(), 0.0),
        observations_(0) {
    if (candidates_.empty())
      throw std::invalid_argument("Adaptive: no candidate forecasters");
  }

  Adaptive(const Adaptive& other)
      : abs_error_(other.abs_error_), observations_(other.observations_) {
    candidates_.reserve(other.candidates_.size());
    for (const auto& c : other.candidates_) candidates_.push_back(c->clone());
  }

  void observe(double t, double value) override {
    // Score every candidate's standing prediction against the new truth,
    // then let it learn the observation.
    if (observations_ > 0) {
      for (std::size_t i = 0; i < candidates_.size(); ++i)
        abs_error_[i] += std::fabs(candidates_[i]->predict() - value);
    }
    for (auto& c : candidates_) c->observe(t, value);
    ++observations_;
  }

  [[nodiscard]] double predict(double fallback) const override {
    if (observations_ == 0) return fallback;
    return candidates_[best_index()]->predict(fallback);
  }

  [[nodiscard]] std::unique_ptr<Forecaster> clone() const override {
    return std::make_unique<Adaptive>(*this);
  }

  [[nodiscard]] std::string name() const override {
    return "adaptive[" + candidates_[best_index()]->name() + "]";
  }

 private:
  [[nodiscard]] std::size_t best_index() const {
    return static_cast<std::size_t>(
        std::min_element(abs_error_.begin(), abs_error_.end()) -
        abs_error_.begin());
  }

  std::vector<std::unique_ptr<Forecaster>> candidates_;
  std::vector<double> abs_error_;
  std::size_t observations_;
};

}  // namespace

std::unique_ptr<Forecaster> make_last_value() {
  return std::make_unique<LastValue>();
}

std::unique_ptr<Forecaster> make_windowed_mean(double window_s) {
  return std::make_unique<WindowedMean>(window_s);
}

std::unique_ptr<Forecaster> make_ewma(double tau_s) {
  return std::make_unique<Ewma>(tau_s);
}

std::unique_ptr<Forecaster> make_sliding_median(std::size_t k) {
  return std::make_unique<SlidingMedian>(k);
}

std::unique_ptr<Forecaster> make_adaptive(
    std::vector<std::unique_ptr<Forecaster>> candidates) {
  return std::make_unique<Adaptive>(std::move(candidates));
}

std::unique_ptr<Forecaster> make_default_ensemble() {
  std::vector<std::unique_ptr<Forecaster>> candidates;
  candidates.push_back(make_last_value());
  candidates.push_back(make_windowed_mean(60.0));
  candidates.push_back(make_windowed_mean(300.0));
  candidates.push_back(make_ewma(120.0));
  candidates.push_back(make_sliding_median(5));
  return make_adaptive(std::move(candidates));
}

}  // namespace simsweep::forecast
