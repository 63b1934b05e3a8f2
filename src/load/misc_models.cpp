#include "load/misc_models.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simsweep::load {

// ---------------------------------------------------------------- Constant

namespace {

class ConstantSource final : public LoadSource {
 public:
  explicit ConstantSource(int competitors) : competitors_(competitors) {}
  void start(sim::Simulator&, platform::Host& host) override {
    host.set_external_load(competitors_);
  }

 private:
  int competitors_;
};

}  // namespace

ConstantModel::ConstantModel(int competitors) : competitors_(competitors) {
  if (competitors < 0)
    throw std::invalid_argument("ConstantModel: negative competitor count");
}

std::unique_ptr<LoadSource> ConstantModel::make_source(std::uint64_t) const {
  return std::make_unique<ConstantSource>(competitors_);
}

std::string ConstantModel::describe() const {
  return "constant;competitors=" + std::to_string(competitors_);
}

// ------------------------------------------------------------------- Trace

namespace {

class TraceSource final : public LoadSource {
 public:
  TraceSource(const std::vector<sim::Sample>* trace, double period,
              double phase)
      : trace_(trace), period_(period), phase_(phase) {}

  void start(sim::Simulator& simulator, platform::Host& host) override {
    simulator_ = &simulator;
    host_ = &host;
    // Position the cursor at the first sample at or after the phase; the
    // value in effect at the phase is that of the preceding sample.
    index_ = 0;
    while (index_ < trace_->size() && (*trace_)[index_].time <= phase_) ++index_;
    const double initial =
        index_ == 0 ? trace_->back().value : (*trace_)[index_ - 1].value;
    host_->set_external_load(static_cast<int>(std::lround(initial)));
    offset_ = simulator.now() - phase_;  // trace time + offset == sim time
    schedule_next();
  }

 private:
  void schedule_next() {
    if (index_ >= trace_->size()) {  // wrap to the next period
      index_ = 0;
      offset_ += period_;
    }
    const sim::Sample& s = (*trace_)[index_];
    const double when = s.time + offset_;
    simulator_->after(std::max(0.0, when - simulator_->now()), [this, s] {
      host_->set_external_load(static_cast<int>(std::lround(s.value)));
      ++index_;
      schedule_next();
    });
  }

  const std::vector<sim::Sample>* trace_;
  double period_;
  double phase_;
  double offset_ = 0.0;
  std::size_t index_ = 0;
  sim::Simulator* simulator_ = nullptr;
  platform::Host* host_ = nullptr;
};

}  // namespace

TraceModel::TraceModel(std::vector<sim::Sample> trace, double period_s,
                       bool random_phase)
    : trace_(std::move(trace)), period_(period_s), random_phase_(random_phase) {
  if (trace_.empty()) throw std::invalid_argument("TraceModel: empty trace");
  if (!std::is_sorted(trace_.begin(), trace_.end(),
                      [](const sim::Sample& a, const sim::Sample& b) {
                        return a.time < b.time;
                      }))
    throw std::invalid_argument("TraceModel: trace must be time-sorted");
  if (trace_.front().time < 0.0)
    throw std::invalid_argument("TraceModel: negative sample time");
  if (period_ < trace_.back().time || period_ <= 0.0)
    throw std::invalid_argument("TraceModel: period must cover the trace");
}

std::unique_ptr<LoadSource> TraceModel::make_source(std::uint64_t seed) const {
  sim::Rng rng(seed);
  const double phase = random_phase_ ? rng.uniform(0.0, period_) : 0.0;
  return std::make_unique<TraceSource>(&trace_, period_, phase);
}

std::string TraceModel::describe() const {
  std::string out = "trace;period_s=" + describe_number(period_) +
                    ";random_phase=" + (random_phase_ ? "1" : "0") +
                    ";samples=";
  for (const sim::Sample& s : trace_) {
    out += describe_number(s.time);
    out += ':';
    out += describe_number(s.value);
    out += ',';
  }
  return out;
}

// --------------------------------------------------------------- Composite

namespace {

class CompositeOnOffSource final : public LoadSource {
 public:
  /// Part i draws from the stream that the i-th of the calls split(0),
  /// split(1), ... on sim::Rng(seed) would return.
  CompositeOnOffSource(const std::vector<OnOffParams>& params,
                       std::uint64_t seed) {
    sim::Rng parent(seed);
    parts_.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      parts_.emplace_back(params[i], sim::derive_seed(parent.next_u64(), i));
  }

  void start(sim::Simulator& simulator, platform::Host& host) override {
    simulator_ = &simulator;
    host_ = &host;
    int on_count = 0;
    for (OnOffChain& part : parts_) {
      if (part.on()) ++on_count;
      schedule_next(part);
    }
    host_->set_external_load(on_count);
  }

 private:
  void schedule_next(OnOffChain& part) {
    const double sojourn = part.draw_sojourn();
    if (sojourn == sim::kTimeInfinity) return;
    simulator_->after(sojourn, [this, &part] {
      part.flip();
      int on_count = 0;
      for (const OnOffChain& q : parts_)
        if (q.on()) ++on_count;
      host_->set_external_load(on_count);
      schedule_next(part);
    });
  }

  std::vector<OnOffChain> parts_;  // reserved once: events hold references
  sim::Simulator* simulator_ = nullptr;
  platform::Host* host_ = nullptr;
};

}  // namespace

CompositeOnOffModel::CompositeOnOffModel(std::vector<OnOffParams> sources)
    : sources_(std::move(sources)) {
  if (sources_.empty())
    throw std::invalid_argument("CompositeOnOffModel: no sources");
  for (const OnOffParams& p : sources_) {
    const OnOffModel validator{p};  // reuse the ON/OFF parameter validation
    (void)validator;
  }
}

std::unique_ptr<LoadSource> CompositeOnOffModel::make_source(
    std::uint64_t seed) const {
  return std::make_unique<CompositeOnOffSource>(sources_, seed);
}

std::string CompositeOnOffModel::describe() const {
  std::string out = "composite_onoff;sources=";
  for (const OnOffParams& p : sources_) {
    out += OnOffModel(p).describe();
    out += '|';
  }
  return out;
}

}  // namespace simsweep::load
