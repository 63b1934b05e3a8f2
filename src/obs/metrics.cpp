#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/provenance.hpp"

namespace simsweep::obs {

void Gauge::set(double value) {
  last_ = value;
  if (!set_) {
    min_ = max_ = value;
    set_ = true;
    return;
  }
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Gauge::merge(const Snapshot& other) {
  last_ = other.last;
  if (!set_) {
    min_ = other.min;
    max_ = other.max;
    set_ = true;
    return;
  }
  min_ = std::min(min_, other.min);
  max_ = std::max(max_, other.max);
}

Gauge::Snapshot Gauge::snapshot() const {
  return Snapshot{last_, min_, max_};
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bounds must be sorted");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::merge(const Snapshot& other) {
  if (other.bounds != bounds_)
    throw std::invalid_argument(
        "Histogram::merge: bucket bounds mismatch (merged histograms must "
        "describe the same quantity)");
  if (other.counts.size() != counts_.size())
    throw std::invalid_argument(
        "Histogram::merge: " + std::to_string(other.counts.size()) +
        " counts for " + std::to_string(bounds_.size()) +
        " bounds (want bounds + 1)");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts[i];
  if (other.count == 0) return;
  sum_ += other.sum;
  if (count_ == 0) {
    min_ = other.min;
    max_ = other.max;
  } else {
    min_ = std::min(min_, other.min);
    max_ = std::max(max_, other.max);
  }
  count_ += other.count;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

const std::vector<double>& default_histogram_bounds() {
  static const std::vector<double> kBounds{
      1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1,
      1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8, 1e9};
  return kBounds;
}

std::string labelled(std::string_view base, std::string_view key,
                     std::string_view value) {
  std::string out;
  out.reserve(base.size() + key.size() + value.size() + 3);
  out.append(base);
  out.push_back('{');
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('}');
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histogram(name, default_histogram_bounds());
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    if (it->second.snapshot().bounds != bounds)
      throw std::invalid_argument("MetricsRegistry: histogram '" +
                                  std::string(name) +
                                  "' re-registered with different bounds");
    return it->second;
  }
  return histograms_.try_emplace(std::string(name), bounds).first->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

std::optional<Gauge::Snapshot> MetricsRegistry::gauge_snapshot(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second.snapshot();
}

std::optional<Histogram::Snapshot> MetricsRegistry::histogram_snapshot(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return std::nullopt;
  return it->second.snapshot();
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, _] : counters_) out.push_back(name);
  return out;
}

bool MetricsRegistry::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) out.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g.snapshot();
  for (const auto& [name, h] : histograms_)
    out.histograms[name] = h.snapshot();
  return out;
}

void MetricsRegistry::merge(const MetricsSnapshot& other) {
  // Applied through the public get-or-create API, which takes our lock per
  // call; merge_from copies the other registry out under its own lock
  // first, so the two locks are never held at once.
  for (const auto& [name, value] : other.counters) counter(name).add(value);
  for (const auto& [name, snap] : other.gauges) gauge(name).merge(snap);
  for (const auto& [name, snap] : other.histograms)
    histogram(name, snap.bounds).merge(snap);
}

void MetricsRegistry::write_json(std::ostream& os,
                                 const Provenance* meta) const {
  obs::write_json(os, snapshot(), meta);
}

}  // namespace simsweep::obs
