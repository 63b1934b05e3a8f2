// Labelled counters, gauges and histograms for the whole simulator stack.
//
// The registry follows the auditor's cost model: it is always compiled,
// normally absent, and every instrumentation site guards with a null-pointer
// check, so a run without --metrics does no extra work.  When present, one
// registry is created per trial and fed only from simulation events, which
// makes its JSON snapshot a pure function of (config, seed): merging the
// per-trial registries in trial-index order yields bitwise-identical output
// at any --jobs.
//
// Thread-safety: Counter::add is a relaxed atomic and safe from any thread
// (swampi ranks share one registry and record counters concurrently).  Gauge
// and Histogram updates are deliberately unsynchronised — they are written
// only by the single simulation thread that owns the trial, and a per-sample
// mutex would dominate the cost of instrumenting event-dense runs.  The
// registry's own mutex guards map shape (get-or-create), so handing out
// references is still safe from any thread.  Registry-wide operations
// (merge_from, write_json) assume mutation has quiesced — they run after the
// trial, never during it.
//
// Labels are encoded in the metric name as "base{key=value}" via labelled();
// std::map keeps every emission order deterministic.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace simsweep::obs {

struct Provenance;

/// Monotonic event count.  add() is lock-free and safe from any thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value with running min/max.  Single-writer: updated only by
/// the simulation thread that owns the trial.
class Gauge {
 public:
  struct Snapshot {
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void set(double value);
  /// Folds another gauge in: last-write-wins (the merged-in gauge is the
  /// later trial), min/max combine.
  void merge(const Snapshot& other);
  [[nodiscard]] Snapshot snapshot() const;

 private:
  bool set_ = false;
  double last_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bound histogram.  Bucket i counts values v with
/// bounds[i-1] < v <= bounds[i] (inclusive upper edge); one extra overflow
/// bucket catches everything above the last bound.  Bounds are fixed at
/// creation; observing NaN throws (a NaN observation is always a bug).
/// Single-writer, like Gauge: observe() is the hottest metric operation
/// (per network flow, per availability sample), so it is inline and lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, overflow last
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void observe(double value) {
    if (std::isnan(value))
      throw std::invalid_argument("Histogram::observe: NaN observation");
    // Upper-inclusive bucket edges: the first bound >= value takes it, +inf
    // and anything above the last bound land in the overflow bucket.
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    sum_ += value;
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    ++count_;
  }

  /// Adds another histogram's buckets in.  Throws std::invalid_argument on a
  /// bounds mismatch — merged histograms must describe the same quantity —
  /// or when `other` does not carry exactly bounds.size() + 1 counts.
  void merge(const Snapshot& other);
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-spaced default bounds (1e-6 .. 1e9, one per decade): wide enough for
/// seconds, bytes and queue depths without per-site tuning.
[[nodiscard]] const std::vector<double>& default_histogram_bounds();

/// "base{key=value}" — the labelled-metric naming convention.
[[nodiscard]] std::string labelled(std::string_view base, std::string_view key,
                                   std::string_view value);

/// Every metric of a registry by value, keys sorted: what write_json prints
/// and what the metrics loader (report/artifact.hpp) reads back.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Gauge::Snapshot> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create.  Returned references stay valid for the registry's
  /// lifetime (node-based map), so hot paths may cache them.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  /// Explicit bounds; throws std::invalid_argument if `name` already exists
  /// with different bounds.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     const std::vector<double>& bounds);

  // One-shot conveniences for call sites that fire rarely.
  void add(std::string_view name, std::uint64_t delta = 1) {
    counter(name).add(delta);
  }
  void set_gauge(std::string_view name, double value) {
    gauge(name).set(value);
  }
  void observe(std::string_view name, double value) {
    histogram(name).observe(value);
  }

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::optional<Gauge::Snapshot> gauge_snapshot(
      std::string_view name) const;
  [[nodiscard]] std::optional<Histogram::Snapshot> histogram_snapshot(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Folds a snapshot in: counters and histogram buckets add, gauges
  /// last-write-wins with combined min/max.  Merging per-trial registries in
  /// trial-index order is associative and independent of how trials were
  /// scheduled across workers — the --jobs identity.  Merging a snapshot
  /// read back from write_json output is bitwise the same as merging the
  /// registry that wrote it.
  void merge(const MetricsSnapshot& other);
  void merge_from(const MetricsRegistry& other) { merge(other.snapshot()); }

  /// Deterministic snapshot: {"meta":..?,"counters":{},"gauges":{},
  /// "histograms":{}} with sorted keys and round-trip doubles.
  void write_json(std::ostream& os, const Provenance* meta = nullptr) const;

 private:
  // Guards map shape (get-or-create and iteration), not metric values.
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace simsweep::obs
