// Piecewise-constant (step) time series.
//
// Models record (time, value) samples — a host's competing-process count,
// a replayed load trace, a rank's measured speed — and estimators average
// them over windows.  integrate_step_series is the one walk over such a
// series; each caller keeps its own edge cases and denominator.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace simsweep::sim {

/// One sampled point of a series.
struct Sample {
  SimTime time;
  double value;
  friend bool operator==(const Sample&, const Sample&) = default;
};

namespace detail {
/// The first sample after `t` in a time-ordered range, and the value in
/// effect at `t`: its predecessor's, or `initial` before the first sample.
template <typename It>
[[nodiscard]] std::pair<It, double> locate(It first, It last, SimTime t,
                                           double initial) {
  const It next = std::upper_bound(
      first, last, t, [](SimTime x, const Sample& s) { return x < s.time; });
  return {next, next == first ? initial : std::prev(next)->value};
}
}  // namespace detail

/// Integrates f(value) of the step series [first, last) between t0 and t1.
/// The series must be time-ordered; its value at t is the latest sample's
/// at or before t, and `initial` before the first sample.  A binary search
/// finds the sample in effect at t0, so the walk visits only the samples
/// inside (t0, t1).
template <typename It, typename Transform = std::identity>
[[nodiscard]] double integrate_step_series(It first, It last, SimTime t0,
                                           SimTime t1, double initial = 0.0,
                                           Transform f = {}) {
  if (t1 < t0) throw std::invalid_argument("integrate_step_series: t1 < t0");
  auto [next, value] = detail::locate(first, last, t0, initial);
  double area = 0.0;
  SimTime cursor = t0;
  for (; next != last && next->time < t1; ++next) {
    area += f(value) * (next->time - cursor);
    cursor = next->time;
    value = next->value;
  }
  return area + f(value) * (t1 - cursor);
}

/// Mean value of a step series over [t0, t1]; the value in effect at t0
/// when the window has no width.
[[nodiscard]] double mean_step_series(const std::vector<Sample>& samples,
                                      SimTime t0, SimTime t1,
                                      double initial = 0.0);

}  // namespace simsweep::sim
