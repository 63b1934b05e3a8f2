// Piecewise-constant (step) time series.
//
// Models record (time, value) samples — a host's competing-process count,
// a replayed load trace — and estimators integrate them over windows.
#pragma once

#include <vector>

#include "simcore/sim_time.hpp"

namespace simsweep::sim {

/// One sampled point of a series.
struct Sample {
  SimTime time;
  double value;
  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Integrates a piecewise-constant (step) series between t0 and t1.  The
/// value of the series at time t is the value of the latest sample at or
/// before t; before the first sample the series is `initial`.
[[nodiscard]] double integrate_step_series(const std::vector<Sample>& samples,
                                           SimTime t0, SimTime t1,
                                           double initial = 0.0);

/// Mean value of a step series over [t0, t1].
[[nodiscard]] double mean_step_series(const std::vector<Sample>& samples,
                                      SimTime t0, SimTime t1,
                                      double initial = 0.0);

}  // namespace simsweep::sim
