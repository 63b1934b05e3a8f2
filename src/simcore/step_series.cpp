#include "simcore/step_series.hpp"

#include <stdexcept>

namespace simsweep::sim {

double integrate_step_series(const std::vector<Sample>& samples, SimTime t0,
                             SimTime t1, double initial) {
  if (t1 < t0) throw std::invalid_argument("integrate_step_series: t1 < t0");
  double value = initial;
  double area = 0.0;
  SimTime cursor = t0;
  for (const Sample& s : samples) {
    if (s.time <= t0) {
      value = s.value;
      continue;
    }
    if (s.time >= t1) break;
    area += value * (s.time - cursor);
    cursor = s.time;
    value = s.value;
  }
  area += value * (t1 - cursor);
  return area;
}

double mean_step_series(const std::vector<Sample>& samples, SimTime t0,
                        SimTime t1, double initial) {
  if (time_close(t0, t1)) {
    // Point query: value in effect at t0.
    double value = initial;
    for (const Sample& s : samples) {
      if (s.time > t0) break;
      value = s.value;
    }
    return value;
  }
  return integrate_step_series(samples, t0, t1, initial) / (t1 - t0);
}

}  // namespace simsweep::sim
