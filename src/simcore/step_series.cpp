#include "simcore/step_series.hpp"

namespace simsweep::sim {

double mean_step_series(const std::vector<Sample>& samples, SimTime t0,
                        SimTime t1, double initial) {
  if (time_close(t0, t1))
    return detail::locate(samples.begin(), samples.end(), t0, initial).second;
  return integrate_step_series(samples.begin(), samples.end(), t0, t1,
                               initial) /
         (t1 - t0);
}

}  // namespace simsweep::sim
