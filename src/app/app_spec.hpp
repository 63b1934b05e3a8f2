// Description of the simulated iterative application.
//
// The paper targets data-parallel iterative applications executed in BSP
// style: every iteration, each active process computes its chunk of the
// work, then all processes exchange data over the shared link; the next
// iteration starts when the slowest process has finished both phases.
// Characteristic ranges simulated in the paper (§6):
//   * per-process compute time per iteration, unloaded: 1–5 minutes,
//   * per-process communication per iteration: 1 KB – 1 GB,
//   * per-process state moved by a swap or checkpoint: 1 KB – 1 GB.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace simsweep::app {

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

struct AppSpec {
  /// N: processors the application actually computes on.
  std::size_t active_processes = 4;

  /// Iterations to run ("until convergence" is approximated by a fixed
  /// count; policies never rely on knowing it — that is the point of the
  /// payback metric).
  std::size_t iterations = 100;

  /// Total flops per iteration, divided among active processes according to
  /// the work partition (equal chunks except under DLB).
  double work_per_iteration_flops = 0.0;

  /// Bytes each process sends during the communication phase per iteration.
  double comm_bytes_per_process = 100.0 * kKiB;

  /// Bytes of process state transferred by one swap / written by one
  /// checkpoint, per process.
  double state_bytes_per_process = kMiB;

  /// Convenience: sizes the total work so one iteration takes
  /// `minutes` on `active` unloaded reference processors of `ref_speed`.
  [[nodiscard]] static AppSpec with_iteration_minutes(
      std::size_t active, std::size_t iterations, double minutes,
      double ref_speed_flops = 300.0e6) {
    AppSpec spec;
    spec.active_processes = active;
    spec.iterations = iterations;
    spec.work_per_iteration_flops =
        minutes * 60.0 * ref_speed_flops * static_cast<double>(active);
    return spec;
  }

  void validate() const {
    if (active_processes == 0)
      throw std::invalid_argument("AppSpec: no active processes");
    if (iterations == 0) throw std::invalid_argument("AppSpec: no iterations");
    if (!std::isfinite(work_per_iteration_flops) ||
        work_per_iteration_flops <= 0.0)
      throw std::invalid_argument("AppSpec: work must be finite and positive");
    for (const double bytes : {comm_bytes_per_process, state_bytes_per_process})
      if (!std::isfinite(bytes) || bytes < 0.0)
        throw std::invalid_argument(
            "AppSpec: byte counts must be finite and non-negative");
  }

  /// Equal-chunk flops per process per iteration.
  [[nodiscard]] double equal_chunk() const {
    return work_per_iteration_flops / static_cast<double>(active_processes);
  }
};

/// Fraction of the per-iteration work assigned to each active slot.
/// Fractions sum to 1.  Slot k keeps its fraction when its process is
/// swapped to another host (the paper forbids data redistribution).
class WorkPartition {
 public:
  /// Equal chunks across `n` slots.
  static WorkPartition equal(std::size_t n);

  /// Chunks proportional to the given weights (e.g. effective speeds).
  static WorkPartition proportional(const std::vector<double>& weights);

  [[nodiscard]] std::size_t slots() const noexcept { return fractions_.size(); }
  [[nodiscard]] double fraction(std::size_t slot) const {
    return fractions_.at(slot);
  }
  [[nodiscard]] const std::vector<double>& fractions() const noexcept {
    return fractions_;
  }

 private:
  explicit WorkPartition(std::vector<double> fractions)
      : fractions_(std::move(fractions)) {}
  std::vector<double> fractions_;
};

}  // namespace simsweep::app
