// Constant, trace-replay and composite load models.
//
// The paper lists trace replay as future work; we provide it so users can
// feed NWS-style measurements.  CompositeModel aggregates several ON/OFF
// sources per host, the paper's suggested route to "more complex loads".
#pragma once

#include <vector>

#include "load/load_model.hpp"
#include "load/onoff.hpp"
#include "simcore/step_series.hpp"

namespace simsweep::load {

/// Fixed competing-process count, forever.  Useful in tests and as the
/// quiescent baseline.
class ConstantModel final : public LoadModel {
 public:
  explicit ConstantModel(int competitors);
  [[nodiscard]] std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  int competitors_;
};

/// Replays a recorded (time, competing-process-count) step series.  All
/// hosts attached to the same model replay the same trace offset by a
/// per-source random phase when `random_phase` is set (so hosts are not in
/// lockstep), wrapping around at the trace's end.
class TraceModel final : public LoadModel {
 public:
  /// `trace` must be time-sorted, non-empty and start at time >= 0; values
  /// are competitor counts in effect from each sample's time until the next.
  /// `period_s` is the wrap-around length and must cover the last sample.
  TraceModel(std::vector<sim::Sample> trace, double period_s,
             bool random_phase = true);

  [[nodiscard]] std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const override;

  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const std::vector<sim::Sample>& trace() const noexcept {
    return trace_;
  }

 private:
  std::vector<sim::Sample> trace_;
  double period_;
  bool random_phase_;
};

/// Sum of several independent ON/OFF sources per host; the external load is
/// the number of sources currently ON.
class CompositeOnOffModel final : public LoadModel {
 public:
  explicit CompositeOnOffModel(std::vector<OnOffParams> sources);
  [[nodiscard]] std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<OnOffParams> sources_;
};

}  // namespace simsweep::load
