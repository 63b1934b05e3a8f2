// Owner reclamation: the desktop-grid behaviour the paper proposes to
// combine with process swapping (§2, the Condor/XtremWeb discussion).
//
// A workstation alternates between *available* (the owner is away; the
// application may use it, subject to whatever competing load the wrapped
// base model generates) and *reclaimed* (the owner is at the console; the
// guest application gets no cycles at all).  Durations of both phases are
// exponential.  We model graceful reclamation: the guest process is
// suspended, its memory stays reachable, so the swap runtime can still
// transfer its state away — exactly the eviction-plus-migration combination
// the paper sketches.
#pragma once

#include "load/load_model.hpp"

namespace simsweep::load {

struct ReclamationParams {
  double mean_available_s = 7200.0;  ///< mean owner-away stretch
  double mean_reclaimed_s = 600.0;   ///< mean owner-at-console stretch
  bool start_available = true;
};

class ReclamationModel final : public LoadModel {
 public:
  /// `base` (optional) drives the competing-process count while the host is
  /// available; reclamation toggles the host's online flag independently.
  ReclamationModel(std::shared_ptr<const LoadModel> base,
                   ReclamationParams params);

  [[nodiscard]] std::unique_ptr<LoadSource> make_source(
      std::uint64_t seed) const override;

  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const ReclamationParams& params() const noexcept {
    return params_;
  }

  /// Long-run fraction of time the host is available.
  [[nodiscard]] double availability_fraction() const noexcept {
    return params_.mean_available_s /
           (params_.mean_available_s + params_.mean_reclaimed_s);
  }

 private:
  std::shared_ptr<const LoadModel> base_;
  ReclamationParams params_;
};

}  // namespace simsweep::load
