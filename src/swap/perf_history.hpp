// Sliding-window performance history (paper §4.1, last bullet).
//
// A PerfHistory accumulates (time, value) performance samples for one
// subject (a host's availability, a process's flop rate, ...) and reports
// the time-weighted mean over the most recent `window` seconds.  A window
// of zero returns the latest sample — the "no history" setting of the
// greedy policy.  Samples older than the largest window ever queried are
// pruned to bound memory on long runs.
#pragma once

#include <deque>

#include "audit/auditor.hpp"
#include "simcore/step_series.hpp"

namespace simsweep::swap {

class PerfHistory {
 public:
  /// Records that the measured performance became `value` at time `t`.
  /// Times must be non-decreasing; a timestamp within kTimeEpsilon *before*
  /// the tail (clock jitter between subsystems) is clamped to the tail time
  /// so the stored series is genuinely ordered — windowed_mean must never
  /// integrate a negative interval and prune_before must never strand the
  /// wrong sample.
  void record(sim::SimTime t, double value);

  /// Time-weighted mean over [now - window, now]; the latest sample when
  /// window == 0 or when no sample predates the window.  Returns
  /// `fallback` when nothing has been recorded yet.
  [[nodiscard]] double windowed_mean(sim::SimTime now, double window_s,
                                     double fallback = 0.0) const;

  /// Latest recorded value, or `fallback` when empty.
  [[nodiscard]] double latest(double fallback = 0.0) const;

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  /// Drops samples that ended before `horizon` (keeps the one in effect at
  /// the horizon, since step semantics need the preceding value).
  void prune_before(sim::SimTime horizon);

  /// Attaches (or detaches, with nullptr) the invariant auditor: record()
  /// checks sample ordering and windowed_mean() checks that its interval
  /// walk is non-negative and covers exactly the queried window.
  void attach_auditor(audit::InvariantAuditor* auditor) noexcept {
    auditor_ = auditor;
  }

 private:
  std::deque<sim::Sample> samples_;
  audit::InvariantAuditor* auditor_ = nullptr;
};

}  // namespace simsweep::swap
