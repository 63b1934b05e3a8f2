// Discrete-event simulation driver.
//
// The Simulator owns virtual time and the pending-event set.  Model code
// schedules callbacks at absolute or relative times; run() processes events
// in deterministic (time, insertion) order until the queue drains, a time
// horizon is reached, or a model calls stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/auditor.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/sim_time.hpp"

namespace simsweep::sim {

/// Thrown by run_until() when the configured event budget is exhausted.
/// A runaway simulation (livelocked model, pathological retry loop) fails
/// fast with a diagnosable error instead of spinning forever.
class EventBudgetExceeded : public std::runtime_error {
 public:
  explicit EventBudgetExceeded(std::uint64_t budget)
      : std::runtime_error("Simulator: event budget exceeded (" +
                           std::to_string(budget) + " events fired)") {}
};

/// Thrown by run_until() when an attached cancellation flag was raised —
/// typically a wall-clock watchdog marking the trial hung.  The event budget
/// bounds *virtual* time; the cancel flag is the cooperative escape hatch for
/// *wall-clock* deadlines, checked once per fired event.
class RunCancelled : public std::runtime_error {
 public:
  RunCancelled()
      : std::runtime_error(
            "Simulator: run cancelled (wall-clock deadline exceeded)") {}
};

/// Event handles hold the address of the simulator's queue, so a handle may
/// be cancelled or queried only while its simulator lives, and a simulator
/// is neither copyable nor movable.  Models that cancel in their destructor
/// (FairShare) must be destroyed before the simulator they were built on.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events fired so far.
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

  /// Number of events scheduled so far (fired, cancelled or pending).
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return queue_.scheduled_total();
  }

  /// Attaches (or detaches, with nullptr) the invariant auditor.  The
  /// simulator audits its own clock and event bookkeeping, and every model
  /// holding a Simulator reference reaches the auditor through here, so
  /// per-run wiring is a single call.  Checks only read state — an audited
  /// run is bitwise identical to an unaudited one.
  void set_auditor(audit::InvariantAuditor* auditor) noexcept {
    auditor_ = auditor;
  }

  [[nodiscard]] audit::InvariantAuditor* auditor() const noexcept {
    return auditor_;
  }

  /// Attaches (or detaches, with nullptr) the metrics registry.  Follows the
  /// auditor pattern: models reach the per-run registry through the
  /// simulator, every site null-checks, and recording only reads simulation
  /// state — an instrumented run is bitwise identical to a plain one.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }

  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

  // Queue-depth statistics, accumulated per popped event while a registry
  // is attached.  Kept as plain members (no registry lookup, no lock) so
  // the per-event cost is a handful of arithmetic ops; the experiment layer
  // flushes them into gauges at end of run.
  [[nodiscard]] std::uint64_t queue_depth_samples() const noexcept {
    return depth_samples_;
  }
  [[nodiscard]] double queue_depth_mean() const noexcept {
    return depth_samples_ == 0
               ? 0.0
               : depth_sum_ / static_cast<double>(depth_samples_);
  }
  [[nodiscard]] std::size_t queue_depth_max() const noexcept {
    return depth_max_;
  }

  /// Attaches (or detaches, with nullptr) the timeline tracer.
  void set_timeline(obs::TimelineTracer* timeline) noexcept {
    timeline_ = timeline;
  }

  [[nodiscard]] obs::TimelineTracer* timeline() const noexcept {
    return timeline_;
  }

  /// Schedules `cb` at absolute time `at` (must not be in the past).  The
  /// queue builds the callback in its slot: an rvalue moves in, an lvalue
  /// (a std::function the caller keeps) is copied.
  template <typename F>
  EventHandle at(SimTime at, F&& cb) {
    if (at < now_ - kTimeEpsilon)
      throw std::invalid_argument("Simulator::at: scheduling in the past");
    return queue_.schedule(at < now_ ? now_ : at, std::forward<F>(cb));
  }

  /// Schedules `cb` after `delay` seconds of simulated time; `cb` is taken
  /// as by at().
  template <typename F>
  EventHandle after(SimDuration delay, F&& cb) {
    if (delay < 0.0)
      throw std::invalid_argument("Simulator::after: negative delay");
    return queue_.schedule(now_ + delay, std::forward<F>(cb));
  }

  /// Runs until the event queue drains or stop() is called.
  void run() { run_until(kTimeInfinity); }

  /// Caps the total number of events this simulator may fire; run_until()
  /// throws EventBudgetExceeded once the cap is hit.  0 (the default)
  /// disables the guard.
  void set_event_budget(std::uint64_t budget) noexcept { budget_ = budget; }

  /// Attaches (or detaches, with nullptr) a cooperative cancellation flag.
  /// run_until() throws RunCancelled before firing the next event once the
  /// flag reads true.  The flag is owned by the caller (a watchdog) and only
  /// ever flips false -> true, so a relaxed load per event is enough; an
  /// attached-but-never-raised flag leaves the run bitwise identical.
  void set_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
  }

  /// Runs until `horizon` (events at exactly the horizon still fire).
  /// Advances now() to the horizon when it is finite and the queue drained
  /// earlier, so time-based observers see a consistent clock.
  void run_until(SimTime horizon) {
    stopped_ = false;
    while (!stopped_) {
      // The one purge per fired event: peek() drops cancelled entries from
      // the top, and pop() takes the live front it found.  A NaN time stops
      // the run like a time past the horizon.
      const std::optional<SimTime> next = queue_.peek();
      if (!next.has_value() || !(*next <= horizon)) break;
      if (budget_ != 0 && fired_ >= budget_) throw EventBudgetExceeded(budget_);
      if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed))
        throw RunCancelled();
      auto [t, cb] = queue_.pop();
      if (auditor_ != nullptr && auditor_->enabled()) audit_pop(t);
      // size_bound() is an upper bound (buried cancelled entries count,
      // the root pop() left vacant does not), which is exactly the
      // memory-pressure quantity worth watching.
      if (metrics_ != nullptr) {
        const std::size_t depth = queue_.size_bound();
        depth_sum_ += static_cast<double>(depth);
        ++depth_samples_;
        if (depth > depth_max_) depth_max_ = depth;
      }
      now_ = t;
      ++fired_;
      cb();
    }
    if (!stopped_ && horizon != kTimeInfinity && now_ < horizon) now_ = horizon;
  }

  /// Requests that the run loop exit after the current event returns.
  void stop() noexcept { stopped_ = true; }

  /// True when stop() ended the previous run.
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Live-event check (lazily purges cancelled entries).
  [[nodiscard]] bool idle() { return queue_.empty(); }

 private:
  /// Clock/bookkeeping invariants, checked per popped event while auditing:
  /// virtual time never runs backwards, we never fire more events than were
  /// scheduled, and the budget guard above actually bounded the count.
  void audit_pop(SimTime t) {
    if (t < now_ - kTimeEpsilon)
      auditor_->report("simcore", "virtual_time_monotonic", now_,
                       "event at t=" + std::to_string(t) +
                           " fired behind now=" + std::to_string(now_));
    if (fired_ >= queue_.scheduled_total())
      auditor_->report("simcore", "fired_within_scheduled", now_,
                       std::to_string(fired_) + " events fired but only " +
                           std::to_string(queue_.scheduled_total()) +
                           " ever scheduled");
    if (budget_ != 0 && fired_ >= budget_)
      auditor_->report("simcore", "event_budget_respected", now_,
                       "fired " + std::to_string(fired_) +
                           " events past budget " + std::to_string(budget_));
  }

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t fired_ = 0;
  std::uint64_t budget_ = 0;  // 0 = unlimited
  bool stopped_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  audit::InvariantAuditor* auditor_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TimelineTracer* timeline_ = nullptr;
  // Queue-depth accumulators (active only while metrics_ is attached).
  std::uint64_t depth_samples_ = 0;
  double depth_sum_ = 0.0;
  std::size_t depth_max_ = 0;
};

}  // namespace simsweep::sim
