// Fixed-size worker pool for fanning out independent simulation trials.
//
// Every trial of an experiment is a self-contained simulation with its own
// derived seed, so trials (and whole sweep points) can execute on any
// thread in any order.  TrialRunner provides the one primitive the
// experiment layer needs: run `body(i)` for every index of a range across
// a fixed set of workers.  Determinism is the caller's job and is easy:
// write results into slot `i` of a preallocated vector and reduce in index
// order afterwards — see core::run_trials_results.
//
// The calling thread participates in its own batch, so a TrialRunner with
// parallelism 1 spawns no threads at all, and nested parallel_for calls
// (a bench dispatching sweep points whose bodies fan out trials) cannot
// deadlock: every caller always has work it can execute itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"

namespace simsweep::core {

/// Observes every work item a TrialRunner executes, from the executing
/// thread itself.  The resilience layer's wall-clock watchdog implements
/// this: trial_begin registers the item and hands back a cancellation flag,
/// trial_end retires it.  Implementations must tolerate concurrent calls for
/// distinct indices (one per worker) and begin/end pairs for the same index
/// across retries.
class TrialGuard {
 public:
  virtual ~TrialGuard() = default;

  /// Called right before body(index) on the thread about to run it.  The
  /// returned flag (null = not cancellable) is published to the body via
  /// TrialRunner::current_cancel_flag() and must stay valid until the
  /// matching trial_end.
  virtual const std::atomic<bool>* trial_begin(std::size_t index) = 0;

  /// Called after body(index) returned or threw, on the same thread.
  virtual void trial_end(std::size_t index) noexcept = 0;
};

class TrialRunner {
 public:
  /// A runner with `parallelism` concurrent executors (the calling thread
  /// counts as one, so `parallelism - 1` worker threads are spawned).
  /// Zero selects default_parallelism().
  explicit TrialRunner(std::size_t parallelism = 0);
  ~TrialRunner();

  TrialRunner(const TrialRunner&) = delete;
  TrialRunner& operator=(const TrialRunner&) = delete;

  /// Total concurrent executors, including the caller.  Always >= 1.
  [[nodiscard]] std::size_t parallelism() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs `body(i)` once for every i in [0, count), distributed over the
  /// workers and the calling thread.  Returns when all calls completed.
  /// The first exception thrown by any call cancels every index not yet
  /// claimed, waits for in-flight calls to drain, and is rethrown here on
  /// the calling thread.  Safe to call from inside a body running on this
  /// runner (nested batches share the worker set).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// SIMSWEEP_JOBS when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  [[nodiscard]] static std::size_t default_parallelism();

  /// Process-wide runner sized by default_parallelism() on first use.
  [[nodiscard]] static TrialRunner& shared();

  /// Attaches a wall-clock profiler: every parallel_for call records one
  /// TrialProfiler entry per index (submit time, execution window, worker
  /// id).  The calling thread is worker 0; spawned workers are 1..N-1.
  /// Null (the default) disables recording; the hot path is one relaxed
  /// atomic load.  The profiler must outlive its attachment.
  void set_profiler(obs::TrialProfiler* profiler) noexcept {
    profiler_.store(profiler, std::memory_order_relaxed);
  }

  /// Attaches a trial guard (see TrialGuard): every body invocation is
  /// bracketed by trial_begin/trial_end on the executing thread, and the
  /// flag returned by trial_begin is exposed through current_cancel_flag()
  /// for the duration of the call.  Null (the default) disables the hook;
  /// like the profiler, the hot path is one relaxed atomic load.  The guard
  /// must outlive its attachment.
  void set_trial_guard(TrialGuard* guard) noexcept {
    guard_.store(guard, std::memory_order_relaxed);
  }

  /// Cancellation flag of the guarded work item currently executing on this
  /// thread, or null outside one (or when no guard is attached).  Trial
  /// bodies hand it to sim::Simulator::set_cancel_flag so a wall-clock
  /// watchdog can interrupt the event loop cooperatively.
  [[nodiscard]] static const std::atomic<bool>* current_cancel_flag() noexcept;

 private:
  /// One parallel_for call: a range of indices claimed one at a time under
  /// the pool mutex.  Lives on the caller's stack for the duration of the
  /// call; the queue only ever holds batches whose callers are blocked in
  /// parallel_for.
  struct Batch {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;     ///< next unclaimed index
    std::size_t started = 0;  ///< claimed calls (never un-claimed)
    std::size_t done = 0;     ///< completed calls
    double submitted_s = 0.0;  ///< profiler timestamp at parallel_for entry
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker_id);
  /// Executes index `i` of `batch` on `worker_id` and updates completion
  /// state.
  void run_one(Batch& batch, std::size_t i, std::size_t worker_id);

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< queue non-empty or stopping
  std::condition_variable done_cv_;  ///< some batch finished a call
  std::deque<Batch*> queue_;
  std::vector<std::thread> workers_;
  std::atomic<obs::TrialProfiler*> profiler_{nullptr};
  std::atomic<TrialGuard*> guard_{nullptr};
  bool stop_ = false;
};

}  // namespace simsweep::core
