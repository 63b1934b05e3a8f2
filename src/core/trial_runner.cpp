#include "core/trial_runner.hpp"

#include <exception>

#include "core/parse.hpp"

namespace simsweep::core {

namespace {

/// Cancellation flag of the guarded item running on this thread.  Saved and
/// restored around each body so nested parallel_for calls (a bench cell
/// fanning out trials) see their own innermost guarded scope.
thread_local const std::atomic<bool>* t_cancel_flag = nullptr;

}  // namespace

const std::atomic<bool>* TrialRunner::current_cancel_flag() noexcept {
  return t_cancel_flag;
}

TrialRunner::TrialRunner(std::size_t parallelism) {
  if (parallelism == 0) parallelism = default_parallelism();
  workers_.reserve(parallelism - 1);
  for (std::size_t i = 0; i + 1 < parallelism; ++i)
    workers_.emplace_back([this, id = i + 1] { worker_loop(id); });
}

TrialRunner::~TrialRunner() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t TrialRunner::default_parallelism() {
  if (const char* env = env_value("SIMSWEEP_JOBS")) {
    const std::uint64_t v = parse_count(env, "SIMSWEEP_JOBS");
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

TrialRunner& TrialRunner::shared() {
  static TrialRunner runner;
  return runner;
}

void TrialRunner::run_one(Batch& batch, std::size_t i,
                          std::size_t worker_id) {
  obs::TrialProfiler* profiler = profiler_.load(std::memory_order_relaxed);
  const double begin_s = profiler != nullptr ? profiler->now() : 0.0;
  TrialGuard* guard = guard_.load(std::memory_order_relaxed);
  const std::atomic<bool>* outer_flag = t_cancel_flag;
  if (guard != nullptr) t_cancel_flag = guard->trial_begin(i);
  std::exception_ptr error;
  try {
    (*batch.body)(i);
  } catch (...) {
    error = std::current_exception();
  }
  if (guard != nullptr) {
    guard->trial_end(i);
    t_cancel_flag = outer_flag;
  }
  if (profiler != nullptr)
    profiler->record(i, worker_id, batch.submitted_s, begin_s,
                     profiler->now());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error && !batch.error) {
      batch.error = error;
      // Cancel every index not yet claimed: the batch fails anyway, so
      // finishing the remaining work would only delay the rethrow.
      batch.next = batch.count;
    }
    ++batch.done;
  }
  done_cv_.notify_all();
}

void TrialRunner::worker_loop(std::size_t worker_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Batch* batch = queue_.front();
    if (batch->next >= batch->count) {
      // Fully claimed; the owning caller removes it once done.
      queue_.pop_front();
      continue;
    }
    const std::size_t i = batch->next++;
    ++batch->started;
    lock.unlock();
    run_one(*batch, i, worker_id);
    lock.lock();
  }
}

void TrialRunner::parallel_for(std::size_t count,
                               const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  Batch batch;
  batch.body = &body;
  batch.count = count;
  if (obs::TrialProfiler* profiler =
          profiler_.load(std::memory_order_relaxed);
      profiler != nullptr)
    batch.submitted_s = profiler->now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(&batch);
  }
  work_cv_.notify_all();

  // The caller claims indices alongside the workers, so progress never
  // depends on a worker being free (nested calls, parallelism == 1).
  std::unique_lock<std::mutex> lock(mutex_);
  while (batch.next < batch.count) {
    const std::size_t i = batch.next++;
    ++batch.started;
    lock.unlock();
    run_one(batch, i, /*worker_id=*/0);
    lock.lock();
  }
  // Cancellation moves `next` to `count` without claiming, so wait on the
  // calls actually started, not the full range.
  done_cv_.wait(lock, [&batch] { return batch.done == batch.started; });
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == &batch) {
      queue_.erase(it);
      break;
    }
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace simsweep::core
