// Pending-event set for the discrete-event engine.
//
// A binary heap ordered by (time, sequence number): ties in simulated time
// are broken by insertion order, which makes event processing fully
// deterministic.  Cancellation is lazy — a cancelled entry stays in the heap
// until it bubbles to the top — keeping push/pop at O(log n) with no
// auxiliary index structure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace simsweep::sim {

/// Handle to a scheduled event; lets the scheduler cancel it later.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Safe to call repeatedly and
  /// on default-constructed handles.
  void cancel() {
    if (auto p = flag_.lock()) *p = true;
  }

  /// True when this handle refers to an event that is still pending
  /// (scheduled, not yet fired, not cancelled).
  [[nodiscard]] bool pending() const {
    auto p = flag_.lock();
    return p != nullptr && !*p;
  }

 private:
  friend class EventQueue;
  explicit EventHandle(std::weak_ptr<bool> flag) : flag_(std::move(flag)) {}
  std::weak_ptr<bool> flag_;
};

/// Min-heap of (time, seq, callback) with lazy cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute simulated time `at`.
  EventHandle schedule(SimTime at, Callback cb) {
    auto cancelled = std::make_shared<bool>(false);
    heap_.push_back(Entry{at, next_seq_++, std::move(cb), cancelled});
    std::push_heap(heap_.begin(), heap_.end(), FiresAfter{});
    return EventHandle(cancelled);
  }

  /// True when no live (non-cancelled) event remains.  Lazily purges
  /// cancelled entries from the top of the heap.
  [[nodiscard]] bool empty() {
    drop_cancelled();
    return heap_.empty();
  }

  /// Upper bound on the number of live events (cancelled entries buried in
  /// the heap are still counted until they surface).  Diagnostic only.
  [[nodiscard]] std::size_t size_bound() const { return heap_.size(); }

  /// Total events ever scheduled (fired, cancelled or pending).  The
  /// auditor checks fired-event counts against this bound.
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return next_seq_;
  }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() {
    drop_cancelled();
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }

  /// Removes and returns the earliest live event, moving its callback out.
  /// Precondition: !empty().
  [[nodiscard]] std::pair<SimTime, Callback> pop() {
    drop_cancelled();
    std::pop_heap(heap_.begin(), heap_.end(), FiresAfter{});
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    *top.cancelled = true;  // fired events report pending() == false
    return {top.time, std::move(top.callback)};
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback callback;
    std::shared_ptr<bool> cancelled;
  };

  /// The heap comparator: `a` fires after `b`, so heap_.front() is next.
  /// A function object, not a function pointer, so the heap algorithms
  /// inline it.
  struct FiresAfter {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() && *heap_.front().cancelled) {
      std::pop_heap(heap_.begin(), heap_.end(), FiresAfter{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace simsweep::sim
