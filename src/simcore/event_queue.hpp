// Pending-event set for the discrete-event engine.
//
// A binary heap ordered by (time, sequence number): ties in simulated time
// are broken by insertion order, which makes event processing fully
// deterministic.  Cancellation is lazy — a cancelled entry stays in the heap
// until it bubbles to the top — keeping push/pop at O(log n) with no
// auxiliary index structure.  peek() and empty() drop the cancelled entries
// they find at the top; pop() takes the live front one of them found, so a
// run loop purges once per fired event.
//
// The hold path costs one sift per event.  pop() leaves the fired entry's
// root slot vacant instead of moving the last leaf into it.  Nearly every
// fired callback schedules its own successor (the next load flip, completion
// or phase), and the first schedule() after a pop() writes its entry into
// the vacant root and sifts it down once; a later one appends and sifts up.
// peek() and empty() settle a root that nothing refilled (the last leaf
// sifts down from it, as a plain pop would have done) before they look at
// the top, and size_bound() leaves the vacant root out.  (time, seq) is a
// strict total order, so the set of entries, the one at the top whenever
// peek() looks (and so the moment a cancelled callback dies) and
// size_bound() are the same whatever shape the heap takes: the firing order
// and the run loop's depth samples cannot tell a refilled root from a
// settled one.
//
// Callbacks live in a pool of slots recycled through a free list, and the
// heap holds trivially copyable 24-byte (time, seq, slot) entries, so sifting
// moves no std::function.  schedule() builds the callback in its slot from
// the callable it is given, with no temporary std::function: an rvalue moves
// in and an lvalue is copied, and a copy that throws leaves the queue as it
// was.  Each slot carries a 64-bit generation, odd while its event is
// pending: scheduling, firing and cancelling each bump it once.  A handle
// records (queue, slot, generation), so pending() is one comparison, and a
// handle whose event fired or was cancelled never matches again, even after
// its slot is reused.  A cancelled slot returns to the free list when its
// entry surfaces.  Once the heap, the pool and the free list have grown to
// the run's depth, scheduling allocates nothing beyond what a callable too
// large for std::function's inline buffer needs.
//
// Lifetime rule: a handle holds its queue's address, so cancel() and
// pending() may be called only while the queue (its Simulator) lives.
// Copying, overwriting or destroying a handle is always safe.  Queues are
// neither copyable nor movable, so the address stays valid for their life.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace simsweep::sim {

class EventQueue;

/// Handle to a scheduled event; lets the scheduler cancel it later.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Safe to call repeatedly and
  /// on default-constructed handles.
  void cancel();

  /// True when this handle refers to an event that is still pending
  /// (scheduled, not yet fired, not cancelled).
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot,
              std::uint64_t generation) noexcept
      : queue_(queue), generation_(generation), slot_(slot) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t slot_ = 0;
};

/// Min-heap of (time, seq, callback slot) with lazy cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb`, any callable a Callback can be built from, at absolute
  /// simulated time `at`.  If building the callback throws, the exception
  /// propagates and the queue is unchanged.
  template <typename F>
  EventHandle schedule(SimTime at, F&& cb) {
    if (free_.empty()) add_slot();
    const std::uint32_t slot = free_.back();
    Slot& s = slots_[slot];
    s.build(std::forward<F>(cb));  // may throw: the slot stays free
    free_.pop_back();
    ++s.generation;  // odd: pending
    const Entry e{at, next_seq_++, slot};
    if (vacant_) {
      vacant_ = false;
      sift_down(0, e);
    } else {
      heap_.push_back(e);
      sift_up(heap_.size() - 1, e);
    }
    return EventHandle(this, slot, s.generation);
  }

  /// Settles a vacant root, drops cancelled entries from the top of the
  /// heap, then returns the earliest live event's time; nothing when no
  /// live event remains.
  [[nodiscard]] std::optional<SimTime> peek() {
    if (vacant_) {
      vacant_ = false;
      remove_front();
    }
    drop_cancelled();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  /// True when no live (non-cancelled) event remains; purges like peek().
  [[nodiscard]] bool empty() { return !peek().has_value(); }

  /// Upper bound on the number of live events (cancelled entries buried in
  /// the heap are still counted until they surface; a vacant root is not).
  /// Diagnostic only.
  [[nodiscard]] std::size_t size_bound() const {
    return heap_.size() - static_cast<std::size_t>(vacant_);
  }

  /// Total events ever scheduled (fired, cancelled or pending).  The
  /// auditor checks fired-event counts against this bound.
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return next_seq_;
  }

  /// Removes and returns the earliest live event, moving its callback out,
  /// and leaves its root slot vacant for the next schedule().
  /// Precondition: the front is live.  peek() found it (or empty() returned
  /// false), or a schedule() since the last pop() refilled the root, and
  /// nothing was cancelled since.
  [[nodiscard]] std::pair<SimTime, Callback> pop() {
    const Entry top = heap_.front();
    vacant_ = true;
    Slot& s = slots_[top.slot];
    ++s.generation;  // even: fired events report pending() == false
    free_.push_back(top.slot);
    return {top.time, std::exchange(s.callback, nullptr)};
  }

 private:
  friend class EventHandle;

  struct Slot {
    Callback callback;  // empty while the slot is free
    std::uint64_t generation = 0;  // odd while the slot's event is pending

    /// Builds the callback in place from `f`; if that throws, the callback
    /// stays empty.
    template <typename F>
    void build(F&& f) {
      std::destroy_at(&callback);
      try {
        std::construct_at(&callback, std::forward<F>(f));
      } catch (...) {
        std::construct_at(&callback);
        throw;
      }
    }
  };

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) <= 24);

  /// The heap order: `a` fires before `b`.  Branch-free, so picking the
  /// earlier of two children costs no mispredicted jump.
  static bool fires_before(const Entry& a, const Entry& b) noexcept {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  /// Moves `e` from heap_[hole] up to its place.
  void sift_up(std::size_t hole, const Entry e) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!fires_before(e, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }

  /// Moves `e` from heap_[hole] down to its place.
  void sift_down(std::size_t hole, const Entry e) {
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n)
        child += static_cast<std::size_t>(
            fires_before(heap_[child + 1], heap_[child]));
      if (!fires_before(heap_[child], e)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = e;
  }

  /// Removes heap_.front(): the last entry sifts down from the root.
  void remove_front() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  [[nodiscard]] bool slot_pending(std::uint32_t slot) const noexcept {
    return (slots_[slot].generation & 1U) != 0;
  }

  /// Puts a new slot on the free list.
  void add_slot() {
    if (slots_.size() > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("EventQueue: too many pending events");
    slots_.emplace_back();
    free_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }

  void drop_cancelled() {
    while (!heap_.empty() && !slot_pending(heap_.front().slot)) {
      const std::uint32_t slot = heap_.front().slot;
      remove_front();
      // The callback dies after its slot is free, so a destructor that
      // schedules finds the queue consistent.
      free_.push_back(slot);
      const Callback dropped = std::exchange(slots_[slot].callback, nullptr);
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // slots no live heap entry refers to
  std::uint64_t next_seq_ = 0;
  bool vacant_ = false;  // heap_.front() fired; a schedule() or peek() fills it
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr &&
         queue_->slots_[slot_].generation == generation_;
}

inline void EventHandle::cancel() {
  if (pending()) ++queue_->slots_[slot_].generation;  // even: cancelled
}

}  // namespace simsweep::sim
