// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/auditor.hpp"
#include "obs/metrics.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/fair_share.hpp"
#include "simcore/rng.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"
#include "simcore/step_series.hpp"

namespace sim = simsweep::sim;
namespace audit = simsweep::audit;

TEST(EventQueue, FiresInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  (void)q.schedule(3.0, [&] { order.push_back(3); });
  (void)q.schedule(1.0, [&] { order.push_back(1); });
  (void)q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    (void)q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  sim::EventQueue q;
  bool fired = false;
  sim::EventHandle h = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEntriesBuriedInHeapStillDrain) {
  sim::EventQueue q;
  sim::EventHandle early = q.schedule(1.0, [] {});
  (void)q.schedule(2.0, [] {});
  early.cancel();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.peek(), 2.0);
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DefaultHandleIsInert) {
  sim::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(EventQueue, PopDoesNotCopyTheCallback) {
  // Counts copies of the callable; moves are free.
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* counter) : copies(counter) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies) {
      ++*copies;
    }
    CopyCounter(CopyCounter&&) noexcept = default;
    void operator()() const {}
  };
  int copies = 0;
  sim::EventQueue q;
  for (int i = 0; i < 8; ++i)
    (void)q.schedule(static_cast<double>(8 - i), CopyCounter(&copies));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(copies, 0);
}

// Handles hold the queue's address, so neither may be copied or moved.
static_assert(!std::is_copy_constructible_v<sim::EventQueue> &&
              !std::is_copy_assignable_v<sim::EventQueue> &&
              !std::is_move_constructible_v<sim::EventQueue> &&
              !std::is_move_assignable_v<sim::EventQueue>);
static_assert(!std::is_copy_constructible_v<sim::Simulator> &&
              !std::is_copy_assignable_v<sim::Simulator> &&
              !std::is_move_constructible_v<sim::Simulator> &&
              !std::is_move_assignable_v<sim::Simulator>);

TEST(EventQueue, StaleHandleLeavesTheEventReusingItsSlotAlone) {
  sim::EventQueue q;
  sim::EventHandle fired = q.schedule(1.0, [] {});
  q.pop().second();
  int second_fired = 0;
  // The only free slot is the one the first event left.
  sim::EventHandle second = q.schedule(2.0, [&] { ++second_fired; });
  EXPECT_FALSE(fired.pending());
  EXPECT_TRUE(second.pending());
  fired.cancel();
  EXPECT_TRUE(second.pending());
  ASSERT_FALSE(q.empty());
  q.pop().second();
  EXPECT_EQ(second_fired, 1);
  // The same holds for a cancelled event's handle once its slot is reused.
  sim::EventHandle cancelled = q.schedule(3.0, [] {});
  cancelled.cancel();
  EXPECT_TRUE(q.empty());  // the cancelled entry surfaces and frees its slot
  sim::EventHandle third = q.schedule(4.0, [] {});
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(third.pending());
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, HandleIsNotPendingInsideItsOwnCallback) {
  // FairShare::rerate's pattern: the completion event's callback cancels
  // the resource's handle (its own) and schedules the next completion.  In
  // either order, the event scheduled from the callback stays scheduled.
  for (const bool cancel_first : {true, false}) {
    SCOPED_TRACE(cancel_first ? "cancel, then schedule"
                              : "schedule, then cancel");
    sim::Simulator s;
    sim::EventHandle event;
    int completions = 0;
    std::function<void()> complete = [&] {
      ++completions;
      EXPECT_FALSE(event.pending());
      if (completions == 3) return;
      if (cancel_first) {
        event.cancel();
        event = s.after(1.0, complete);
      } else {
        sim::EventHandle next = s.after(1.0, complete);
        event.cancel();
        EXPECT_TRUE(next.pending());
        event = next;
      }
      EXPECT_TRUE(event.pending());
    };
    event = s.after(1.0, complete);
    s.run();
    EXPECT_EQ(completions, 3);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
  }
}

TEST(EventQueue, BuriedCancelledEntryCountsUntilItSurfaces) {
  sim::EventQueue q;
  (void)q.schedule(1.0, [] {});
  sim::EventHandle middle = q.schedule(2.0, [] {});
  (void)q.schedule(3.0, [] {});
  middle.cancel();
  EXPECT_EQ(q.size_bound(), 3u);  // buried under the entry at t=1
  EXPECT_EQ(q.peek(), 1.0);
  EXPECT_EQ(q.size_bound(), 3u);
  EXPECT_DOUBLE_EQ(q.pop().first, 1.0);
  EXPECT_EQ(q.size_bound(), 2u);  // at the top now, but not yet dropped
  EXPECT_EQ(q.peek(), 3.0);
  EXPECT_EQ(q.size_bound(), 1u);
  EXPECT_EQ(q.scheduled_total(), 3u);
}

TEST(EventQueue, MatchesAReferenceUnderRandomScheduleCancelAndPop) {
  // The reference keeps every (time, seq) entry, cancelled or not, and
  // drops cancelled entries from the front exactly where the queue does:
  // in empty() and peek(); pop() follows empty() and drops none.
  using Key = std::pair<double, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    sim::EventQueue q;
    std::set<Key> entries;
    std::vector<bool> cancelled;  // by seq
    std::vector<bool> done;       // fired or cancelled, by seq
    std::vector<sim::EventHandle> handles;  // every handle ever issued
    std::vector<std::uint64_t> fired;
    auto drop = [&] {
      while (!entries.empty() && cancelled[entries.begin()->second])
        entries.erase(entries.begin());
    };
    for (int step = 0; step < 1500; ++step) {
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op < 4) {
        // Quarter-second grid: many equal times.
        const double at = 0.25 * static_cast<double>(rng.uniform_int(0, 40));
        const std::uint64_t seq = handles.size();
        handles.push_back(
            q.schedule(at, [&fired, seq] { fired.push_back(seq); }));
        entries.insert({at, seq});
        cancelled.push_back(false);
        done.push_back(false);
      } else if (op < 7 && !handles.empty()) {
        // Live and stale handles alike.
        const auto seq = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(handles.size()) - 1));
        handles[seq].cancel();
        if (!done[seq]) {
          cancelled[seq] = true;
          done[seq] = true;
        }
      } else if (op < 9) {
        drop();
        ASSERT_EQ(q.empty(), entries.empty());
        if (!entries.empty()) {
          const Key top = *entries.begin();
          entries.erase(entries.begin());
          done[top.second] = true;
          auto [t, cb] = q.pop();
          cb();
          EXPECT_EQ(t, top.first);
          ASSERT_FALSE(fired.empty());
          EXPECT_EQ(fired.back(), top.second);
        }
      } else {
        drop();
        EXPECT_EQ(q.peek(), entries.empty()
                                ? std::nullopt
                                : std::optional(entries.begin()->first));
      }
      ASSERT_EQ(q.size_bound(), entries.size());
      ASSERT_EQ(q.scheduled_total(), handles.size());
      for (std::size_t seq = 0; seq < handles.size(); ++seq)
        ASSERT_EQ(handles[seq].pending(), !done[seq]) << "seq " << seq;
    }
  }
}

TEST(Simulator, AdvancesTimeToEvent) {
  sim::Simulator s;
  double seen = -1.0;
  (void)s.after(5.0, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.events_fired(), 1u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  sim::Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) (void)s.after(1.0, tick);
  };
  (void)s.after(1.0, tick);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilHonorsHorizon) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] { ++fired; });
  (void)s.after(10.0, [&] { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);  // clock advances to the horizon
  s.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonFires) {
  sim::Simulator s;
  bool fired = false;
  (void)s.after(5.0, [&] { fired = true; });
  s.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopEndsRun) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] {
    ++fired;
    s.stop();
  });
  (void)s.after(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
  EXPECT_FALSE(s.idle());
}

TEST(Simulator, RunUntilPurgesOncePerEventAndChecksBeforePopping) {
  // run_until peeks once per event: cancelled entries at the front are
  // dropped unfired, the budget and the cancel flag are checked with the
  // live front still in the queue, and the horizon leaves later events
  // pending.
  sim::Simulator s;
  std::vector<int> fired;
  (void)s.after(0.5, [&] { fired.push_back(0); });
  std::vector<sim::EventHandle> cancelled;
  for (int i = 1; i <= 3; ++i)
    cancelled.push_back(s.after(static_cast<double>(i),
                                [&fired, i] { fired.push_back(-i); }));
  const sim::EventHandle live = s.after(4.0, [&] { fired.push_back(4); });
  const sim::EventHandle later = s.after(9.0, [&] { fired.push_back(9); });
  s.run_until(0.75);
  for (sim::EventHandle& handle : cancelled) handle.cancel();

  s.set_event_budget(1);
  EXPECT_THROW(s.run_until(5.0), sim::EventBudgetExceeded);
  EXPECT_TRUE(live.pending());
  s.set_event_budget(0);
  std::atomic<bool> cancel{true};
  s.set_cancel_flag(&cancel);
  EXPECT_THROW(s.run_until(5.0), sim::RunCancelled);
  EXPECT_TRUE(live.pending());
  EXPECT_EQ(s.events_fired(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{0}));

  cancel = false;
  s.run_until(5.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 4}));
  EXPECT_FALSE(live.pending());
  EXPECT_TRUE(later.pending());
  EXPECT_EQ(s.now(), 5.0);
  EXPECT_EQ(s.events_fired(), 2u);
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 4, 9}));
  EXPECT_EQ(s.events_fired(), 3u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  sim::Simulator s;
  (void)s.after(2.0, [] {});
  s.run();
  EXPECT_THROW((void)s.at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW((void)s.after(-1.0, [] {}), std::invalid_argument);
}

// The hold path: pop() leaves the root vacant, the next schedule() refills
// it, and peek() settles a root nothing refilled.

/// One fired event's steps, drawn from its own stream so a run and its
/// reference draw alike: one to six steps, each one schedules a child (at
/// most two, on a quarter-second grid with many ties), cancels any handle
/// issued so far (fired, cancelled or pending) or calls idle().
template <typename Ops>
void hold_steps(std::uint64_t seed, std::uint64_t seq, Ops& ops) {
  sim::Rng rng(seed, seq);
  int children = 0;
  const std::int64_t steps = rng.uniform_int(1, 6);
  for (std::int64_t step = 0; step < steps; ++step) {
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind <= 5) {
      const double delay = 0.25 * static_cast<double>(rng.uniform_int(0, 8));
      if (children < 2 && ops.issued() < 3000) {
        ++children;
        ops.schedule(delay);
      }
    } else if (kind <= 7) {
      ops.cancel(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ops.issued()) - 1)));
    } else {
      ops.idle();
    }
  }
}

TEST(Simulator, HoldPathMatchesAReferenceUnderNestedScheduleCancelAndIdle) {
  // The reference keeps every (time, seq) entry, cancelled or not, and
  // drops cancelled entries from the front where the simulator does: at
  // run_until's peek and in idle().  Its size right after a pop is the
  // depth sample size_bound() must give, so the depth statistics match
  // bit for bit only if the vacant root is left out.
  using Key = std::pair<double, std::uint64_t>;
  struct Run {
    sim::Simulator& s;
    std::uint64_t seed;
    std::vector<sim::EventHandle> handles;
    std::vector<std::uint64_t> fired;
    [[nodiscard]] std::size_t issued() const { return handles.size(); }
    void schedule(double delay) {
      const std::uint64_t seq = handles.size();
      handles.push_back(s.after(delay, [this, seq] {
        fired.push_back(seq);
        hold_steps(seed, seq, *this);
      }));
    }
    void cancel(std::size_t seq) { handles[seq].cancel(); }
    void idle() { (void)s.idle(); }
  };
  struct Reference {
    std::uint64_t seed = 0;
    double now = 0.0;
    std::set<Key> entries;
    std::vector<bool> cancelled;  // by seq
    std::vector<bool> done;       // fired or cancelled, by seq
    std::vector<std::uint64_t> fired;
    std::uint64_t idles = 0;
    std::uint64_t cancels = 0;
    double depth_sum = 0.0;
    std::size_t depth_max = 0;
    [[nodiscard]] std::size_t issued() const { return cancelled.size(); }
    void schedule(double delay) {
      entries.insert({now + delay, cancelled.size()});
      cancelled.push_back(false);
      done.push_back(false);
    }
    void cancel(std::size_t seq) {
      if (done[seq]) return;
      cancelled[seq] = true;
      done[seq] = true;
      ++cancels;
    }
    void drop() {
      while (!entries.empty() && cancelled[entries.begin()->second])
        entries.erase(entries.begin());
    }
    void idle() {
      ++idles;
      drop();
    }
    void run() {
      for (drop(); !entries.empty(); drop()) {
        const Key top = *entries.begin();
        entries.erase(entries.begin());
        done[top.second] = true;
        now = top.first;
        depth_sum += static_cast<double>(entries.size());
        depth_max = std::max(depth_max, entries.size());
        fired.push_back(top.second);
        hold_steps(seed, top.second, *this);
      }
    }
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    simsweep::obs::MetricsRegistry metrics;
    sim::Simulator s;
    s.set_metrics(&metrics);
    Run run{s, seed, {}, {}};
    Reference reference;
    reference.seed = seed;
    sim::Rng initial(seed);
    for (int i = 0; i < 48; ++i) {
      const double delay = 0.25 * static_cast<double>(initial.uniform_int(0, 16));
      run.schedule(delay);
      reference.schedule(delay);
    }
    s.run();
    reference.run();
    ASSERT_EQ(run.fired, reference.fired);
    EXPECT_EQ(s.events_fired(), reference.fired.size());
    EXPECT_EQ(s.scheduled_total(), reference.issued());
    EXPECT_EQ(s.queue_depth_samples(), reference.fired.size());
    EXPECT_EQ(s.queue_depth_max(), reference.depth_max);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.queue_depth_mean()),
              std::bit_cast<std::uint64_t>(
                  reference.depth_sum /
                  static_cast<double>(reference.fired.size())));
    // The draws reach every path: long runs, live cancels and idle() calls
    // from inside callbacks.
    EXPECT_GT(reference.fired.size(), 1000u);
    EXPECT_GT(reference.cancels, 100u);
    EXPECT_GT(reference.idles, 1000u);
  }
}

TEST(EventQueue, VacantRootRefillSiftsToItsPlace) {
  // After a pop, the next schedule writes into the vacant root: due before
  // the runner-up it stays there; due after every other event it sifts
  // down to a leaf.  Either way the rest fire in (time, seq) order.
  for (const double refill : {1.5, 9.0}) {
    SCOPED_TRACE(testing::Message() << "refill at " << refill);
    sim::EventQueue q;
    std::vector<double> fired;
    for (const double t : {1.0, 6.0, 2.0, 5.0, 3.0, 4.0, 7.0})
      (void)q.schedule(t, [&fired, t] { fired.push_back(t); });
    ASSERT_EQ(q.peek(), 1.0);
    q.pop().second();
    EXPECT_EQ(q.size_bound(), 6u);  // the vacant root does not count
    (void)q.schedule(refill, [&fired, refill] { fired.push_back(refill); });
    EXPECT_EQ(q.size_bound(), 7u);
    // Hold without peek: the refilled root is the front.
    auto [t, cb] = q.pop();
    cb();
    EXPECT_EQ(t, std::min(refill, 2.0));
    while (!q.empty()) q.pop().second();
    std::vector<double> expected{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, refill};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
  }
}

TEST(Simulator, ThrowingCallbackLeavesTheRestToALaterRun) {
  // The throw leaves the popped root vacant (or refilled by what the
  // callback scheduled first); the next run_until settles it and fires the
  // rest in order.
  for (const bool schedules_first : {false, true}) {
    SCOPED_TRACE(schedules_first ? "schedules, then throws" : "throws");
    sim::Simulator s;
    std::vector<int> fired;
    (void)s.after(1.0, [&] {
      fired.push_back(1);
      if (schedules_first) (void)s.at(4.5, [&] { fired.push_back(45); });
      throw std::runtime_error("callback failed");
    });
    for (const int t : {8, 3, 6, 2, 7, 4, 5})
      (void)s.after(static_cast<double>(t), [&fired, t] { fired.push_back(t); });
    EXPECT_THROW(s.run(), std::runtime_error);
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(s.events_fired(), 1u);
    s.run_until(4.75);
    std::vector<int> expected{1, 2, 3, 4};
    if (schedules_first) expected.push_back(45);
    EXPECT_EQ(fired, expected);
    EXPECT_FALSE(s.idle());
    s.run();
    for (const int t : {5, 6, 7, 8}) expected.push_back(t);
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(s.idle());
  }
}

TEST(EventQueue, ThrowingCopyLeavesTheQueueUnchanged) {
  // An lvalue is copied into its slot.  A copy that throws propagates, and
  // the queue keeps its pending set and its count; the slot stays free, so
  // the next event takes it with the right generation and fires.
  struct CopyMayThrow {
    const bool* fail;
    int* calls;
    CopyMayThrow(const bool* fail_copy, int* call_count)
        : fail(fail_copy), calls(call_count) {}
    CopyMayThrow(const CopyMayThrow& other)
        : fail(other.fail), calls(other.calls) {
      if (*fail) throw std::runtime_error("copy failed");
    }
    CopyMayThrow(CopyMayThrow&&) noexcept = default;
    void operator()() const { ++*calls; }
  };
  bool fail = true;
  int calls = 0;
  const CopyMayThrow callable(&fail, &calls);
  sim::EventQueue q;
  const sim::EventHandle fired = q.schedule(0.5, [] {});
  const sim::EventHandle other = q.schedule(2.0, [] {});
  q.pop().second();  // frees a slot and leaves the root vacant
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW((void)q.schedule(1.0, callable), std::runtime_error);
    EXPECT_EQ(q.scheduled_total(), 2u);
    EXPECT_EQ(q.size_bound(), 1u);
    EXPECT_FALSE(fired.pending());
    EXPECT_TRUE(other.pending());
  }
  EXPECT_EQ(q.peek(), 2.0);
  EXPECT_EQ(q.size_bound(), 1u);
  // A pool with no free slot: the new one stays on the free list.
  sim::EventQueue full;
  EXPECT_THROW((void)full.schedule(1.0, callable), std::runtime_error);
  EXPECT_EQ(full.scheduled_total(), 0u);
  EXPECT_TRUE(full.empty());

  fail = false;
  for (sim::EventQueue* queue : {&q, &full}) {
    const sim::EventHandle next = queue->schedule(1.0, callable);
    EXPECT_TRUE(next.pending());
    ASSERT_EQ(queue->peek(), 1.0);
    queue->pop().second();
    EXPECT_FALSE(next.pending());
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(q.scheduled_total(), 3u);
  EXPECT_EQ(full.scheduled_total(), 1u);
  EXPECT_TRUE(other.pending());
}

TEST(Simulator, LvalueCallbackIsCopiedNotMovedFrom) {
  // simbench's replays pass the std::function they keep (hop, start_burst)
  // to at() and after() as lvalues, and schedule it again from inside it.
  sim::Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 4) (void)s.after(1.0, tick);
  };
  const std::function<void()> constant = [&] { ticks += 100; };
  (void)s.after(1.0, tick);
  (void)s.at(10.0, constant);
  EXPECT_TRUE(static_cast<bool>(tick));
  EXPECT_TRUE(static_cast<bool>(constant));
  s.run();
  EXPECT_EQ(ticks, 104);
  EXPECT_TRUE(static_cast<bool>(tick));
  (void)s.at(20.0, tick);
  s.run();
  EXPECT_EQ(ticks, 105);
  EXPECT_TRUE(static_cast<bool>(tick));
}

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiffer) {
  sim::Rng a(42, 0), b(42, 1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, DeriveSeedSpreadsStreams) {
  const std::uint64_t root = 7;
  EXPECT_NE(sim::derive_seed(root, 0), sim::derive_seed(root, 1));
  EXPECT_NE(sim::derive_seed(root, 1), sim::derive_seed(root, 2));
  EXPECT_NE(sim::derive_seed(root, 0), sim::derive_seed(root + 1, 0));
}

TEST(Rng, UniformBounds) {
  sim::Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  sim::Rng r(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential_mean(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

// std::mt19937_64 is the reference: sim::Mt19937_64 twists in another
// order, so every raw draw, every copy and every distribution built on it
// must match the standard engine's bit for bit.
TEST(Rng, EngineIsStdMt19937_64BitForBit) {
  static_assert(std::uniform_random_bit_generator<sim::Mt19937_64>);
  static_assert(std::is_trivially_copyable_v<sim::Rng>);

  std::vector<std::uint64_t> seeds{0, 1, 42,
                                   std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t root : {0ULL, 1ULL, 7ULL, 0x9E3779B97F4A7C15ULL})
    for (const std::uint64_t stream : {0ULL, 1ULL, 31ULL, 1023ULL})
      seeds.push_back(sim::derive_seed(root, stream));

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // 1,000 draws cross the point where the twist's third word wraps
    // (draw 156) and three 312-word blocks.
    std::mt19937_64 reference(seed);
    sim::Mt19937_64 engine(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(engine(), reference()) << i;

    // A copy taken on either side of that wrap or of a block boundary
    // continues exactly as the original does.
    for (const int taken : {0, 1, 155, 156, 157, 311, 312, 313}) {
      sim::Mt19937_64 original(seed);
      for (int i = 0; i < taken; ++i) (void)original();
      sim::Mt19937_64 copy = original;
      std::mt19937_64 expected(seed);
      expected.discard(static_cast<unsigned long long>(taken));
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = expected();
        ASSERT_EQ(copy(), want) << "copy after " << taken << ", draw " << i;
        ASSERT_EQ(original(), want) << "after " << taken << ", draw " << i;
      }
    }

    sim::Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(rng.uniform(-3.0, 5.0),
                std::uniform_real_distribution<double>(-3.0, 5.0)(ref));
      ASSERT_EQ(rng.uniform01(),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      ASSERT_EQ(rng.uniform_int(-5, 1000),
                std::uniform_int_distribution<std::int64_t>(-5, 1000)(ref));
      constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      ASSERT_EQ(rng.uniform_int(kMin, kMax),
                std::uniform_int_distribution<std::int64_t>(kMin, kMax)(ref));
      ASSERT_EQ(rng.exponential_mean(300.0),
                std::exponential_distribution<double>(1.0 / 300.0)(ref));
      ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
      ASSERT_EQ(rng.next_u64(), ref());
    }
    sim::Rng child = rng.split(5);
    std::mt19937_64 ref_child(sim::derive_seed(ref(), 5));
    for (int i = 0; i < 400; ++i) ASSERT_EQ(child.next_u64(), ref_child());
    ASSERT_EQ(rng.next_u64(), ref());
  }
}

TEST(TraceRecorder, IntegratesStepSeries) {
  // value 0 until t=1, then 2 until t=3, then 1.
  std::vector<sim::Sample> s{{1.0, 2.0}, {3.0, 1.0}};
  const auto integral = [&s](double t0, double t1) {
    return sim::integrate_step_series(s.begin(), s.end(), t0, t1, 0.0);
  };
  // over [0,4]: 0*1 + 2*2 + 1*1 = 5
  EXPECT_DOUBLE_EQ(integral(0.0, 4.0), 5.0);
  // window entirely before first sample
  EXPECT_DOUBLE_EQ(integral(0.0, 1.0), 0.0);
  // window after all samples
  EXPECT_DOUBLE_EQ(integral(3.0, 5.0), 2.0);
  // mean over [1,3] is 2
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 1.0, 3.0, 0.0), 2.0);
}

TEST(TraceRecorder, PointQueryReturnsValueInEffect) {
  std::vector<sim::Sample> s{{1.0, 2.0}, {3.0, 1.0}};
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 0.5, 0.5, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 2.0, 2.0, 7.0), 2.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 3.0, 3.0, 7.0), 1.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 3.5, 3.5, 7.0), 1.0);
}

TEST(TraceRecorder, IntegrateRejectsReversedWindow) {
  std::vector<sim::Sample> s;
  EXPECT_THROW(
      (void)sim::integrate_step_series(s.begin(), s.end(), 2.0, 1.0, 0.0),
      std::invalid_argument);
}

namespace {

/// The step-series walk without the binary search: from the first sample,
/// skipping every sample at or before t0, with the same summation order.
template <typename Transform>
double linear_integral(const std::vector<sim::Sample>& samples, double t0,
                       double t1, double initial, Transform f) {
  double area = 0.0;
  double value = initial;
  double cursor = t0;
  for (const sim::Sample& s : samples) {
    if (s.time <= t0) {
      value = s.value;
      continue;
    }
    if (s.time >= t1) break;
    area += f(value) * (s.time - cursor);
    cursor = s.time;
    value = s.value;
  }
  return area + f(value) * (t1 - cursor);
}

}  // namespace

TEST(StepSeries, WalkMatchesTheLinearWalkBitwise) {
  // The availability of a load sample, as platform::Host computes it (-1
  // marks an offline host).
  const auto availability = [](double v) {
    return v < 0.0 ? 0.0 : 1.0 / (1.0 + v);
  };
  const auto identity = [](double v) { return v; };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    // A time-ordered series on a half-second grid; about a quarter of the
    // samples repeat the previous time.
    std::vector<sim::Sample> samples;
    double t = 0.5 * static_cast<double>(rng.uniform_int(0, 10));
    const auto count = rng.uniform_int(0, 60);
    for (std::int64_t i = 0; i < count; ++i) {
      if (rng.uniform_int(0, 3) != 0)
        t += 0.5 * static_cast<double>(rng.uniform_int(1, 4));
      samples.push_back(
          sim::Sample{t, static_cast<double>(rng.uniform_int(-1, 4))});
    }
    // Window edges before, on, between and after the samples.
    std::vector<double> edges{-3.0, 0.0, 0.25, t + 0.75, t + 20.0};
    for (const sim::Sample& sample : samples) edges.push_back(sample.time);
    const auto pick = [&] {
      return rng.uniform_int(0, 2) == 0
                 ? rng.uniform(-5.0, t + 5.0)
                 : edges[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(edges.size()) - 1))];
    };
    for (int k = 0; k < 200; ++k) {
      double t0 = pick();
      double t1 = k % 8 == 0 ? t0 : pick();
      if (t1 < t0) std::swap(t0, t1);
      const double initial = rng.uniform(-1.0, 4.0);
      SCOPED_TRACE(testing::Message() << "[" << t0 << ", " << t1 << "]");
      EXPECT_EQ(sim::integrate_step_series(samples.begin(), samples.end(), t0,
                                           t1, initial),
                linear_integral(samples, t0, t1, initial, identity));
      EXPECT_EQ(sim::integrate_step_series(samples.begin(), samples.end(), t0,
                                           t1, initial, availability),
                linear_integral(samples, t0, t1, initial, availability));
    }
  }
}

// ------------------------------------------------------------ FairShare

namespace {

/// Textbook processor sharing, computed without FairShare: between two
/// consecutive arrivals or departures every job present progresses at
/// capacity / (jobs present).  `arrival` must be sorted.
std::vector<double> processor_sharing_finish_times(
    const std::vector<double>& arrival, const std::vector<double>& work,
    double capacity) {
  const std::size_t n = work.size();
  std::vector<double> left = work;
  std::vector<double> finish(n, -1.0);
  double now = 0.0;
  std::size_t arrived = 0;
  std::size_t finished = 0;
  while (finished < n) {
    std::vector<std::size_t> present;
    for (std::size_t i = 0; i < arrived; ++i)
      if (finish[i] < 0.0) present.push_back(i);
    if (present.empty()) {
      now = arrival[arrived++];
      continue;
    }
    const double rate = capacity / static_cast<double>(present.size());
    std::size_t first = present.front();
    for (std::size_t i : present)
      if (left[i] < left[first]) first = i;
    const double to_departure = left[first] / rate;
    const double to_arrival = arrived < n
                                  ? arrival[arrived] - now
                                  : std::numeric_limits<double>::infinity();
    const double step = std::min(to_departure, to_arrival);
    for (std::size_t i : present) left[i] -= rate * step;
    now += step;
    if (to_arrival <= to_departure) {
      ++arrived;
    } else {
      finish[first] = now;
      ++finished;
    }
  }
  return finish;
}

/// |actual - expected| relative to expected.
double relative_error(double actual, double expected) {
  return std::fabs(actual - expected) / std::fabs(expected);
}

}  // namespace

TEST(FairShare, StaggeredMembersFinishAtProcessorSharingTimes) {
  const std::vector<double> arrival{0.0, 0.5, 0.5, 1.25, 2.0,
                                    2.75, 3.0, 4.5, 6.0, 6.5};
  const std::vector<double> work{5.0, 1.0, 3.0, 0.5, 7.0,
                                 2.0, 2.25, 4.0, 0.25, 1.5};
  const double capacity = 2.0;
  const std::vector<double> expected =
      processor_sharing_finish_times(arrival, work, capacity);
  sim::Simulator s;
  sim::FairShare resource(s, "test", capacity);
  std::vector<double> finish(work.size(), -1.0);
  for (std::size_t i = 0; i < work.size(); ++i)
    (void)s.at(arrival[i], [&, i] {
      resource.join(resource.create(work[i], [&, i] { finish[i] = s.now(); }));
    });
  s.run();
  for (std::size_t i = 0; i < work.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    EXPECT_LE(relative_error(finish[i], expected[i]), 1e-12)
        << finish[i] << " vs " << expected[i];
  }
}

TEST(FairShare, CancelFromTheMiddleFreesItsShareAtOnce) {
  // Five members at 1/5 of a unit capacity; the 5-unit one sits inside the
  // heap, not at its top.  Cancelled at t=1 (0.2 done each), its share goes
  // to the other four at once: 0.8 left at 1/4 finishes at t=4.2, then
  // 6 at 1/3 (t=10.2), 8 at 1/2 (t=18.2) and 2 alone (t=20.2).
  sim::Simulator s;
  sim::FairShare resource(s, "test", 1.0);
  const std::vector<double> work{1.0, 3.0, 5.0, 7.0, 9.0};
  std::vector<double> finish(work.size(), -1.0);
  std::vector<std::shared_ptr<sim::FairShare::Member>> members;
  for (std::size_t i = 0; i < work.size(); ++i) {
    members.push_back(
        resource.create(work[i], [&, i] { finish[i] = s.now(); }));
    resource.join(members.back());
  }
  (void)s.at(1.0, [&] {
    members[2]->cancel();
    EXPECT_EQ(resource.size(), 4u);
  });
  s.run();
  EXPECT_EQ(finish[2], -1.0);  // the callback never fired
  const std::vector<double> expected{4.2, 10.2, -1.0, 18.2, 20.2};
  for (std::size_t i : {0U, 1U, 3U, 4U})
    EXPECT_LE(relative_error(finish[i], expected[i]), 1e-12)
        << "member " << i << ": " << finish[i];
}

TEST(FairShare, EmptyingAndRefillingKeepsWorkConserved) {
  // A lone member restarts the countdown, so its remaining work follows the
  // single-member arithmetic exactly however long the resource has run:
  // after a pass `elapsed` into its life, work - rate * elapsed is left.
  audit::InvariantAuditor auditor(audit::AuditMode::kWarn);
  sim::Simulator s;
  s.set_auditor(&auditor);
  sim::FairShare resource(s, "test", 3.0);
  constexpr std::size_t kCycles = 1000000;
  std::size_t cycles = 0;
  double worst = 0.0;
  std::function<void()> refill = [&] {
    if (++cycles == kCycles) return;
    const double work = 1.0 + 0.37 * static_cast<double>(cycles % 7);
    const double joined = s.now();
    auto member = resource.create(work, refill);
    resource.join(member);
    (void)s.after(0.1, [&, member, work, joined] {
      resource.set_background(0);  // a pass with nothing changed
      const double expected = work - 3.0 * (s.now() - joined);
      worst = std::max(worst, relative_error(member->remaining(), expected));
    });
  };
  resource.join(resource.create(1.0, refill));
  s.run();
  EXPECT_EQ(cycles, kCycles);
  EXPECT_EQ(worst, 0.0);
  EXPECT_EQ(auditor.violation_count(), 0u)
      << audit::to_string(auditor.take_violations().front());
}

TEST(FairShare, EveryChangeSchedulesOneEvent) {
  sim::Simulator s;
  sim::FairShare resource(s, "test", 1.0);
  std::vector<std::shared_ptr<sim::FairShare::Member>> members;
  for (int i = 0; i < 8; ++i) {
    members.push_back(resource.create(1.0 + i, [] {}));
    resource.join(members.back());
  }
  std::uint64_t before = s.scheduled_total();
  resource.join(resource.create(4.5, [] {}));
  EXPECT_EQ(s.scheduled_total() - before, 1u);
  before = s.scheduled_total();
  members[5]->cancel();
  EXPECT_EQ(s.scheduled_total() - before, 1u);
  before = s.scheduled_total();
  resource.set_background(3);
  EXPECT_EQ(s.scheduled_total() - before, 1u);
  before = s.scheduled_total();
  resource.set_capacity(0.0);  // stalled: nothing to schedule
  EXPECT_EQ(s.scheduled_total() - before, 0u);
}

TEST(FairShare, ChangesWhileEmptyMatchTheFinalValuesBitwise) {
  // An empty resource stores a capacity or background change without a
  // pass.  A member joining after several such changes, on a resource that
  // has run before, finishes at bit for bit the time it does on a fresh
  // resource given only the final values, and no change while empty
  // schedules an event or runs on_pass.
  struct CountingShare : sim::FairShare {
    using FairShare::FairShare;
    void on_pass() override { ++passes; }
    int passes = 0;
  };
  sim::Simulator s;
  CountingShare churned(s, "test", 3.0e8);
  CountingShare fresh(s, "test", 2.2e8);
  double churned_done = -1.0;
  double fresh_done = -1.0;
  churned.join(churned.create(1.0e9, [] {}));  // done at 10/3 s
  const std::vector<std::pair<double, std::function<void()>>> changes{
      {4.25, [&] { churned.set_background(2); }},
      {5.5, [&] { churned.set_capacity(0.0); }},
      {6.75, [&] { churned.set_background(1); }},
      {7.0, [&] { churned.set_capacity(2.2e8); }},
      {8.125, [&] { fresh.set_background(1); }}};
  for (const auto& change : changes)
    (void)s.at(change.first, [&s, &churned, &fresh, apply = change.second] {
      const int passes = churned.passes + fresh.passes;
      const std::uint64_t scheduled = s.scheduled_total();
      apply();
      EXPECT_EQ(churned.passes + fresh.passes, passes);
      EXPECT_EQ(s.scheduled_total(), scheduled);
    });
  (void)s.at(8.125, [&] {
    churned.join(churned.create(7.3e8, [&] { churned_done = s.now(); }));
    fresh.join(fresh.create(7.3e8, [&] { fresh_done = s.now(); }));
  });
  s.run();
  EXPECT_EQ(churned_done, fresh_done);
  EXPECT_EQ(churned_done, 8.125 + 7.3e8 / (2.2e8 / 2.0));
}
