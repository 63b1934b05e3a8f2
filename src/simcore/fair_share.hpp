// One processor-sharing resource, used for both a host's CPU and the link.
//
// A FairShare divides a capacity equally among its members and `background`
// non-member sharers, so each member progresses at
//
//     capacity / max(1, background + members)        [work units/s]
//
// A host's CPU is one (capacity = peak speed, background = competing
// processes); the shared link is another (capacity = beta, no background).
//
// Every member progresses at the same rate, so one countdown clock serves
// them all.  `base` is the remaining work of the member that joined the
// empty resource; every member stores key = work - base when it joins, so
// its remaining work is base + key from then on, and the member with the
// smallest (key, join order) finishes first.  Every change to the set (join,
// completion, cancel) or to the capacity or background runs one pass: base
// drops by rate * elapsed, the rate is recomputed and the resource's one
// completion event is rescheduled for the head of a min-heap of keys, so a
// change costs O(log n).  With a single member, base is that member's
// remaining work, updated by the same arithmetic a per-member loop would
// use.  A pass only accrues, cancels and schedules, so it never calls back
// into its owner.
//
// An empty resource (no members, nothing in the heap) takes a capacity or
// background change without a pass: it stores the value and returns.
// Nothing reads an empty resource's rate or countdown, and the next join
// restarts the countdown from the new member's work and runs a pass that
// rates it from the stored values, so the result is bitwise the same.  An
// idle host's load flip therefore costs no accrual, cancel or on_pass.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::sim {

class FairShare {
 public:
  /// One unit of work on the resource: flops on a CPU, bytes on the link.
  /// Created by FairShare::create; stays valid until completion or cancel.
  class Member {
   public:
    using Completion = std::function<void()>;

    /// Only FairShare makes a Key, so only create() builds members; the
    /// constructor is public for std::make_shared, which puts the member
    /// and its control block in one allocation.
    class Key {
      friend class FairShare;
      Key() = default;
    };

    Member(Key /*key*/, FairShare& owner, double work, Completion done,
           SimTime now)
        : owner_(&owner), remaining_(work), work_(work),
          done_(std::move(done)), started_(now) {}

    /// Work still to do as of the last pass; 0 once complete.
    [[nodiscard]] double remaining() const noexcept;

    /// Work the member was created with.
    [[nodiscard]] double work() const noexcept { return work_; }

    /// Simulated time the member was created.
    [[nodiscard]] SimTime started() const noexcept { return started_; }

    /// True until the completion callback has fired or cancel() was called.
    [[nodiscard]] bool active() const noexcept { return active_; }

    /// Abandons the member: its pending wait is cancelled, the callback
    /// will not fire, and its share goes to the other members at once.
    void cancel();

   private:
    friend class FairShare;

    [[nodiscard]] bool in_set() const noexcept { return joined_ && active_; }

    FairShare* owner_;
    double remaining_;  // while out of the set: before join(), after leaving
    double key_ = 0.0;  // while in the set, remaining work = owner's base + key
    double work_;
    Completion done_;
    SimTime started_;
    EventHandle wait_;  // the owner's wait before join()
    bool active_ = true;
    bool joined_ = false;
  };

  /// `layer` names the owner's subsystem in audit reports ("platform",
  /// "net"); it must outlive the resource.
  FairShare(Simulator& simulator, const char* layer, double capacity)
      : simulator_(simulator), layer_(layer), capacity_(capacity) {}
  /// Cancels the pending completion event, which refers to this object.
  virtual ~FairShare() { event_.cancel(); }

  FairShare(const FairShare&) = delete;
  FairShare& operator=(const FairShare&) = delete;

  /// A member with `work` to do (finite, >= 0) that has not joined yet.
  std::shared_ptr<Member> create(double work, Member::Completion done);

  /// Makes `event` the member's pending wait until it joins, so cancel()
  /// cancels it too (the link's latency phase).
  static void hold(Member& member, EventHandle event) {
    member.wait_ = std::move(event);
  }

  /// Adds `member` to the set and re-rates.  A member with no work left
  /// still completes through an event.
  void join(const std::shared_ptr<Member>& member);

  /// Completes `member` now: it leaves the set (which re-rates if it had
  /// joined) and its callback fires last.
  void complete(const std::shared_ptr<Member>& member);

  /// Changes the shared capacity (0 stalls every member) and re-rates,
  /// unless the resource is empty.
  void set_capacity(double capacity);

  /// Changes the number of non-member sharers and re-rates, unless the
  /// resource is empty.
  void set_background(std::size_t sharers);

  /// Members currently progressing.
  [[nodiscard]] std::size_t size() const noexcept { return members_; }

 protected:
  [[nodiscard]] Simulator& simulator() const noexcept { return simulator_; }

  /// Owner hooks, each called once per pass, completion or cancel — never
  /// per member inside a pass; a change to an empty resource is no pass.
  /// on_complete runs after the member left the set and before the set
  /// re-rates.
  virtual void on_pass() {}
  virtual void on_complete(const Member& /*member*/) {}
  virtual void on_cancel(const Member& /*member*/) {}

 private:
  /// A joined member in the heap.  Members that left stay until they
  /// surface at the top, where the next pass discards them.
  struct Entry {
    double key;
    std::uint64_t seq;  // join order: equal keys finish first-joined first
    std::shared_ptr<Member> member;
  };

  /// The heap comparator: `a` finishes after `b`, so heap_.front() is next.
  struct FinishesAfter {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  /// No member and no heap entry: nothing to re-rate.
  [[nodiscard]] bool empty() const noexcept {
    return members_ == 0 && heap_.empty();
  }

  void drop(Member& member);
  void accrue();
  void rerate();
  void audit_members(SimTime now) const;

  Simulator& simulator_;
  const char* layer_;
  double capacity_;
  std::size_t background_ = 0;
  std::size_t members_ = 0;  // members in the set
  double rate_ = 0.0;  // granted to each member at the last pass
  double base_ = 0.0;  // the countdown: see the file comment
  SimTime last_pass_ = 0.0;
  std::uint64_t joins_ = 0;
  std::vector<Entry> heap_;
  EventHandle event_;  // the head's completion
};

inline double FairShare::Member::remaining() const noexcept {
  return in_set() ? std::max(0.0, owner_->base_ + key_) : remaining_;
}

}  // namespace simsweep::sim
