// One processor-sharing resource, used for both a host's CPU and the link.
//
// A FairShare divides a capacity equally among its members and `background`
// non-member sharers, so each member progresses at
//
//     capacity / max(1, background + members)        [work units/s]
//
// A host's CPU is one (capacity = peak speed, background = competing
// processes); the shared link is another (capacity = beta, no background).
// Every change to the set (join, completion, cancel) or to the capacity or
// background runs one pass: each member accrues the work done at its old
// rate, takes the new rate and gets a fresh completion event.  A pass only
// accrues, cancels and schedules, so it never calls back into its owner.
#pragma once

#include <cstddef>
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

    /// Work still to do as of the last pass; 0 once complete.
    [[nodiscard]] double remaining() const noexcept { return remaining_; }

    /// Work the member was created with.
    [[nodiscard]] double work() const noexcept { return work_; }

    /// Simulated time the member was created.
    [[nodiscard]] SimTime started() const noexcept { return started_; }

    /// True until the completion callback has fired or cancel() was called.
    [[nodiscard]] bool active() const noexcept { return active_; }

    /// Abandons the member: its pending event is cancelled, the callback
    /// will not fire, and its share goes to the other members at once.
    void cancel();

   private:
    friend class FairShare;
    Member(FairShare& owner, double work, Completion done, SimTime now)
        : owner_(&owner), remaining_(work), work_(work),
          done_(std::move(done)), started_(now) {}

    FairShare* owner_;
    double remaining_;
    double work_;
    Completion done_;
    SimTime started_;
    SimTime last_update_ = 0.0;  // set by join() and every pass
    double rate_ = 0.0;  // granted at the last pass
    EventHandle event_;  // completion, or the owner's wait before join()
    bool active_ = true;
    bool joined_ = false;
  };

  /// `layer` names the owner's subsystem in audit reports ("platform",
  /// "net"); it must outlive the resource.
  FairShare(Simulator& simulator, const char* layer, double capacity)
      : simulator_(simulator), layer_(layer), capacity_(capacity) {}
  virtual ~FairShare() = default;

  FairShare(const FairShare&) = delete;
  FairShare& operator=(const FairShare&) = delete;

  /// A member with `work` to do (finite, >= 0) that has not joined yet.
  std::shared_ptr<Member> create(double work, Member::Completion done);

  /// Makes `event` the member's pending event until it joins, so cancel()
  /// cancels it too (the link's latency phase).
  static void hold(Member& member, EventHandle event) {
    member.event_ = std::move(event);
  }

  /// Adds `member` to the set and re-rates.  A member with no work left
  /// still completes through an event.
  void join(const std::shared_ptr<Member>& member);

  /// Completes `member` now: it leaves the set (which re-rates if it had
  /// joined) and its callback fires last.
  void complete(const std::shared_ptr<Member>& member);

  /// Changes the shared capacity (0 stalls every member) and re-rates.
  void set_capacity(double capacity);

  /// Changes the number of non-member sharers and re-rates.
  void set_background(std::size_t sharers);

  /// Members currently progressing.
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }

 protected:
  [[nodiscard]] Simulator& simulator() const noexcept { return simulator_; }

  /// Owner hooks, each called once per pass, completion or cancel — never
  /// per member inside a pass.  on_complete runs after the member left the
  /// set and before the set re-rates.
  virtual void on_pass() {}
  virtual void on_complete(const Member& /*member*/) {}
  virtual void on_cancel(const Member& /*member*/) {}

 private:
  void drop(const Member& member);
  void leave(const Member& member);
  void rerate();
  void audit_accrual(const Member& member, SimTime now, double elapsed) const;

  Simulator& simulator_;
  const char* layer_;
  double capacity_;
  std::size_t background_ = 0;
  std::vector<std::shared_ptr<Member>> members_;  // join order
};

}  // namespace simsweep::sim
