#include "simcore/fair_share.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace simsweep::sim {

namespace {

/// Rounding allowance on a member's remaining work.  It covers completion
/// event quantisation (eta = remaining / rate re-multiplied by rate); a real
/// double count is off by whole rate * dt amounts, orders beyond it.
double work_slack(double work) { return 1e-9 * work + 1e-3; }

}  // namespace

void FairShare::Member::cancel() {
  if (!active_) return;
  wait_.cancel();
  owner_->drop(*this);
}

std::shared_ptr<FairShare::Member> FairShare::create(double work,
                                                     Member::Completion done) {
  if (!std::isfinite(work) || work < 0.0)
    throw std::invalid_argument(std::string(layer_) +
                                ": work must be finite and non-negative");
  return std::make_shared<Member>(Member::Key{}, *this, work, std::move(done),
                                  simulator_.now());
}

void FairShare::join(const std::shared_ptr<Member>& member) {
  accrue();
  // The first member of an empty resource restarts the countdown.
  if (members_ == 0) base_ = member->remaining_;
  member->key_ = member->remaining_ - base_;
  member->joined_ = true;
  ++members_;
  heap_.push_back(Entry{member->key_, joins_++, member});
  std::push_heap(heap_.begin(), heap_.end(), FinishesAfter{});
  rerate();
}

void FairShare::complete(const std::shared_ptr<Member>& member) {
  const bool joined = member->in_set();
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    // The completion event was scheduled from (remaining, rate); at the
    // instant it fires the un-accrued residual must be a rounding error,
    // not unfinished work being silently dropped.
    const double residual =
        member->remaining() -
        (joined ? rate_ * (simulator_.now() - last_pass_) : 0.0);
    if (std::fabs(residual) > work_slack(member->work_))
      auditor->report(layer_, "work_conservation", simulator_.now(),
                      "member finished with " + std::to_string(residual) +
                          " unaccounted of " + std::to_string(member->work_));
  }
  member->remaining_ = 0.0;
  member->active_ = false;
  if (joined) --members_;
  on_complete(*member);
  if (joined) rerate();
  if (member->done_) member->done_();
}

void FairShare::set_capacity(double capacity) {
  capacity_ = capacity;
  if (!empty()) rerate();
}

void FairShare::set_background(std::size_t sharers) {
  background_ = sharers;
  if (!empty()) rerate();
}

void FairShare::drop(Member& member) {
  const bool joined = member.in_set();
  member.remaining_ = member.remaining();  // as of the last pass
  member.active_ = false;
  on_cancel(member);
  if (!joined) return;
  --members_;
  rerate();
}

/// Runs the countdown from the last pass to now at the rate it granted.
void FairShare::accrue() {
  const SimTime now = simulator_.now();
  const double elapsed = now - last_pass_;
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled() && elapsed < -kTimeEpsilon)
    auditor->report(layer_, "non_negative_elapsed", now,
                    "resource accrued over a negative interval of " +
                        std::to_string(elapsed) + " s");
  base_ -= rate_ * elapsed;
  last_pass_ = now;
}

void FairShare::rerate() {
  on_pass();
  accrue();
  const double n = static_cast<double>(members_);
  rate_ = capacity_ / std::max(1.0, static_cast<double>(background_) + n);
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    if (rate_ * n > capacity_ * (1.0 + 1e-9))
      auditor->report(layer_, "rates_within_capacity", last_pass_,
                      std::to_string(members_) + " members at " +
                          std::to_string(rate_) + " exceed capacity " +
                          std::to_string(capacity_));
    audit_members(last_pass_);
  }
  while (!heap_.empty() && !heap_.front().member->in_set()) {
    std::pop_heap(heap_.begin(), heap_.end(), FinishesAfter{});
    heap_.pop_back();
  }
  event_.cancel();
  if (heap_.empty() || rate_ <= 0.0) return;  // idle, or stalled until a pass
  // When the event fires the head is still in the set, since any change
  // before then reschedules it.  The copy keeps the member alive after the
  // pass in complete() pops its entry.
  event_ = simulator_.after(
      std::max(0.0, base_ + heap_.front().key) / rate_,
      [this] { complete(std::shared_ptr<Member>(heap_.front().member)); });
}

/// Per-member check at one pass: each remaining work stays within
/// [-slack, work + slack].
void FairShare::audit_members(SimTime now) const {
  audit::InvariantAuditor* auditor = simulator_.auditor();
  for (const Entry& entry : heap_) {
    if (!entry.member->in_set()) continue;
    const double remaining = base_ + entry.key;
    const double work = entry.member->work_;
    const double slack = work_slack(work);
    if (remaining < -slack || remaining > work + slack)
      auditor->report(layer_, "work_conservation", now,
                      "member has " + std::to_string(remaining) +
                          " remaining of " + std::to_string(work));
  }
}

}  // namespace simsweep::sim
