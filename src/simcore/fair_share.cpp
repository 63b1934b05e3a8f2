#include "simcore/fair_share.hpp"

#include <algorithm>
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
  active_ = false;
  event_.cancel();
  owner_->drop(*this);
}

std::shared_ptr<FairShare::Member> FairShare::create(double work,
                                                     Member::Completion done) {
  if (!std::isfinite(work) || work < 0.0)
    throw std::invalid_argument(std::string(layer_) +
                                ": work must be finite and non-negative");
  return std::shared_ptr<Member>(
      new Member(*this, work, std::move(done), simulator_.now()));
}

void FairShare::join(const std::shared_ptr<Member>& member) {
  member->joined_ = true;
  member->last_update_ = simulator_.now();
  members_.push_back(member);
  rerate();
}

void FairShare::complete(const std::shared_ptr<Member>& member) {
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    // The completion event was scheduled from (remaining, rate); at the
    // instant it fires the un-accrued residual must be a rounding error,
    // not unfinished work being silently dropped.
    const double residual =
        member->remaining_ -
        member->rate_ * (simulator_.now() - member->last_update_);
    if (std::fabs(residual) > work_slack(member->work_))
      auditor->report(layer_, "work_conservation", simulator_.now(),
                      "member finished with " + std::to_string(residual) +
                          " unaccounted of " + std::to_string(member->work_));
  }
  member->remaining_ = 0.0;
  member->active_ = false;
  const bool joined = member->joined_;
  if (joined) leave(*member);
  on_complete(*member);
  if (joined) rerate();
  if (member->done_) member->done_();
}

void FairShare::set_capacity(double capacity) {
  capacity_ = capacity;
  rerate();
}

void FairShare::set_background(std::size_t sharers) {
  background_ = sharers;
  rerate();
}

void FairShare::drop(const Member& member) {
  on_cancel(member);
  if (!member.joined_) return;
  leave(member);
  rerate();
}

void FairShare::leave(const Member& member) {
  members_.erase(std::find_if(
      members_.begin(), members_.end(),
      [&member](const std::shared_ptr<Member>& m) { return m.get() == &member; }));
}

void FairShare::rerate() {
  on_pass();
  const SimTime now = simulator_.now();
  const double n = static_cast<double>(members_.size());
  const double rate =
      capacity_ / std::max(1.0, static_cast<double>(background_) + n);
  audit::InvariantAuditor* auditor = simulator_.auditor();
  const bool auditing = auditor != nullptr && auditor->enabled();
  if (auditing && rate * n > capacity_ * (1.0 + 1e-9))
    auditor->report(layer_, "rates_within_capacity", now,
                    std::to_string(members_.size()) + " members at " +
                        std::to_string(rate) + " exceed capacity " +
                        std::to_string(capacity_));
  for (const std::shared_ptr<Member>& member : members_) {
    const double elapsed = now - member->last_update_;
    member->remaining_ -= member->rate_ * elapsed;
    if (auditing) audit_accrual(*member, now, elapsed);
    if (member->remaining_ < 0.0) member->remaining_ = 0.0;
    member->last_update_ = now;
    member->rate_ = rate;
    member->event_.cancel();
    if (rate <= 0.0) continue;  // stalled until the next pass
    std::weak_ptr<Member> weak = member;
    member->event_ = simulator_.after(member->remaining_ / rate, [this, weak] {
      if (auto m = weak.lock(); m && m->active()) complete(m);
    });
  }
}

/// Per-member checks at one accrual point: the interval since the last pass
/// is non-negative, and the remaining work stays within [-slack, work + slack].
void FairShare::audit_accrual(const Member& member, SimTime now,
                              double elapsed) const {
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (elapsed < -kTimeEpsilon)
    auditor->report(layer_, "non_negative_elapsed", now,
                    "member accrued over a negative interval of " +
                        std::to_string(elapsed) + " s");
  const double slack = work_slack(member.work_);
  if (member.remaining_ < -slack || member.remaining_ > member.work_ + slack)
    auditor->report(layer_, "work_conservation", now,
                    "member has " + std::to_string(member.remaining_) +
                        " remaining of " + std::to_string(member.work_));
}

}  // namespace simsweep::sim
