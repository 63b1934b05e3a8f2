#include "swampi/swap_ext.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "simcore/rng.hpp"

namespace swampi::swapx {

namespace {
constexpr Tag kTagSwapReport = kReservedTagBase + 32;
constexpr Tag kTagSwapPlan = kReservedTagBase + 33;
constexpr Tag kTagSwapState = kReservedTagBase + 34;
constexpr Tag kTagSwapForward = kReservedTagBase + 512;

/// Wire header for one forwarded envelope.
struct ForwardHeader {
  ContextId context;
  Rank source;
  Tag tag;
  std::uint64_t bytes;
};
}  // namespace

SwapContext::SwapContext(Comm& world, SwapConfig config)
    : world_(world), config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  if (config_.active_count <= 0 || config_.active_count > world_.size())
    throw std::invalid_argument(
        "SwapContext: active_count must be in [1, world size]");
  if (!config_.speed_probe)
    throw std::invalid_argument("SwapContext: speed_probe is required");
  if (!config_.clock) {
    config_.clock = [this] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           epoch_)
          .count();
    };
  }
  rank_of_slot_.resize(static_cast<std::size_t>(config_.active_count));
  std::iota(rank_of_slot_.begin(), rank_of_slot_.end(), Rank{0});
  const bool active = world_.rank() < config_.active_count;
  role_ = Role{.active = active, .slot = active ? world_.rank() : -1};
  if (world_.rank() == 0) {
    // The paper's history window: the latest measurement when it is 0.
    const double window = config_.policy.history_window_s;
    for (Rank r = 0; r < world_.size(); ++r)
      history_.push_back(window > 0.0
                             ? simsweep::forecast::make_windowed_mean(window)
                             : simsweep::forecast::make_last_value());
  }
}

void SwapContext::register_state(void* data, std::size_t bytes) {
  if (data == nullptr && bytes > 0)
    throw std::invalid_argument("register_state: null data");
  registrations_.push_back(Registration{data, bytes});
}

std::size_t SwapContext::state_bytes() const noexcept {
  std::size_t total = 0;
  for (const Registration& r : registrations_) total += r.bytes;
  return total;
}

Role SwapContext::swap_point(double measured_iter_time_s) {
  const bool auditing =
      config_.auditor != nullptr && config_.auditor->enabled();
  const std::size_t entry_state_bytes = auditing ? state_bytes() : 0;
  const bool observing =
      config_.metrics != nullptr || config_.timeline != nullptr;
  const double obs_begin = observing ? config_.clock() : 0.0;
  // 1. Every rank reports its probe + iteration time to the manager.
  const Report mine{config_.speed_probe(), measured_iter_time_s};
  std::vector<Report> reports;
  if (world_.rank() == 0)
    reports.resize(static_cast<std::size_t>(world_.size()));
  world_.gather(&mine, 1, reports.data(), 0);

  // 2. The manager plans; everyone learns the decisions.
  std::vector<SwapEvent> events;
  if (world_.rank() == 0) events = manager_plan(reports);
  int count = static_cast<int>(events.size());
  world_.bcast(&count, 1, 0);
  events.resize(static_cast<std::size_t>(count));
  if (count > 0) world_.bcast(events.data(), events.size(), 0);

  // 3. Registered state moves from evicted ranks to activated spares —
  //    under fault injection an attempt may die and be resent, or the whole
  //    move abandoned — then everyone updates its role table for the swaps
  //    that survived.
  std::vector<SwapEvent> applied;
  if (count > 0) {
    if (config_.faults.enabled()) {
      applied = resolve_transfers(events);
    } else {
      transfer_state(events);
      applied = std::move(events);
    }
    if (!applied.empty()) {
      if (config_.forward_pending_messages) forward_messages(applied);
      apply_events(applied);
    }
  }
  last_events_ = std::move(applied);
  total_swaps_ += last_events_.size();
  if (auditing) audit_swap_point(entry_state_bytes);
  // Collective-level counters once per swap point (rank 0 speaks for the
  // collective); the span lands on every rank's own track.
  if (config_.metrics != nullptr && world_.rank() == 0) {
    config_.metrics->add("swampi.swap_points");
    config_.metrics->add("swampi.swaps_applied", last_events_.size());
    config_.metrics->add(
        "swampi.state_bytes_moved",
        static_cast<std::uint64_t>(state_bytes()) *
            static_cast<std::uint64_t>(last_events_.size()));
  }
  if (config_.timeline != nullptr) {
    simsweep::obs::TimelineTracer& timeline = *config_.timeline;
    timeline.span(
        timeline.track("rank " + std::to_string(world_.rank())), "swap_point",
        "swampi", obs_begin, config_.clock(),
        {{"planned", static_cast<double>(count)},
         {"applied", static_cast<double>(last_events_.size())},
         {"state_bytes", static_cast<double>(state_bytes())}});
  }
  return role_;
}

void SwapContext::audit_swap_point(std::size_t entry_state_bytes) const {
  simsweep::audit::InvariantAuditor& auditor = *config_.auditor;
  const double now = config_.clock();
  // The slot→rank table must stay an injection into the world: one rank
  // per slot, every rank valid.  A duplicate means two slots believe the
  // same process hosts them; an out-of-range rank means a plan escaped the
  // world.
  std::vector<Rank> sorted = rank_of_slot_;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    auditor.report("swampi", "slot_table_is_permutation", now,
                   "two slots map to the same world rank");
  if (!sorted.empty() &&
      (sorted.front() < 0 || sorted.back() >= world_.size()))
    auditor.report("swampi", "slot_table_is_permutation", now,
                   "slot table references a rank outside [0, " +
                       std::to_string(world_.size()) + ")");
  // This rank's role must agree with the shared table.
  const auto it =
      std::find(rank_of_slot_.begin(), rank_of_slot_.end(), world_.rank());
  const bool hosted = it != rank_of_slot_.end();
  if (role_.active != hosted)
    auditor.report("swampi", "role_matches_slot_table", now,
                   "rank " + std::to_string(world_.rank()) +
                       (role_.active ? " claims active but hosts no slot"
                                     : " hosts a slot but claims spare"));
  else if (role_.active &&
           (role_.slot < 0 ||
            static_cast<std::size_t>(role_.slot) >= rank_of_slot_.size() ||
            rank_of_slot_[static_cast<std::size_t>(role_.slot)] !=
                world_.rank()))
    auditor.report("swampi", "role_matches_slot_table", now,
                   "rank " + std::to_string(world_.rank()) +
                       " claims slot " + std::to_string(role_.slot) +
                       " but the table disagrees");
  // Registered state is moved, never resized, by a swap.
  if (state_bytes() != entry_state_bytes)
    auditor.report("swampi", "state_bytes_conserved", now,
                   "registered state changed from " +
                       std::to_string(entry_state_bytes) + " to " +
                       std::to_string(state_bytes()) +
                       " bytes across a swap point");
}

std::vector<SwapEvent> SwapContext::manager_plan(
    const std::vector<Report>& reports) {
  const double now = config_.clock();
  for (std::size_t r = 0; r < reports.size(); ++r)
    history_[r]->observe(now, reports[r].speed);
  auto estimate = [&](Rank r) {
    return history_[static_cast<std::size_t>(r)]->predict();
  };

  // Active processes: equal chunks (the paper's fixed data distribution).
  std::vector<policy::ActiveProcess> active;
  double iter_time = 0.0;
  for (std::size_t slot = 0; slot < rank_of_slot_.size(); ++slot) {
    const Rank r = rank_of_slot_[slot];
    active.push_back(policy::ActiveProcess{
        .slot = slot,
        .host = static_cast<std::uint32_t>(r),
        .est_speed = estimate(r),
        .chunk_flops = 1.0,
    });
    iter_time =
        std::max(iter_time, reports[static_cast<std::size_t>(r)].iter_time);
  }

  std::vector<policy::HostEstimate> spares;
  for (Rank r = 0; r < world_.size(); ++r) {
    if (std::find(rank_of_slot_.begin(), rank_of_slot_.end(), r) !=
        rank_of_slot_.end())
      continue;
    spares.push_back(policy::HostEstimate{
        .host = static_cast<std::uint32_t>(r), .est_speed = estimate(r)});
  }

  const policy::PlanContext ctx{
      .measured_iter_time_s = iter_time,
      .state_bytes = static_cast<double>(state_bytes()),
      .link_latency_s = config_.link_latency_s,
      .link_bandwidth_Bps = config_.link_bandwidth_Bps,
      .comm_time_s = 0.0,
      .adaptation_cost_s = std::nullopt,
  };
  const auto decisions = policy::plan_swaps(config_.policy, active, spares, ctx);

  std::vector<SwapEvent> events;
  events.reserve(decisions.size());
  for (const policy::SwapDecision& d : decisions)
    events.push_back(SwapEvent{.slot = static_cast<int>(d.slot),
                               .from = static_cast<Rank>(d.from),
                               .to = static_cast<Rank>(d.to)});
  return events;
}

void SwapContext::transfer_state(const std::vector<SwapEvent>& events) {
  for (const SwapEvent& e : events) transfer_state_attempt(e, /*discard=*/false);
}

void SwapContext::transfer_state_attempt(const SwapEvent& e, bool discard) {
  if (world_.rank() == e.from) {
    Tag tag = kTagSwapState;
    for (const Registration& reg : registrations_)
      world_.internal_send(static_cast<const std::byte*>(reg.data), reg.bytes,
                           e.to, tag++);
  } else if (world_.rank() == e.to) {
    Tag tag = kTagSwapState;
    std::vector<std::byte> scratch;
    for (const Registration& reg : registrations_) {
      if (discard) {
        // The attempt is known to fail: the payload still crosses the wire
        // (and costs time), but must not touch the registered state.
        scratch.resize(reg.bytes);
        world_.internal_recv(scratch.data(), reg.bytes, e.from, tag++);
      } else {
        world_.internal_recv(static_cast<std::byte*>(reg.data), reg.bytes,
                             e.from, tag++);
      }
    }
  }
}

bool SwapContext::fault_draw() {
  // Counter-hash stream: rank-independent, communication-free agreement.
  const std::uint64_t z =
      simsweep::sim::derive_seed(config_.faults.seed, ++fault_counter_);
  return static_cast<double>(z >> 11) * 0x1.0p-53 <
         config_.faults.transfer_fail_prob;
}

std::vector<SwapEvent> SwapContext::resolve_transfers(
    const std::vector<SwapEvent>& events) {
  std::vector<SwapEvent> applied;
  applied.reserve(events.size());
  for (const SwapEvent& e : events) {
    std::size_t failures = 0;
    bool abandoned = false;
    while (fault_draw()) {
      ++transfer_failures_;
      ++failures;
      transfer_state_attempt(e, /*discard=*/true);
      if (failures > config_.faults.max_transfer_retries) {
        abandoned = true;
        break;
      }
      ++transfer_retries_;
    }
    if (abandoned) {
      ++transfers_abandoned_;
      continue;  // the evicted process stays active; no role change
    }
    transfer_state_attempt(e, /*discard=*/false);
    applied.push_back(e);
  }
  return applied;
}

void SwapContext::forward_messages(const std::vector<SwapEvent>& events) {
  // The evicted rank drains its pending user-context messages and ships
  // them, in arrival order, to the rank taking over the slot, which
  // re-delivers them to its own mailbox.
  for (const SwapEvent& e : events) {
    if (world_.rank() == e.from) {
      auto pending = world_.runtime()
                         .mailbox(world_.world_rank(world_.rank()))
                         .drain_context(/*user world context=*/0);
      const std::uint64_t count = pending.size();
      world_.internal_send(reinterpret_cast<const std::byte*>(&count),
                           sizeof(count), e.to, kTagSwapForward);
      for (const Envelope& env : pending) {
        const ForwardHeader header{env.context, env.source, env.tag,
                                   env.payload.size()};
        world_.internal_send(reinterpret_cast<const std::byte*>(&header),
                             sizeof(header), e.to, kTagSwapForward);
        world_.internal_send(env.payload.data(), env.payload.size(), e.to,
                             kTagSwapForward);
      }
    } else if (world_.rank() == e.to) {
      std::uint64_t count = 0;
      world_.internal_recv(reinterpret_cast<std::byte*>(&count), sizeof(count),
                           e.from, kTagSwapForward);
      for (std::uint64_t i = 0; i < count; ++i) {
        ForwardHeader header{};
        world_.internal_recv(reinterpret_cast<std::byte*>(&header),
                             sizeof(header), e.from, kTagSwapForward);
        Envelope env;
        env.context = header.context;
        env.source = header.source;
        env.tag = header.tag;
        env.payload.resize(header.bytes);
        world_.internal_recv(env.payload.data(), env.payload.size(), e.from,
                             kTagSwapForward);
        world_.runtime()
            .mailbox(world_.world_rank(world_.rank()))
            .deliver(std::move(env));
      }
    }
  }
}

void SwapContext::apply_events(const std::vector<SwapEvent>& events) {
  for (const SwapEvent& e : events) {
    rank_of_slot_.at(static_cast<std::size_t>(e.slot)) = e.to;
    if (world_.rank() == e.from) role_ = Role{.active = false, .slot = -1};
    if (world_.rank() == e.to) role_ = Role{.active = true, .slot = e.slot};
  }
}

}  // namespace swampi::swapx
