// swampi swap extension — the paper's mechanism, as a library.
//
// An application over-allocates a world of N + M ranks; N "active" slots
// compute, M ranks idle as spares.  Each rank registers the variables that
// constitute its process state (the paper's swap_register()), and calls
// swap_point() once per iteration (the paper's MPI_Swap(), a full
// application barrier).  A manager — hosted on world rank 0, standing in
// for the paper's separate swap-manager process — collects per-rank
// performance measurements, runs the configured swapping policy, and
// orchestrates the registered-state transfers from evicted ranks to
// activated spares.  The call returns every rank's new role.
//
// Performance measurement is injected: `speed_probe` returns the rank's
// current sustained speed estimate (the real system used NWS-style host
// monitoring; examples and tests use a Throttle that emulates external CPU
// load deterministically).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "audit/auditor.hpp"
#include "forecast/forecaster.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "swap/payback.hpp"
#include "swap/planner.hpp"
#include "swap/policy.hpp"
#include "swampi/comm.hpp"

namespace swampi::swapx {

namespace policy = simsweep::swap;

/// Transient state-transfer faults for swap_point (mirrors the simulator's
/// fault layer): each transfer attempt may die and be resent, up to
/// max_transfer_retries times; after that the move is abandoned and the
/// evicted process simply stays active.  Outcomes are drawn from a
/// counter-hash stream over `seed`, advanced identically on every rank, so
/// all ranks agree on every outcome without extra communication.
struct FaultProfile {
  /// Probability that one transfer attempt fails.
  double transfer_fail_prob = 0.0;

  /// Resends allowed after the first failed attempt.
  std::size_t max_transfer_retries = 3;

  /// Root of the outcome stream; must be identical on all ranks.
  std::uint64_t seed = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return transfer_fail_prob > 0.0;
  }
};

struct SwapConfig {
  /// N: slots that compute each iteration.  The remaining world ranks are
  /// spares.  Initially slot i runs on world rank i.
  int active_count = 1;

  policy::PolicyParams policy = policy::greedy_policy();

  /// Current sustained-speed estimate for *this rank* (flop/s or any
  /// consistent unit).  Called at every swap point on every rank.
  std::function<double()> speed_probe;

  /// Link parameters for the payback estimate (the state transfer itself
  /// happens over real in-process messaging; these only feed the policy's
  /// cost model).
  double link_latency_s = 1e-4;
  double link_bandwidth_Bps = 100.0e6;

  /// Clock used for history windows, in seconds.  Defaults to wall time
  /// since context creation; tests inject virtual clocks.
  std::function<double()> clock;

  /// Message forwarding — the "improved system" the paper describes as
  /// designed but not implemented: when a process is swapped, user messages
  /// still queued at the evicted rank follow the process to its new rank,
  /// lifting the no-outstanding-messages restriction for applications that
  /// address peers by slot.  Off by default (the paper's baseline demands a
  /// full barrier with no messages in flight).
  bool forward_pending_messages = false;

  /// Transfer-fault injection; disabled by default.
  FaultProfile faults;

  /// Optional invariant auditor (may be shared between ranks — reporting
  /// is mutex-protected).  When set, every swap_point checks that the
  /// slot→rank table stays a valid partial permutation, that roles agree
  /// with it, and that registered-state bytes are conserved across swaps.
  /// The manager's performance histories need no audit: a forecaster
  /// throws on a sample older than its last, so they stay time-ordered.
  /// Null disables all checks.
  simsweep::audit::InvariantAuditor* auditor = nullptr;

  /// Optional metrics registry (may be shared between ranks — counter
  /// updates are thread-safe; gauges/histograms are single-writer and must
  /// not be recorded from rank threads).  Collective-level counters (swap
  /// points, swaps applied, state bytes moved) are recorded once per swap
  /// point by world rank 0 so they count events, not rank-calls.  Null
  /// disables all recording.
  simsweep::obs::MetricsRegistry* metrics = nullptr;

  /// Optional timeline tracer (shareable like the registry): every rank
  /// draws its swap_point collective as a span on its own "rank N" track,
  /// timestamped with `clock`.  Null disables all recording.
  simsweep::obs::TimelineTracer* timeline = nullptr;
};

struct Role {
  bool active = false;
  int slot = -1;
  friend bool operator==(const Role&, const Role&) = default;
};

/// One applied swap, as reported to every rank.
struct SwapEvent {
  int slot = 0;
  Rank from = 0;
  Rank to = 0;
};

class SwapContext {
 public:
  /// One registered span of process state.
  struct Registration {
    void* data;
    std::size_t bytes;
  };

  /// Collective: all world ranks construct with identical configuration.
  SwapContext(Comm& world, SwapConfig config);

  /// Registers `bytes` at `data` as process state to transfer on a swap.
  /// All ranks must register the same sequence of sizes (they run the same
  /// program), and `data` must remain valid at the same address for the
  /// lifetime of the context — re-seating a registered container (e.g.
  /// move-assigning a std::vector) silently detaches it from swapping.
  /// Not collective; call before the first swap_point.
  void register_state(void* data, std::size_t bytes);

  template <typename T>
  void register_value(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    register_state(&value, sizeof(T));
  }

  [[nodiscard]] Role role() const noexcept { return role_; }

  /// The paper's MPI_Swap(): a full application barrier at which the
  /// manager may reassign slots.  All world ranks must call it the same
  /// number of times.  Active ranks pass the duration of the iteration
  /// they just completed; spares pass anything (ignored).  Returns this
  /// rank's (possibly changed) role.
  Role swap_point(double measured_iter_time_s);

  /// Swaps applied so far across the whole run (identical on every rank
  /// after each swap_point).
  [[nodiscard]] std::size_t swaps_performed() const noexcept {
    return total_swaps_;
  }

  /// Events applied at the most recent swap_point.  Under fault injection
  /// this excludes planned swaps whose transfers were abandoned.
  [[nodiscard]] const std::vector<SwapEvent>& last_events() const noexcept {
    return last_events_;
  }

  // Transfer-fault statistics (identical on every rank; all zero when the
  // fault profile is disabled).
  [[nodiscard]] std::size_t transfer_failures() const noexcept {
    return transfer_failures_;
  }
  [[nodiscard]] std::size_t transfer_retries() const noexcept {
    return transfer_retries_;
  }
  [[nodiscard]] std::size_t transfers_abandoned() const noexcept {
    return transfers_abandoned_;
  }

  /// World rank currently hosting `slot` (identical on every rank between
  /// swap points).  Applications use this to address peer slots after swaps.
  [[nodiscard]] Rank rank_of_slot(int slot) const {
    return rank_of_slot_.at(static_cast<std::size_t>(slot));
  }

  /// Number of active slots (N).
  [[nodiscard]] int active_count() const noexcept {
    return config_.active_count;
  }

  /// The world communicator this context coordinates over.
  [[nodiscard]] Comm& world() noexcept { return world_; }

  /// Registered state size in bytes (sum of registrations).
  [[nodiscard]] std::size_t state_bytes() const noexcept;

  /// The registered state spans, in registration order.  Used by the
  /// checkpoint extension.
  [[nodiscard]] const std::vector<Registration>& registrations()
      const noexcept {
    return registrations_;
  }

 private:
  /// Measurement sent by every rank to the manager each swap point.
  struct Report {
    double speed;
    double iter_time;
  };

  [[nodiscard]] std::vector<SwapEvent> manager_plan(
      const std::vector<Report>& reports);
  void apply_events(const std::vector<SwapEvent>& events);
  void transfer_state(const std::vector<SwapEvent>& events);
  /// One send/recv pass for `event`'s registrations; a discarded attempt
  /// (failed transfer) receives into scratch storage instead of the
  /// registered state.
  void transfer_state_attempt(const SwapEvent& event, bool discard);
  /// Executes the transfers of `events` under the fault profile and
  /// returns the events whose transfers succeeded.
  [[nodiscard]] std::vector<SwapEvent> resolve_transfers(
      const std::vector<SwapEvent>& events);
  /// Next deterministic failure draw; advances the shared counter, so every
  /// rank must call it the same number of times in the same order.
  [[nodiscard]] bool fault_draw();
  void forward_messages(const std::vector<SwapEvent>& events);
  /// Post-swap_point invariants: slot table is a partial permutation of
  /// world ranks, this rank's role agrees with it, and the registered state
  /// footprint did not change while state moved between ranks.
  void audit_swap_point(std::size_t entry_state_bytes) const;

  Comm& world_;
  SwapConfig config_;
  std::vector<Registration> registrations_;
  std::vector<Rank> rank_of_slot_;  // slot -> world rank
  Role role_;
  std::size_t total_swaps_ = 0;
  std::vector<SwapEvent> last_events_;

  // Fault bookkeeping (advanced identically on every rank).
  std::uint64_t fault_counter_ = 0;
  std::size_t transfer_failures_ = 0;
  std::size_t transfer_retries_ = 0;
  std::size_t transfers_abandoned_ = 0;

  // Manager-side state (only used on world rank 0): one performance
  // history per world rank, averaged over the policy's history window.
  std::vector<std::unique_ptr<simsweep::forecast::Forecaster>> history_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace swampi::swapx
