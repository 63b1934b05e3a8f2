// Single-layer replays: each drives one layer through its public API alone,
// sized from what the traced run of the workload counted, so a layer's cost
// can be read without instrumenting the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "load/load_model.hpp"
#include "platform/cluster.hpp"

namespace simbench {

/// simcore: a hold model on sim::Simulator — `depth` pending events, each
/// firing one Simulator::after of a random delay — until `events` have fired.
/// Returns host seconds.
[[nodiscard]] double replay_simcore(std::uint64_t events, std::size_t depth,
                                    std::uint64_t seed);

/// platform: `changes` Host::set_external_load calls on a host that always
/// has one running ComputeTask, simulated time advancing `step_s` between
/// calls as a load source's would.  Returns host seconds.
[[nodiscard]] double replay_platform(std::uint64_t changes, double step_s);

/// load: LoadModel::attach_all on a fresh cluster plus run_until(horizon_s),
/// with no application.  Returns host seconds (cluster construction
/// excluded).
[[nodiscard]] double replay_load(const simsweep::load::LoadModel& model,
                                 const simsweep::platform::ClusterSpec& spec,
                                 std::uint64_t seed, double horizon_s);

/// One flow a trial started: when, and how many bytes.
struct FlowStart {
  double time_s = 0.0;
  double bytes = 0.0;
};

/// net: SharedLinkNetwork::start_transfer of every flow in `flows` at its
/// recorded simulated start time, run until the link drains.  Returns host
/// seconds.
[[nodiscard]] double replay_net(const std::vector<FlowStart>& flows,
                                const simsweep::platform::LinkSpec& link);

/// swap: `plans` evaluate_swaps calls under the greedy policy (the one every
/// benchmark workload uses) with `active` processes and `spares` idle hosts,
/// shaped so each call weighs `per_plan` candidates, the last one rejected
/// for want of a faster spare.  Returns host seconds and adds the candidates
/// weighed to `candidates`.
[[nodiscard]] double replay_swap(std::size_t active, std::size_t spares,
                                 std::uint64_t plans, std::size_t per_plan,
                                 double state_bytes,
                                 std::uint64_t& candidates);

}  // namespace simbench
