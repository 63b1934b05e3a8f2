#include "runner/replay.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "net/shared_link.hpp"
#include "platform/host.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "swap/planner.hpp"

namespace simbench {

namespace ss = simsweep;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double replay_simcore(std::uint64_t events, std::size_t depth,
                      std::uint64_t seed) {
  depth = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(depth, 1, std::max<std::uint64_t>(events, 1)));
  ss::sim::Simulator simulator;
  ss::sim::Rng rng(seed, /*stream=*/3);
  std::uint64_t remaining = events > depth ? events - depth : 0;
  std::function<void()> hop;
  hop = [&] {
    if (remaining == 0) return;
    --remaining;
    simulator.after(rng.exponential_mean(1.0), hop);
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < depth; ++i)
    simulator.after(rng.exponential_mean(1.0), hop);
  simulator.run();
  return seconds_since(start);
}

double replay_platform(std::uint64_t changes, double step_s) {
  constexpr double kPeak = 300.0e6;
  ss::sim::Simulator simulator;
  ss::platform::Host host(simulator, 0, kPeak, "replay");
  // A task lasts a few load steps, so completions and restarts interleave
  // with the load changes the way an application's iterations do.
  const double work = kPeak * step_s * 4.0;
  std::shared_ptr<ss::platform::ComputeTask> task;
  std::function<void()> restart;
  restart = [&] { task = host.start_compute(work, restart); };
  restart();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < changes; ++i) {
    host.set_external_load(static_cast<int>(i & 1U));
    simulator.run_until(simulator.now() + step_s);
  }
  return seconds_since(start);
}

double replay_load(const ss::load::LoadModel& model,
                   const ss::platform::ClusterSpec& spec, std::uint64_t seed,
                   double horizon_s) {
  ss::sim::Simulator simulator;
  ss::sim::Rng platform_rng(seed, /*stream=*/0);
  ss::platform::Cluster cluster(simulator, spec, platform_rng);
  const Clock::time_point start = Clock::now();
  const auto sources = ss::load::LoadModel::attach_all(
      model, simulator, cluster, ss::sim::derive_seed(seed, 1));
  simulator.run_until(horizon_s);
  return seconds_since(start);
}

double replay_net(const std::vector<FlowStart>& flows,
                  const ss::platform::LinkSpec& link) {
  ss::sim::Simulator simulator;
  ss::net::SharedLinkNetwork network(simulator, link);
  // Callers own their flows (the link only holds admitted ones), so the
  // replay keeps every handle alive as the executors do.
  std::vector<std::shared_ptr<ss::net::Flow>> live;
  live.reserve(flows.size());
  std::size_t next = 0;
  // One pending starter event at a time, as in a real run where the next
  // burst is scheduled by the application, not queued up front.
  std::function<void()> start_burst;
  start_burst = [&] {
    const double now = simulator.now();
    while (next < flows.size() && flows[next].time_s <= now)
      live.push_back(network.start_transfer(flows[next++].bytes, {}));
    if (next < flows.size()) simulator.at(flows[next].time_s, start_burst);
  };
  const Clock::time_point start = Clock::now();
  if (!flows.empty()) simulator.at(flows.front().time_s, start_burst);
  simulator.run();
  return seconds_since(start);
}

double replay_swap(std::size_t active, std::size_t spares, std::uint64_t plans,
                   std::size_t per_plan, double state_bytes,
                   std::uint64_t& candidates) {
  constexpr double kSlow = 100.0e6;
  // Equal active processes and `accepted` spares twice as fast: greedy takes
  // every fast spare, then stops at the first slower one.
  const std::size_t accepted =
      std::min({per_plan > 0 ? per_plan - 1 : 0, active, spares});
  std::vector<ss::swap::ActiveProcess> procs(active);
  for (std::size_t i = 0; i < active; ++i)
    procs[i] = {.slot = i,
                .host = static_cast<std::uint32_t>(i),
                .est_speed = kSlow,
                .chunk_flops = kSlow * 120.0};
  std::vector<ss::swap::HostEstimate> idle(spares);
  for (std::size_t i = 0; i < spares; ++i)
    idle[i] = {.host = static_cast<std::uint32_t>(active + i),
               .est_speed = i < accepted ? 2.0 * kSlow : 0.5 * kSlow};
  const ss::platform::LinkSpec link;
  const ss::swap::PlanContext ctx{.measured_iter_time_s = 120.0,
                                  .state_bytes = state_bytes,
                                  .link_latency_s = link.latency_s,
                                  .link_bandwidth_Bps = link.bandwidth_Bps,
                                  .comm_time_s = 0.0,
                                  .adaptation_cost_s = std::nullopt};
  const ss::swap::PolicyParams policy = ss::swap::greedy_policy();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t p = 0; p < plans; ++p)
    candidates +=
        ss::swap::evaluate_swaps(policy, procs, idle, ctx).considered.size();
  return seconds_since(start);
}

}  // namespace simbench
