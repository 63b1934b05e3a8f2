// Microbenchmarks (google-benchmark) for the simulation substrate: event
// queue throughput, host re-planning, link re-sharing, full small runs.
#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "load/onoff.hpp"
#include "net/shared_link.hpp"
#include "platform/host.hpp"
#include "simcore/simulator.hpp"
#include "swap/policy.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace net = simsweep::net;
namespace core = simsweep::core;
namespace app = simsweep::app;

static void BM_EventQueueScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    for (std::size_t i = 0; i < n; ++i)
      (void)s.after(static_cast<double>(i % 97), [] {});
    s.run();
    benchmark::DoNotOptimize(s.events_fired());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(100000);

static void BM_EventQueueSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    std::size_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) (void)s.after(1.0, tick);
    };
    (void)s.after(1.0, tick);
    s.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_EventQueueSelfScheduling);

static void BM_HostReplanUnderLoadChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    pf::Host h(s, 0, 1.0e8, "bench");
    auto task = h.start_compute(1.0e12, [] {});
    for (int i = 1; i <= 5000; ++i)
      (void)s.at(static_cast<double>(i), [&h, i] {
        h.set_external_load(i % 3);
      });
    s.run_until(5001.0);
    benchmark::DoNotOptimize(task->remaining());
  }
  state.SetItemsProcessed(5000 * state.iterations());
}
BENCHMARK(BM_HostReplanUnderLoadChurn);

static void BM_LinkReshare(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    net::SharedLinkNetwork n(s, pf::LinkSpec{1e-4, 6.0e6});
    std::size_t done = 0;
    std::vector<std::shared_ptr<net::Flow>> live;
    for (std::size_t i = 0; i < flows; ++i)
      live.push_back(n.start_transfer(1.0e6 + static_cast<double>(i),
                                      [&done] { ++done; }));
    s.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) *
                          state.iterations());
  state.SetComplexityN(static_cast<std::int64_t>(flows));
}
// Complexity() prints the big-O fitted over the four flow counts.
BENCHMARK(BM_LinkReshare)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

static void BM_FullSwapRun(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.cluster.host_count = 32;
  cfg.app = app::AppSpec::with_iteration_minutes(4, 30, 2.0);
  cfg.app.state_bytes_per_process = app::kMiB;
  cfg.spare_count = 28;
  const simsweep::load::OnOffModel model(
      simsweep::load::OnOffParams::dynamism(0.2));
  simsweep::strategy::SwapStrategy strategy{simsweep::swap::greedy_policy()};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    const auto r = core::run_single(cfg, model, strategy);
    benchmark::DoNotOptimize(r.makespan_s);
  }
}
BENCHMARK(BM_FullSwapRun);

BENCHMARK_MAIN();
