// Microbenchmarks (google-benchmark) for the simulation substrate: event
// queue throughput, random streams, host re-planning and availability
// windows, a trial's platform and load set-up, load churn on idle hosts,
// link re-sharing, the swap planner, full small runs.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.hpp"
#include "load/onoff.hpp"
#include "net/shared_link.hpp"
#include "platform/cluster.hpp"
#include "platform/host.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "swap/planner.hpp"
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

// The hold model at a fixed depth: pop the earliest event, run it, schedule
// one more.  The callback captures one pointer, like the engine's hot ones.
// 32 and 1024 are about paper_grid's and scale_comm's queue depths.  It pops
// without peek(): each schedule() refills the root the pop() left vacant,
// so the front stays live.
static void BM_EventQueueHold(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> gaps(4096);
  for (double& gap : gaps)
    gap = rng.exponential_mean(static_cast<double>(depth));
  sim::EventQueue q;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i)
    (void)q.schedule(gaps[i], [&fired] { ++fired; });
  std::size_t next = depth;
  for (auto _ : state) {
    auto [t, cb] = q.pop();
    cb();
    (void)q.schedule(t + gaps[next++ % gaps.size()], [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(32)->Arg(1024);

// The engine's hold: `depth` objects each reschedule themselves through
// Simulator::after with a [this] callback and BM_EventQueueHold's gaps, and
// run_until drives them (peek, pop, fire) as it drives a trial.  One event
// fires per unit of simulated time on average, so an iteration's window
// fires about 64.  Items are fired events.
static void BM_SimulatorHold(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> gaps(4096);
  for (double& gap : gaps)
    gap = rng.exponential_mean(static_cast<double>(depth));
  struct Holder {
    sim::Simulator* simulator;
    const std::vector<double>* gaps;
    std::size_t* next;
    void fire() {
      const double gap = (*gaps)[(*next)++ % gaps->size()];
      (void)simulator->after(gap, [this] { fire(); });
    }
  };
  sim::Simulator s;
  std::size_t next = 0;
  std::vector<Holder> holders(depth, Holder{&s, &gaps, &next});
  for (Holder& holder : holders) holder.fire();
  for (auto _ : state) {
    s.run_until(s.now() + 64.0);
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(s.events_fired()));
}
BENCHMARK(BM_SimulatorHold)->Arg(32)->Arg(1024);

// FairShare::rerate's pattern under load churn: each busy host's load flip
// schedules the next flip, then cancels the host's completion event and
// reschedules it.  Items are fired events; every one moves a completion.
static void BM_EventQueueCancelChurn(benchmark::State& state) {
  struct BusyHost {
    sim::Simulator* simulator;
    double period;
    sim::EventHandle completion;
    void flip() {
      (void)simulator->after(period, [this] { flip(); });
      completion.cancel();
      completion = simulator->after(1.5 * period, [] {});
    }
  };
  sim::Simulator s;
  std::vector<BusyHost> hosts;
  for (std::size_t i = 0; i < 32; ++i)
    hosts.push_back(
        BusyHost{&s, 1.0 + 0.37 * static_cast<double>(i % 11), {}});
  for (BusyHost& host : hosts) (void)s.after(0.0, [&host] { host.flip(); });
  for (auto _ : state) s.run_until(s.now() + 100.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(s.events_fired()));
}
BENCHMARK(BM_EventQueueCancelChurn);

// A fresh stream and its first draws.  A trial builds one stream per host
// for its load, and an ON/OFF source draws twice before the first event.
static void BM_RngFirstDraw(benchmark::State& state) {
  const auto draws = state.range(0);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    sim::Rng rng(1, stream++);
    std::uint64_t sum = 0;
    for (std::int64_t i = 0; i < draws; ++i) sum += rng.next_u64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngFirstDraw)->Arg(1)->Arg(2)->Arg(400);

static void BM_RngDraw(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraw);

// A trial's platform and load set-up: a cluster with random speeds, then an
// ON/OFF source on every host.  Items are hosts.
static void BM_LoadAttach(benchmark::State& state) {
  pf::ClusterSpec spec;
  spec.host_count = static_cast<std::size_t>(state.range(0));
  const simsweep::load::OnOffModel model(
      simsweep::load::OnOffParams::dynamism(0.2));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng platform_rng(seed, 0);
    pf::Cluster cluster(s, spec, platform_rng);
    const auto sources =
        simsweep::load::LoadModel::attach_all(model, s, cluster, seed++);
    benchmark::DoNotOptimize(sources.data());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_LoadAttach)->Arg(32)->Arg(1024);

// The path of most of paper_grid's events: ON/OFF load flips on hosts that
// run no task.  A cluster with load at dynamism 0.2 runs 24 simulated
// hours; set-up is not timed.  Items are fired events.
static void BM_IdleLoadChurn(benchmark::State& state) {
  pf::ClusterSpec spec;
  spec.host_count = static_cast<std::size_t>(state.range(0));
  const simsweep::load::OnOffModel model(
      simsweep::load::OnOffParams::dynamism(0.2));
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator s;
    sim::Rng platform_rng(seed, 0);
    pf::Cluster cluster(s, spec, platform_rng);
    const auto sources =
        simsweep::load::LoadModel::attach_all(model, s, cluster, seed++);
    state.ResumeTiming();
    s.run_until(24.0 * 3600.0);
    events += s.events_fired();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_IdleLoadChurn)->Arg(32)->Arg(1024);

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

// An estimator's window over a host's load history: the last 60 s of a
// history of `samples` one-second load changes.
static void BM_MeanAvailability(benchmark::State& state) {
  const auto samples = static_cast<int>(state.range(0));
  sim::Simulator s;
  pf::Host h(s, 0, 1.0e8, "bench");
  for (int i = 1; i <= samples; ++i)
    (void)s.at(static_cast<double>(i), [&h, i] {
      h.set_external_load(i % 3);
    });
  s.run();
  const double end = s.now();
  double offset = 0.0;
  for (auto _ : state) {
    offset = offset < 0.9 ? offset + 0.01 : 0.0;
    benchmark::DoNotOptimize(
        h.mean_availability(end - 60.0 - offset, end - offset));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeanAvailability)->Arg(256)->Arg(16384);

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

// One greedy planning round over `n` active processes and `n` spares with
// random speeds, as at a SWAP boundary with 100% over-allocation.  Items
// are candidates examined.
static void BM_EvaluateSwaps(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<simsweep::swap::ActiveProcess> active(n);
  std::vector<simsweep::swap::HostEstimate> spares(n);
  for (std::size_t i = 0; i < n; ++i) {
    active[i] = {i, static_cast<std::uint32_t>(i), rng.uniform(1e8, 5e8), 1e10};
    spares[i] = {static_cast<std::uint32_t>(n + i), rng.uniform(1e8, 5e8)};
  }
  simsweep::swap::PlanContext ctx;
  ctx.measured_iter_time_s = simsweep::swap::predict_iteration_time(active, 0.0);
  ctx.state_bytes = 1 << 20;
  ctx.link_bandwidth_Bps = 6.0e6;
  const auto policy = simsweep::swap::greedy_policy();
  std::size_t considered = 0;
  for (auto _ : state) {
    const auto plan =
        simsweep::swap::evaluate_swaps(policy, active, spares, ctx);
    considered += plan.considered.size();
    benchmark::DoNotOptimize(plan.decisions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(considered));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EvaluateSwaps)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

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
