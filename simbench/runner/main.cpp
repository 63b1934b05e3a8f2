// simbench: runs one benchmark workload through the simsweep library and
// prints its end-to-end metrics (--trace 0) or per-layer metrics (--trace 1)
// as the last line of standard output, one JSON object.
//
//   simbench --dir <simbench dir> --workload <name> [--seed N]
//            [--seconds S] [--trace 0|1] [--record]
//
// Every invocation runs, in order: a serial warm-up pass (peak memory),
// repeated set-up passes (construction spans), one traced pass (metrics
// registry on, audit in fail mode, serial), a composition self-check (one
// trial per cell assembled call by call must match run_single bitwise), and
// then alternating plain and observed passes for --seconds.  --trace 1 adds
// one round of single-layer replays after each timed pair.  --record writes
// the reference makespans for the default seed and exits.
//
// Exit status: 0 when every check passed, 1 when a check failed (the result
// line is still printed, with "correct": false), 2 on a usage or set-up error
// (no result line).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/replay.hpp"
#include "runner/workload.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "scenario/scenario.hpp"

namespace {

namespace ss = simsweep;
using simbench::Item;
using simbench::Mode;
using simbench::Outcome;
using simbench::Workload;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string dir;
  std::string workload;
  std::uint64_t seed = simbench::kDefaultSeed;
  double seconds = 40.0;
  bool trace = false;
  bool record = false;

  [[nodiscard]] std::string scenario_dir() const { return dir + "/workloads"; }
  [[nodiscard]] std::string reference_path() const {
    return dir + "/reference/" + workload + ".tsv";
  }
  [[nodiscard]] Workload load() const {
    return simbench::load_workload(workload, scenario_dir(), seed);
  }
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      opt.record = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--dir") {
      opt.dir = value;
    } else if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (opt.dir.empty() || opt.workload.empty())
    throw std::invalid_argument("--dir and --workload are required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

/// Peak resident set size of this process so far, in MB.  Read from
/// VmHWM, which execve resets; getrusage's ru_maxrss would still include
/// the peak of the parent that forked this process.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Trial accounting plus every failed check, for the report.
class Tally {
 public:
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void trial_failed(const std::string& why) {
    ++failed;
    note(why);
  }
  void check_failed(const std::string& why) {
    checks_ok_ = false;
    note(why);
  }
  [[nodiscard]] bool correct() const { return checks_ok_ && failed == 0; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  void note(const std::string& why) {
    if (problems_.size() < 20) problems_.push_back(why);
  }
  bool checks_ok_ = true;
  std::vector<std::string> problems_;
};

/// Counts `outcomes` as attempted and fails every trial that threw or whose
/// makespan is not bitwise the traced pass's.
void check_pass(const Workload& w, const std::vector<Outcome>& outcomes,
                const std::vector<Outcome>& traced, const char* pass,
                Tally& tally) {
  tally.attempted += outcomes.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::string where = std::string(pass) + " " + w.key(w.items[i]);
    if (outcomes[i].failed)
      tally.trial_failed(where + ": " + outcomes[i].error);
    else if (!traced[i].failed && outcomes[i].makespan_s != traced[i].makespan_s)
      tally.trial_failed(where + ": makespan differs from the traced pass");
  }
}

std::uint64_t counter(const Outcome& o, std::string_view name) {
  return o.metrics ? o.metrics->counter_value(name) : 0;
}

std::uint64_t counter_sum(const std::vector<Outcome>& outcomes,
                          std::string_view name) {
  std::uint64_t total = 0;
  for (const Outcome& o : outcomes) total += counter(o, name);
  return total;
}

/// Sum of every counter whose name starts with `prefix` (labelled series).
std::uint64_t counter_prefix_sum(const std::vector<Outcome>& outcomes,
                                 const std::string& prefix) {
  std::uint64_t total = 0;
  for (const Outcome& o : outcomes)
    if (o.metrics)
      for (const std::string& name : o.metrics->counter_names())
        if (name.rfind(prefix, 0) == 0) total += o.metrics->counter_value(name);
  return total;
}

// ---------------------------------------------------------------- stages

/// Per-pass host seconds of each construction span (set-up passes).
struct SetupSamples {
  std::vector<double> total, scenario, cluster, attach, launch;
};

/// Builds every trial of the workload up to its first event, repeatedly for
/// about two seconds (at least five passes), timing each public call.
SetupSamples setup_passes(const Options& opt) {
  SetupSamples out;
  const Clock::time_point start = Clock::now();
  while (out.total.size() < 5 ||
         (seconds_since(start) < 2.0 && out.total.size() < 400)) {
    simbench::SetupSpans spans;
    const Clock::time_point t = Clock::now();
    const Workload w = opt.load();
    spans.scenario_s = seconds_since(t);
    for (const Item& item : w.items) {
      const ss::core::ExperimentConfig config = w.trial_config(item);
      const ss::scenario::Cell& cell = w.cell(item);
      // Built and torn down; only the construction calls are timed.
      const simbench::ComposedTrial trial(config, *cell.model, *cell.strategy,
                                          spans, nullptr);
    }
    out.total.push_back(spans.total());
    out.scenario.push_back(spans.scenario_s);
    out.cluster.push_back(spans.cluster_s);
    out.attach.push_back(spans.attach_s);
    out.launch.push_back(spans.launch_s);
  }
  return out;
}

/// At the default seed, every traced makespan must match the recorded one
/// to 1e-9 relative.  A miss fails that trial.
void check_reference(const Options& opt, const Workload& w,
                     const std::vector<Outcome>& traced, Tally& tally) {
  std::map<std::string, double> reference;
  for (const auto& [key, value] : simbench::read_reference(opt.reference_path()))
    reference.emplace(key, value);
  if (reference.size() != traced.size())
    tally.check_failed(opt.reference_path() + " holds " +
                       std::to_string(reference.size()) + " makespans for " +
                       std::to_string(traced.size()) + " trials");
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i].failed) continue;  // already counted
    const std::string key = w.key(w.items[i]);
    const auto it = reference.find(key);
    const double got = traced[i].makespan_s;
    if (it == reference.end())
      tally.trial_failed("reference " + key + ": not recorded");
    else if (std::abs(got - it->second) > 1e-9 * std::abs(it->second))
      tally.trial_failed("reference " + key + ": makespan " +
                         std::to_string(got) + " vs recorded " +
                         std::to_string(it->second));
  }
}

/// The flow schedules the composed trials started, for the net replay.
struct ComposedFlows {
  std::vector<std::pair<std::vector<simbench::FlowStart>, std::size_t>> sets;
  std::uint64_t counted = 0;  ///< traced net.flows_completed of those trials
};

/// Trial 0 of every cell, built from the same public calls as run_single,
/// must reproduce the traced makespan and event count bitwise.  With
/// `keep_flows` its timeline also yields the flow schedule, whose size must
/// match the traced flow count.
ComposedFlows check_composition(const Workload& w,
                                const std::vector<Outcome>& traced,
                                bool keep_flows, Tally& tally) {
  ComposedFlows out;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const Item& item = w.items[i];
    if (item.trial != 0 || traced[i].failed) continue;
    const std::string where = "composed " + w.key(item);
    ss::core::ExperimentConfig config = w.trial_config(item);
    config.audit = ss::audit::AuditMode::kFail;
    const ss::scenario::Cell& cell = w.cell(item);
    ss::obs::TimelineTracer timeline;
    simbench::SetupSpans unused;
    ss::strategy::RunResult result;
    std::uint64_t events = 0;
    try {
      simbench::ComposedTrial trial(config, *cell.model, *cell.strategy,
                                    unused, keep_flows ? &timeline : nullptr);
      result = trial.run();
      events = trial.events_fired();
    } catch (const std::exception& e) {
      tally.check_failed(where + ": " + e.what());
      continue;
    }
    if (result.makespan_s != traced[i].makespan_s ||
        events != counter(traced[i], "sim.events_fired"))
      tally.check_failed(where +
                         ": makespan or event count differs from run_single");
    if (!keep_flows) continue;
    std::vector<simbench::FlowStart> flows;
    for (const auto& ev : timeline.sorted_events()) {
      if (ev.category != "net" || ev.name != "flow") continue;
      double bytes = 0.0;
      for (const auto& [name, value] : ev.args)
        if (name == "bytes") bytes = value;
      flows.push_back({ev.begin_s, bytes});
    }
    const std::uint64_t counted = counter(traced[i], "net.flows_completed");
    if (flows.size() != counted)
      tally.check_failed(where + ": timeline holds " +
                         std::to_string(flows.size()) +
                         " flows, traced pass counted " +
                         std::to_string(counted));
    out.counted += counted;
    out.sets.emplace_back(std::move(flows), i);
  }
  return out;
}

struct TimedPasses {
  std::vector<double> plain_s, observed_s;
};

/// Plain and observed passes alternate, so both see the same machine
/// conditions, for `opt.seconds` and at least three pairs; `after_pair`
/// (may be empty) runs after each pair.  Each pass loads and materializes
/// the scenarios again, as a user's `bench` invocation would.  The second
/// plain pass (the first runs on a cold pool) also feeds `profiler`, at the
/// cost of a few clock reads per trial.  Every pass must reproduce the
/// traced makespans, and every observed pass its counts.
TimedPasses timed_passes(const Options& opt, ss::core::TrialRunner& runner,
                         ss::obs::TrialProfiler& profiler,
                         const std::vector<Outcome>& traced,
                         const std::string& traced_json,
                         const std::function<void()>& after_pair,
                         Tally& tally) {
  TimedPasses out;
  const Clock::time_point start = Clock::now();
  while (out.plain_s.size() < 3 || seconds_since(start) < opt.seconds) {
    Clock::time_point t = Clock::now();
    const Workload pw = opt.load();
    runner.set_profiler(out.plain_s.size() == 1 ? &profiler : nullptr);
    const auto plain = simbench::run_workload(pw, Mode::kPlain, runner);
    out.plain_s.push_back(seconds_since(t));
    runner.set_profiler(nullptr);
    check_pass(pw, plain, traced, "plain", tally);

    t = Clock::now();
    const Workload ow = opt.load();
    const auto observed = simbench::run_workload(ow, Mode::kObserved, runner);
    out.observed_s.push_back(seconds_since(t));
    check_pass(ow, observed, traced, "observed", tally);
    if (simbench::merged_metrics_json(observed) != traced_json)
      tally.check_failed("observed pass counts differ from the traced pass");
    if (after_pair) after_pair();
  }
  return out;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run measured, for the metric functions.
struct Measured {
  std::size_t jobs = 1;
  double peak_rss_mb = 0.0;
  SetupSamples setup;
  std::vector<Outcome> traced;
  std::string traced_json;
  ComposedFlows composed;
  TimedPasses timed;

  [[nodiscard]] double wall_s() const { return median(timed.plain_s); }
  [[nodiscard]] double observed_wall_s() const {
    return median(timed.observed_s);
  }
  [[nodiscard]] double events() const {
    return static_cast<double>(counter_sum(traced, "sim.events_fired"));
  }
};

std::vector<Metric> end_to_end_metrics(const Measured& m) {
  return {
      {"wall_s", "s", m.wall_s()},
      {"events_per_s", "1/s", ratio(m.events(), m.wall_s())},
      {"setup_s", "s", median(m.setup.total)},
      {"observed_wall_s", "s", m.observed_wall_s()},
      {"peak_rss_mb", "MB", m.peak_rss_mb},
  };
}

/// The single-layer replays, sized once from the traced pass.  sample()
/// runs each once; in --trace 1 mode that happens after every timed pair,
/// so replay times and pass times see the same machine conditions and are
/// compared as medians.
class ReplayPlan {
 public:
  ReplayPlan(const Workload& w, const Measured& m, std::uint64_t seed)
      : w_(w), m_(m), seed_(seed) {
    // simcore: a hold model at the traced event-weighted mean queue depth,
    // firing as many events as the workload did.
    double depth_weighted = 0.0;
    for (const Outcome& o : m.traced)
      if (o.metrics)
        if (const auto g = o.metrics->gauge_snapshot("sim.queue_depth_mean"))
          depth_weighted +=
              g->last * static_cast<double>(counter(o, "sim.events_fired"));
    events_ = static_cast<std::uint64_t>(m.events());
    depth_ = static_cast<std::size_t>(
        std::llround(ratio(depth_weighted, m.events())));
    load_changes_ = counter_sum(m.traced, "platform.load_changes");

    // load: every trial runs to its cell's mean traced makespan.
    std::map<std::pair<std::size_t, std::size_t>, std::pair<double, double>>
        cell_makespan;  // (scenario, cell) -> (sum, trials)
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      auto& [sum, n] = cell_makespan[{w.items[i].scenario, w.items[i].cell}];
      sum += m.traced[i].makespan_s;
      n += 1.0;
    }
    for (const Item& item : w.items) {
      const auto& [sum, n] = cell_makespan[{item.scenario, item.cell}];
      load_horizon_s_.push_back(sum / n);
    }

    // net: scale the composed trials' flows up to every trial's.
    net_scale_ = ratio(
        static_cast<double>(counter_sum(m.traced, "net.flows_completed")),
        static_cast<double>(m.composed.counted));

    // swap: per cell, as many planning rounds as counted, each weighing the
    // counted mean number of candidates.
    std::map<std::pair<std::size_t, std::size_t>,
             std::pair<std::uint64_t, std::uint64_t>>
        cell_plans;  // (scenario, cell) -> (plans, candidates)
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      auto& [plans, cands] = cell_plans[{w.items[i].scenario, w.items[i].cell}];
      plans += counter(m.traced[i], "swap.plans");
      cands += counter(m.traced[i], "swap.candidates_evaluated");
    }
    for (const auto& [key, counts] : cell_plans)
      if (counts.first != 0)
        swap_cells_.push_back({&w.scenarios[key.first].grid.cells[key.second],
                               counts.first,
                               static_cast<std::size_t>(std::llround(
                                   static_cast<double>(counts.second) /
                                   static_cast<double>(counts.first)))});
  }

  void sample() {
    simcore_s_.push_back(simbench::replay_simcore(events_, depth_, seed_));
    platform_s_.push_back(simbench::replay_platform(
        load_changes_, w_.scenarios.front().spec.load.step_s));

    double load_s = 0.0;
    for (std::size_t i = 0; i < w_.items.size(); ++i) {
      const ss::scenario::Cell& cell = w_.cell(w_.items[i]);
      load_s += simbench::replay_load(*cell.model, cell.config.cluster,
                                      w_.trial_config(w_.items[i]).seed,
                                      load_horizon_s_[i]);
    }
    load_s_.push_back(load_s);

    double net_s = 0.0;
    for (const auto& [flows, i] : m_.composed.sets)
      net_s += simbench::replay_net(flows,
                                    w_.cell(w_.items[i]).config.cluster.link);
    net_s_.push_back(net_s * net_scale_);

    double swap_s = 0.0;
    swap_candidates_ = 0;
    for (const SwapCell& c : swap_cells_)
      swap_s += simbench::replay_swap(
          c.cell->config.app.active_processes, c.cell->config.spare_count,
          c.plans, c.per_plan, c.cell->config.app.state_bytes_per_process,
          swap_candidates_);
    swap_s_.push_back(swap_s);
  }

  [[nodiscard]] double simcore_ns_per_event() const {
    return 1e9 * ratio(median(simcore_s_), static_cast<double>(events_));
  }
  [[nodiscard]] double platform_ns_per_change() const {
    return 1e9 * ratio(median(platform_s_), static_cast<double>(load_changes_));
  }
  [[nodiscard]] double load_s() const { return median(load_s_); }
  [[nodiscard]] double net_s() const { return median(net_s_); }
  [[nodiscard]] double swap_ns_per_candidate() const {
    return 1e9 * ratio(median(swap_s_), static_cast<double>(swap_candidates_));
  }

 private:
  struct SwapCell {
    const ss::scenario::Cell* cell;
    std::uint64_t plans;
    std::size_t per_plan;
  };

  const Workload& w_;
  const Measured& m_;
  std::uint64_t seed_;
  std::uint64_t events_ = 0;
  std::size_t depth_ = 0;
  std::uint64_t load_changes_ = 0;
  std::vector<double> load_horizon_s_;  ///< per item
  double net_scale_ = 0.0;
  std::vector<SwapCell> swap_cells_;
  std::uint64_t swap_candidates_ = 0;  ///< weighed by one sample
  std::vector<double> simcore_s_, platform_s_, load_s_, net_s_, swap_s_;
};

std::vector<Metric> layer_metrics(const Measured& m, const ReplayPlan& replays,
                                  const ss::obs::TrialProfiler& profiler,
                                  const Tally& tally) {
  const std::vector<Outcome>& traced = m.traced;
  const double events = m.events();
  const double load_changes =
      static_cast<double>(counter_sum(traced, "platform.load_changes"));
  const double flows =
      static_cast<double>(counter_sum(traced, "net.flows_started"));
  const double reshares =
      static_cast<double>(counter_sum(traced, "net.reshare_passes"));
  const double candidates =
      static_cast<double>(counter_sum(traced, "swap.candidates_evaluated"));

  std::size_t depth_max = 0, adaptations = 0, recoveries = 0;
  for (const Outcome& o : traced) {
    if (o.metrics)
      if (const auto g = o.metrics->gauge_snapshot("sim.queue_depth_max"))
        depth_max = std::max(depth_max, static_cast<std::size_t>(g->max));
    adaptations += o.adaptations;
    recoveries += o.recoveries;
  }

  std::vector<double> task_ms, wait_ms;
  for (const auto& r : profiler.records()) {
    task_ms.push_back(1e3 * (r.end_s - r.begin_s));
    wait_ms.push_back(1e3 * std::max(0.0, r.begin_s - r.submitted_s));
  }
  const auto report = profiler.report();
  double busy_s = 0.0;
  for (const auto& worker : report.workers) busy_s += worker.busy_s;
  const double utilization =
      ratio(busy_s, static_cast<double>(m.jobs) * report.wall_s);
  // Host seconds the pool's workers spent in trials during one plain pass:
  // wall_s itself on a serial workload.  The replays run serially, so their
  // shares are taken of this, not of a pooled wall time.
  const double trial_host_s =
      m.wall_s() * static_cast<double>(m.jobs) * utilization;

  const double net_s = replays.net_s();

  return {
      {"simcore.events", "count", events},
      {"simcore.queue_depth_max", "count", static_cast<double>(depth_max)},
      {"simcore.replay_ns_per_event", "ns", replays.simcore_ns_per_event()},
      {"platform.load_changes", "count", load_changes},
      {"platform.replay_ns_per_change", "ns", replays.platform_ns_per_change()},
      {"platform.cluster_build_s", "s", median(m.setup.cluster)},
      {"load.attach_s", "s", median(m.setup.attach)},
      {"load.replay_s", "s", replays.load_s()},
      {"net.flows", "count", flows},
      {"net.reshare_passes", "count", reshares},
      {"net.reshares_per_flow", "ratio", ratio(reshares, flows)},
      {"net.replay_s", "s", net_s},
      {"net.share", "ratio", ratio(net_s, trial_host_s)},
      {"swap.candidates_evaluated", "count", candidates},
      {"swap.accept_ratio", "ratio",
       ratio(static_cast<double>(
                 counter_sum(traced, "swap.candidates_accepted")),
             candidates)},
      {"swap.replay_ns_per_candidate", "ns", replays.swap_ns_per_candidate()},
      {"strategy.launch_s", "s", median(m.setup.launch)},
      {"strategy.adaptations", "count", static_cast<double>(adaptations)},
      {"strategy.recoveries", "count", static_cast<double>(recoveries)},
      {"fault.injections", "count",
       static_cast<double>(counter_prefix_sum(traced, "fault.injections"))},
      {"core.trial_p50_ms", "ms", percentile(task_ms, 0.50)},
      {"core.trial_p99_ms", "ms", percentile(task_ms, 0.99)},
      {"core.queue_wait_p50_ms", "ms", percentile(wait_ms, 0.50)},
      {"core.worker_utilization", "ratio", utilization},
      {"obs.metrics_overhead", "ratio",
       ratio(m.observed_wall_s(), m.wall_s()) - 1.0},
      {"obs.metrics_bytes", "bytes", static_cast<double>(m.traced_json.size())},
      {"scenario.load_s", "s", median(m.setup.scenario)},
      {"error_rate", "ratio",
       ratio(static_cast<double>(tally.failed),
             static_cast<double>(tally.attempted))},
  };
}

void print_summary(const Options& opt, const Workload& w, const Measured& m,
                   const std::vector<Metric>& metrics, const Tally& tally) {
  std::cerr << "simbench: workload " << opt.workload << ", seed " << opt.seed
            << ", " << w.items.size() << " trials per pass, " << m.jobs
            << (m.jobs == 1 ? " worker" : " workers") << ", "
            << m.setup.total.size() << " set-up passes\n  plain passes (s):";
  for (const double t : m.timed.plain_s) std::cerr << ' ' << t;
  std::cerr << "\n  observed passes (s):";
  for (const double t : m.timed.observed_s) std::cerr << ' ' << t;
  std::cerr << '\n';
  for (const Metric& metric : metrics)
    std::cerr << "  " << metric.name << " = " << metric.value << ' '
              << metric.unit << '\n';
  for (const std::string& p : tally.problems())
    std::cerr << "simbench: check failed: " << p << '\n';
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.correct() ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    ss::obs::write_json_string(os, metrics[i].name);
    os << ": {\"value\": ";
    ss::obs::write_json_number(os, metrics[i].value);
    os << ", \"unit\": ";
    ss::obs::write_json_string(os, metrics[i].unit);
    os << '}';
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------- modes

int record_reference(const Options& opt) {
  if (opt.seed != simbench::kDefaultSeed)
    throw std::invalid_argument("--record writes references for the default "
                                "seed only");
  const Workload w = opt.load();
  ss::core::TrialRunner serial(1);
  const auto traced = simbench::run_workload(w, Mode::kTraced, serial);
  simbench::ReferenceTable table;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i].failed)
      throw std::runtime_error(w.key(w.items[i]) + ": " + traced[i].error);
    table.emplace_back(w.key(w.items[i]), traced[i].makespan_s);
  }
  simbench::write_reference(opt.reference_path(), table);
  std::cerr << "simbench: wrote " << table.size() << " makespans to "
            << opt.reference_path() << '\n';
  return 0;
}

int run(const Options& opt) {
  // Audited passes are requested explicitly; an inherited SIMSWEEP_AUDIT
  // would silently audit the timed passes too.
  ::unsetenv("SIMSWEEP_AUDIT");
  if (opt.record) return record_reference(opt);

  const Workload w = opt.load();
  Measured m;
  if (w.pooled)
    m.jobs = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  ss::core::TrialRunner runner(m.jobs);
  ss::core::TrialRunner serial(1);
  Tally tally;

  // Warm-up pass, serial, first thing in a fresh process: fills caches and
  // gives the peak resident memory of a process that ran only this workload.
  // Serial because per-thread malloc arenas would make a pooled peak vary
  // from run to run.
  const std::vector<Outcome> warm =
      simbench::run_workload(w, Mode::kPlain, serial);
  m.peak_rss_mb = peak_rss_mb();

  m.setup = setup_passes(opt);

  // Traced pass: the source of every count.  Serial, so on paper_grid the
  // counts of the pooled observed passes are checked against a 1-worker run.
  m.traced = simbench::run_workload(w, Mode::kTraced, serial);
  m.traced_json = simbench::merged_metrics_json(m.traced);
  check_pass(w, m.traced, m.traced, "traced", tally);
  check_pass(w, warm, m.traced, "warm-up", tally);
  // Away from the default seed there is no reference: the composition
  // self-check and the audit stand in for it.
  if (opt.seed == simbench::kDefaultSeed)
    check_reference(opt, w, m.traced, tally);
  m.composed = check_composition(w, m.traced, opt.trace, tally);

  ss::obs::TrialProfiler profiler;
  ReplayPlan replays(w, m, opt.seed);
  std::function<void()> after_pair;
  if (opt.trace) after_pair = [&replays] { replays.sample(); };
  m.timed = timed_passes(opt, runner, profiler, m.traced, m.traced_json,
                         after_pair, tally);

  const std::vector<Metric> metrics =
      opt.trace ? layer_metrics(m, replays, profiler, tally)
                : end_to_end_metrics(m);
  print_summary(opt, w, m, metrics, tally);
  print_result(tally, metrics);
  return tally.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "simbench: " << e.what() << '\n';
    return 2;
  }
}
