#include "runner/workload.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace simbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct WorkloadDef {
  const char* name;
  std::vector<const char*> scenario_files;
  bool pooled;
};

// paper_grid is the paper's own traffic (many short 32-host runs, pooled as
// `simsweep bench` pools them); the two scale workloads are single long runs
// whose cost sits in the shared link and the planner.  README.md gives the
// measured shares behind each choice.
const std::vector<WorkloadDef>& definitions() {
  static const std::vector<WorkloadDef> defs = {
      {"paper_grid", {"fig4.json", "fig10.json"}, true},
      {"scale_comm", {"scale_comm.json"}, false},
      {"scale_adapt", {"scale_adapt.json"}, false},
  };
  return defs;
}

const WorkloadDef& definition(const std::string& name) {
  for (const WorkloadDef& def : definitions())
    if (name == def.name) return def;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

const ss::scenario::Cell& Workload::cell(const Item& item) const {
  return scenarios[item.scenario].grid.cells[item.cell];
}

ss::core::ExperimentConfig Workload::trial_config(const Item& item) const {
  ss::core::ExperimentConfig config = cell(item).config;
  config.seed += item.trial;
  return config;
}

std::string Workload::key(const Item& item) const {
  return scenarios[item.scenario].spec.name + '\t' + cell(item).label + '\t' +
         std::to_string(item.trial);
}

Workload load_workload(const std::string& name, const std::string& dir,
                       std::uint64_t seed) {
  const WorkloadDef& def = definition(name);
  Workload workload;
  workload.pooled = def.pooled;
  for (const char* file : def.scenario_files) {
    LoadedScenario loaded;
    loaded.spec = ss::scenario::load_scenario_file(dir + "/" + file);
    loaded.spec.seed = seed;
    loaded.grid = ss::scenario::materialize(loaded.spec);
    const std::size_t s = workload.scenarios.size();
    for (std::size_t c = 0; c < loaded.grid.cells.size(); ++c)
      for (std::size_t t = 0; t < loaded.grid.trials; ++t)
        workload.items.push_back(Item{s, c, t});
    workload.scenarios.push_back(std::move(loaded));
  }
  return workload;
}

std::vector<Outcome> run_workload(const Workload& workload, Mode mode,
                                  ss::core::TrialRunner& runner) {
  std::vector<Outcome> outcomes(workload.items.size());
  runner.parallel_for(workload.items.size(), [&](std::size_t i) {
    const Item& item = workload.items[i];
    const ss::scenario::Cell& cell = workload.cell(item);
    ss::core::ExperimentConfig config = workload.trial_config(item);
    config.obs.metrics = mode != Mode::kPlain;
    config.audit = mode == Mode::kTraced ? ss::audit::AuditMode::kFail
                                         : ss::audit::AuditMode::kOff;
    Outcome& out = outcomes[i];
    try {
      std::vector<ss::strategy::RunResult> results =
          ss::core::run_trials_results(config, *cell.model, *cell.strategy,
                                       /*trials=*/1, /*jobs=*/1);
      ss::strategy::RunResult& r = results.front();
      out.makespan_s = r.makespan_s;
      out.adaptations = r.adaptations;
      out.recoveries = r.failures.crash_recoveries;
      out.metrics = std::move(r.metrics);
    } catch (const std::exception& e) {
      // EventBudgetExceeded, RunCancelled and AuditFailure land here; the
      // trial counts as failed and the rest of the workload still runs.
      out.failed = true;
      out.error = e.what();
    }
  });
  return outcomes;
}

std::string merged_metrics_json(const std::vector<Outcome>& outcomes) {
  ss::obs::MetricsRegistry merged;
  for (const Outcome& o : outcomes)
    if (o.metrics) merged.merge_from(*o.metrics);
  std::ostringstream os;
  merged.write_json(os);
  return os.str();
}

ComposedTrial::ComposedTrial(const ss::core::ExperimentConfig& config,
                             const ss::load::LoadModel& model,
                             ss::strategy::Strategy& strat, SetupSpans& spans,
                             ss::obs::TimelineTracer* timeline)
    : config_(config),
      auditor_(config.audit != ss::audit::AuditMode::kOff
                   ? config.audit
                   : ss::audit::mode_from_env()),
      platform_rng_(config.seed, /*stream=*/0) {
  config.app.validate();
  config.faults.validate();
  if (auditor_.enabled()) simulator_.set_auditor(&auditor_);
  simulator_.set_event_budget(config.max_events);
  simulator_.set_cancel_flag(ss::core::TrialRunner::current_cancel_flag());
  simulator_.set_timeline(timeline);

  Clock::time_point t = Clock::now();
  cluster_ = std::make_unique<ss::platform::Cluster>(simulator_, config.cluster,
                                                     platform_rng_);
  spans.cluster_s += seconds_since(t);

  t = Clock::now();
  sources_ = ss::load::LoadModel::attach_all(
      model, simulator_, *cluster_, ss::sim::derive_seed(config.seed, 1));
  spans.attach_s += seconds_since(t);

  t = Clock::now();
  network_ = std::make_unique<ss::net::SharedLinkNetwork>(simulator_,
                                                          config.cluster.link);
  spans.network_s += seconds_since(t);

  if (config.faults.enabled()) {
    t = Clock::now();
    injector_ = std::make_unique<ss::fault::FaultInjector>(
        simulator_, *cluster_, config.faults,
        ss::sim::derive_seed(config.seed, 2), config.horizon_s);
    injector_->arm();
    spans.fault_s += seconds_since(t);
  }

  ctx_ = std::make_unique<ss::strategy::StrategyContext>(
      ss::strategy::StrategyContext{
          .simulator = simulator_,
          .cluster = *cluster_,
          .network = *network_,
          .spec = config.app,
          .spare_count = config.spare_count,
          .initial_schedule = config.initial_schedule,
          .faults = injector_.get(),
          .trace_decisions = config.trace_decisions,
      });
  t = Clock::now();
  exec_ = strat.launch(*ctx_);
  spans.launch_s += seconds_since(t);
}

ss::strategy::RunResult ComposedTrial::run() {
  const double horizon = config_.horizon_s;
  while (!exec_->done() && !exec_->result().resource_exhausted &&
         simulator_.now() < horizon && !simulator_.idle()) {
    simulator_.run_until(std::min(horizon, simulator_.now() + 24.0 * 3600.0));
    if (exec_->done()) break;
  }
  ss::strategy::RunResult result = exec_->result();
  if (injector_) result.failures.host_crashes = injector_->crashes_injected();
  if (!result.finished) {
    result.stalled = simulator_.now() < horizon || result.resource_exhausted;
    if (!result.resource_exhausted) result.makespan_s = simulator_.now();
  }
  return result;
}

ReferenceTable read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  ReferenceTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos)
      throw std::runtime_error("malformed reference line in " + path + ": " +
                               line);
    double value = 0.0;
    const char* first = line.data() + tab + 1;
    const char* last = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last)
      throw std::runtime_error("malformed makespan in " + path + ": " + line);
    table.emplace_back(line.substr(0, tab), value);
  }
  return table;
}

void write_reference(const std::string& path, const ReferenceTable& table) {
  std::ofstream out(path);
  out << "# scenario\tcell\ttrial\tmakespan_s (default seed, audited run)\n";
  for (const auto& [key, value] : table) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out << key << '\t' << std::string_view(buf, static_cast<std::size_t>(end - buf)) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write reference file " + path);
}

}  // namespace simbench
