#include "core/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <iomanip>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/trial_runner.hpp"
#include "net/shared_link.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::core {

namespace {

/// End-of-run cross-checks on the assembled RunResult: the per-event audits
/// in the subsystems see local state; these see the whole ledger at once.
void audit_run_result(audit::InvariantAuditor& auditor,
                      const ExperimentConfig& config, sim::SimTime now,
                      const strategy::RunResult& result) {
  const strategy::FailureStats& fs = result.failures;
  if (!config.faults.enabled() &&
      !(fs == strategy::FailureStats{}))
    auditor.report("experiment", "no_faults_no_failure_stats", now,
                   "fault injection disabled but failure counters are "
                   "non-zero (e.g. " +
                       std::to_string(fs.transfers_failed) +
                       " failed transfers, " +
                       std::to_string(fs.time_lost_s) + " s lost)");
  // Every failed attempt is eventually retried or abandoned; in-flight
  // retry sagas may still be pending when a run stalls or hits the
  // horizon, so the ledger only balances exactly on finished runs.
  if (fs.transfers_failed < fs.transfers_retried + fs.transfers_abandoned)
    auditor.report("experiment", "transfer_ledger_balanced", now,
                   std::to_string(fs.transfers_failed) +
                       " failed transfers but " +
                       std::to_string(fs.transfers_retried) + " retried + " +
                       std::to_string(fs.transfers_abandoned) + " abandoned");
  if (result.finished &&
      fs.transfers_failed != fs.transfers_retried + fs.transfers_abandoned)
    auditor.report("experiment", "transfer_ledger_balanced", now,
                   "finished run has " + std::to_string(fs.transfers_failed) +
                       " failed transfers vs " +
                       std::to_string(fs.transfers_retried) + " retried + " +
                       std::to_string(fs.transfers_abandoned) + " abandoned");
  if (fs.time_lost_s < -sim::kTimeEpsilon)
    auditor.report("experiment", "non_negative_time_lost", now,
                   "time lost to failures is " +
                       std::to_string(fs.time_lost_s) + " s");
  if (result.makespan_s < -sim::kTimeEpsilon ||
      result.makespan_s >
          config.horizon_s * (1.0 + 1e-9) + sim::kTimeEpsilon)
    auditor.report("experiment", "makespan_within_horizon", now,
                   "makespan " + std::to_string(result.makespan_s) +
                       " s outside [0, " + std::to_string(config.horizon_s) +
                       " s]");
  if (result.finished &&
      result.iterations_completed != config.app.iterations)
    auditor.report("experiment", "finished_means_all_iterations", now,
                   "finished with " +
                       std::to_string(result.iterations_completed) + " of " +
                       std::to_string(config.app.iterations) + " iterations");
}

/// Appends one digest field: shortest round-trip decimal for doubles, so
/// the digest is a pure function of the value, not of stream formatting.
void digest_field(std::string& out, double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
  out.push_back(';');
}

void digest_field(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
  out.push_back(';');
}

}  // namespace

std::string config_digest(const ExperimentConfig& config,
                          std::string_view extra) {
  // Every field that shapes the simulation, in a fixed order.  The seed is
  // excluded (provenance reports it separately) and so are the read-only
  // switches (trace_decisions, audit, obs): runs are bitwise identical with
  // or without them, which is exactly what the digest asserts.  `extra`
  // carries the shape inputs that live outside ExperimentConfig — the load
  // model and strategy descriptors.
  std::string blob;
  blob.reserve(256);
  const platform::ClusterSpec& cl = config.cluster;
  digest_field(blob, cl.min_speed_flops);
  digest_field(blob, cl.max_speed_flops);
  digest_field(blob, static_cast<std::uint64_t>(cl.explicit_speeds.size()));
  for (const double s : cl.explicit_speeds) digest_field(blob, s);
  digest_field(blob, static_cast<std::uint64_t>(cl.host_count));
  digest_field(blob, cl.link.latency_s);
  digest_field(blob, cl.link.bandwidth_Bps);
  digest_field(blob, cl.startup_per_process_s);
  const app::AppSpec& ap = config.app;
  digest_field(blob, static_cast<std::uint64_t>(ap.active_processes));
  digest_field(blob, static_cast<std::uint64_t>(ap.iterations));
  digest_field(blob, ap.work_per_iteration_flops);
  digest_field(blob, ap.comm_bytes_per_process);
  digest_field(blob, ap.state_bytes_per_process);
  digest_field(blob, static_cast<std::uint64_t>(config.spare_count));
  digest_field(blob,
               static_cast<std::uint64_t>(config.initial_schedule));
  digest_field(blob, config.horizon_s);
  const fault::FaultSpec& fs = config.faults;
  digest_field(blob, fs.host_mtbf_s);
  digest_field(blob, fs.swap_fail_prob);
  digest_field(blob, fs.checkpoint_fail_prob);
  digest_field(blob, static_cast<std::uint64_t>(fs.max_transfer_retries));
  digest_field(blob, fs.retry_backoff_s);
  digest_field(blob, fs.retry_backoff_cap_s);
  digest_field(blob, static_cast<std::uint64_t>(fs.blacklist_after));
  digest_field(blob, config.max_events);
  blob.append(extra);
  return obs::hex64(obs::fnv1a(blob));
}

strategy::RunResult run_single(const ExperimentConfig& config,
                               const load::LoadModel& model,
                               strategy::Strategy& strat) {
  config.app.validate();
  config.faults.validate();
  // One auditor per trial: trials fan out across worker threads, and a
  // local auditor keeps each trial's checks (and warn-mode report) private
  // to its own simulation.
  const audit::AuditMode audit_mode = config.audit != audit::AuditMode::kOff
                                          ? config.audit
                                          : audit::mode_from_env();
  audit::InvariantAuditor auditor(audit_mode);
  sim::Simulator simulator;
  if (auditor.enabled()) simulator.set_auditor(&auditor);
  simulator.set_event_budget(config.max_events);
  // When this trial runs under a guarded TrialRunner (a wall-clock watchdog
  // attached via set_trial_guard), let the watchdog interrupt the event loop
  // cooperatively: the simulator throws sim::RunCancelled at the next event
  // once the flag is raised.  Null outside a guarded scope — free then.
  simulator.set_cancel_flag(TrialRunner::current_cancel_flag());
  // Observability collectors attach before any subsystem is built so every
  // instrumentation site sees them from the first event.  Like the auditor
  // they only read simulation state: an observed run is bitwise identical
  // to a plain one.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TimelineTracer> timeline;
  if (config.obs.metrics) {
    metrics = std::make_shared<obs::MetricsRegistry>();
    simulator.set_metrics(metrics.get());
  }
  if (config.obs.timeline) {
    timeline = std::make_shared<obs::TimelineTracer>();
    simulator.set_timeline(timeline.get());
  }
  sim::Rng platform_rng(config.seed, /*stream=*/0);
  platform::Cluster cluster(simulator, config.cluster, platform_rng);
  // Load sources set their initial state synchronously here, before the
  // initial schedule reads effective speeds.
  auto sources = load::LoadModel::attach_all(model, simulator, cluster,
                                             sim::derive_seed(config.seed, 1));
  net::SharedLinkNetwork network(simulator, config.cluster.link);
  // Fault streams derive from the trial seed (stream 2; platform is 0 and
  // load is 1).  A disabled spec builds no injector at all, leaving the
  // run bitwise identical to the fault-free path.
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.enabled()) {
    injector = std::make_unique<fault::FaultInjector>(
        simulator, cluster, config.faults, sim::derive_seed(config.seed, 2),
        config.horizon_s);
    injector->arm();
  }
  strategy::StrategyContext ctx{
      .simulator = simulator,
      .cluster = cluster,
      .network = network,
      .spec = config.app,
      .spare_count = config.spare_count,
      .initial_schedule = config.initial_schedule,
      .faults = injector.get(),
      .trace_decisions = config.trace_decisions,
  };
  auto exec = strat.launch(ctx);
  // Load sources generate events forever; stop as soon as the app is done
  // or the strategy gives up.  run_until(horizon) bounds pathological runs.
  while (!exec->done() && !exec->result().resource_exhausted &&
         simulator.now() < config.horizon_s && !simulator.idle()) {
    simulator.run_until(
        std::min(config.horizon_s, simulator.now() + 24.0 * 3600.0));
    if (exec->done()) break;
  }
  strategy::RunResult result = exec->result();
  if (!result.finished) {
    // Distinct failure shapes: the run outlived the horizon (slow but
    // live), the event queue drained with iterations outstanding (the
    // strategy deadlocked — e.g. a boundary hook that never resumed), or
    // crash recovery ran out of usable hosts and gave up cleanly.
    result.stalled =
        simulator.now() < config.horizon_s || result.resource_exhausted;
    // Resource-exhausted runs already stamped their give-up instant; for
    // the rest the best available makespan is wherever the loop stopped.
    if (!result.resource_exhausted) result.makespan_s = simulator.now();
  }
  if (auditor.enabled()) {
    audit_run_result(auditor, config, simulator.now(), result);
    result.audit_report = auditor.take_violations();
  }
  if (metrics) {
    // Run-level summary metrics, recorded once at the end so they reflect
    // the assembled result (post-horizon/stall fixups included).
    metrics->add("sim.events_fired", simulator.events_fired());
    if (simulator.queue_depth_samples() != 0) {
      metrics->set_gauge("sim.queue_depth_mean",
                         simulator.queue_depth_mean());
      metrics->set_gauge(
          "sim.queue_depth_max",
          static_cast<double>(simulator.queue_depth_max()));
    }
    if (config.max_events != 0)
      metrics->set_gauge("sim.event_budget_headroom",
                         static_cast<double>(config.max_events -
                                             simulator.events_fired()));
    metrics->set_gauge("run.makespan_s", result.makespan_s);
    metrics->add("run.iterations_completed", result.iterations_completed);
    metrics->add("run.adaptations", result.adaptations);
    metrics->add("run.trials");
    if (result.finished) metrics->add("run.finished");
    if (result.stalled) metrics->add("run.stalled");
  }
  result.metrics = std::move(metrics);
  result.timeline = std::move(timeline);
  return result;
}

TrialStats reduce_trials(const std::vector<strategy::RunResult>& results) {
  if (results.empty())
    throw std::invalid_argument("reduce_trials: zero trials");
  TrialStats stats;
  stats.trials = results.size();
  stats.min = std::numeric_limits<double>::infinity();
  stats.max = -std::numeric_limits<double>::infinity();
  // Welford's online mean/variance: numerically stable when the spread is
  // tiny relative to the magnitude (makespans near 1e9 s would lose all
  // variance digits to cancellation in the sum-of-squares form).
  double mean = 0.0, m2 = 0.0, adapt_sum = 0.0;
  double crash_sum = 0.0, tf_sum = 0.0, rec_sum = 0.0, ckpt_sum = 0.0,
         lost_sum = 0.0;
  std::size_t n = 0;
  for (const strategy::RunResult& r : results) {
    if (!r.finished) ++stats.unfinished;
    if (r.stalled) ++stats.stalled;
    if (r.resource_exhausted) ++stats.resource_exhausted;
    ++n;
    const double delta = r.makespan_s - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (r.makespan_s - mean);
    adapt_sum += static_cast<double>(r.adaptations);
    crash_sum += static_cast<double>(r.failures.host_crashes);
    tf_sum += static_cast<double>(r.failures.transfers_failed);
    rec_sum += static_cast<double>(r.failures.crash_recoveries);
    ckpt_sum += static_cast<double>(r.failures.checkpoint_failures);
    lost_sum += r.failures.time_lost_s;
    stats.audit_violations += r.audit_report.size();
    stats.min = std::min(stats.min, r.makespan_s);
    stats.max = std::max(stats.max, r.makespan_s);
  }
  stats.mean = mean;
  stats.stddev = std::sqrt(std::max(0.0, m2 / static_cast<double>(n)));
  const double dn = static_cast<double>(n);
  stats.mean_adaptations = adapt_sum / dn;
  stats.mean_crashes = crash_sum / dn;
  stats.mean_transfer_failures = tf_sum / dn;
  stats.mean_recoveries = rec_sum / dn;
  stats.mean_checkpoint_failures = ckpt_sum / dn;
  stats.mean_time_lost_s = lost_sum / dn;
  return stats;
}

std::vector<strategy::RunResult> run_trials_results(
    ExperimentConfig config, const load::LoadModel& model,
    strategy::Strategy& strategy, std::size_t trials, std::size_t jobs) {
  if (trials == 0) throw std::invalid_argument("run_trials: zero trials");
  std::vector<strategy::RunResult> results;
  if (trials > results.max_size())
    throw std::invalid_argument(
        "run_trials: trial count " + std::to_string(trials) +
        " exceeds the limit of " + std::to_string(results.max_size()));
  results.resize(trials);
  const std::function<void(std::size_t)> body = [&](std::size_t t) {
    ExperimentConfig trial_config = config;
    trial_config.seed = config.seed + t;
    results[t] = run_single(trial_config, model, strategy);
  };
  if (jobs == 0)
    TrialRunner::shared().parallel_for(trials, body);
  else
    TrialRunner(jobs).parallel_for(trials, body);
  return results;
}

std::unique_ptr<obs::MetricsRegistry> merge_trial_metrics(
    const std::vector<strategy::RunResult>& results) {
  auto merged = std::make_unique<obs::MetricsRegistry>();
  for (const strategy::RunResult& r : results)
    if (r.metrics) merged->merge_from(*r.metrics);
  return merged;
}

void TrialStats::print_json(std::ostream& os,
                            const obs::Provenance* meta) const {
  os << '{';
  if (meta != nullptr) {
    os << "\"meta\":";
    meta->write_json(os);
    os << ',';
  }
  os << "\"mean\":";
  obs::write_json_number(os, mean);
  os << ",\"stddev\":";
  obs::write_json_number(os, stddev);
  os << ",\"min\":";
  obs::write_json_number(os, min);
  os << ",\"max\":";
  obs::write_json_number(os, max);
  os << ",\"trials\":";
  obs::write_json_number(os, std::uint64_t{trials});
  os << ",\"unfinished\":";
  obs::write_json_number(os, std::uint64_t{unfinished});
  os << ",\"stalled\":";
  obs::write_json_number(os, std::uint64_t{stalled});
  os << ",\"resource_exhausted\":";
  obs::write_json_number(os, std::uint64_t{resource_exhausted});
  os << ",\"mean_adaptations\":";
  obs::write_json_number(os, mean_adaptations);
  os << ",\"mean_crashes\":";
  obs::write_json_number(os, mean_crashes);
  os << ",\"mean_transfer_failures\":";
  obs::write_json_number(os, mean_transfer_failures);
  os << ",\"mean_recoveries\":";
  obs::write_json_number(os, mean_recoveries);
  os << ",\"mean_checkpoint_failures\":";
  obs::write_json_number(os, mean_checkpoint_failures);
  os << ",\"mean_time_lost_s\":";
  obs::write_json_number(os, mean_time_lost_s);
  os << ",\"audit_violations\":";
  obs::write_json_number(os, std::uint64_t{audit_violations});
  os << '}';
}

void SeriesReport::print_table(std::ostream& os) const {
  os << "# " << title << "\n";
  os << std::setw(14) << x_label;
  for (const Series& s : series) os << std::setw(16) << s.name;
  os << '\n';
  for (std::size_t i = 0; i < x.size(); ++i) {
    os << std::setw(14) << std::setprecision(6) << x[i];
    for (const Series& s : series)
      os << std::setw(16) << std::fixed << std::setprecision(1)
         << (i < s.y.size() ? s.y[i] : std::numeric_limits<double>::quiet_NaN())
         << std::defaultfloat;
    os << '\n';
  }
}

void SeriesReport::print_csv(std::ostream& os) const {
  os << std::setprecision(10);
  os << x_label;
  for (const Series& s : series) os << ',' << s.name;
  os << '\n';
  for (std::size_t i = 0; i < x.size(); ++i) {
    os << x[i];
    for (const Series& s : series)
      os << ','
         << (i < s.y.size() ? s.y[i] : std::numeric_limits<double>::quiet_NaN());
    os << '\n';
  }
}

void SeriesReport::print_json(std::ostream& os,
                              const obs::Provenance* meta) const {
  os << '{';
  if (meta != nullptr) {
    os << "\"meta\":";
    meta->write_json(os);
    os << ',';
  }
  os << "\"title\":";
  obs::write_json_string(os, title);
  os << ",\"x_label\":";
  obs::write_json_string(os, x_label);
  os << ",\"x\":";
  obs::write_json_array(os, x);
  os << ",\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"name\":";
    obs::write_json_string(os, series[i].name);
    os << ",\"mean_makespan_s\":";
    obs::write_json_array(os, series[i].y);
    os << ",\"mean_adaptations\":";
    obs::write_json_array(os, series[i].adaptations);
    os << '}';
  }
  os << "]}";
}

}  // namespace simsweep::core
