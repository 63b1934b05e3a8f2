#include "strategy/runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "swap/payback.hpp"
#include "swap/planner.hpp"

namespace simsweep::strategy {

double estimate_comm_time(const app::AppSpec& spec,
                          const platform::LinkSpec& link) {
  if (spec.active_processes < 2 || spec.comm_bytes_per_process <= 0.0)
    return 0.0;
  return link.transfer_time(spec.comm_bytes_per_process *
                            static_cast<double>(spec.active_processes));
}

app::WorkPartition proportional_to_effective_speeds(
    const platform::Cluster& cluster,
    const std::vector<platform::HostId>& hosts) {
  std::vector<double> speeds;
  speeds.reserve(hosts.size());
  for (platform::HostId h : hosts)
    speeds.push_back(cluster.host(h).effective_speed());
  return app::WorkPartition::proportional(speeds);
}

std::unique_ptr<IterativeExecution> TechniqueRuntime::launch(
    StrategyContext& ctx, std::unique_ptr<TechniqueRuntime> technique,
    std::vector<platform::HostId> active, app::WorkPartition partition,
    double startup_cost_s) {
  TechniqueRuntime& rt = *technique;
  auto exec = std::make_unique<IterativeExecution>(
      ctx.simulator, ctx.cluster, ctx.network, ctx.spec, std::move(active),
      std::move(partition),
      [&rt](IterativeExecution&, std::function<void()> resume) {
        rt.on_boundary(std::move(resume));
      });
  rt.exec_ = exec.get();
  if (rt.faults_ != nullptr)
    rt.faults_->on_crash([&rt](platform::HostId host) {
      // The injector fires until the simulation stops; the run counts only
      // the crashes it lives through.
      IterativeExecution& e = *rt.exec_;
      if (!e.done() && !e.result().resource_exhausted)
        ++e.result().failures.host_crashes;
      rt.on_host_crashed(host);
      rt.react_to_crash();
    });
  exec->set_iteration_start_observer([&rt](IterativeExecution&) {
    rt.on_iteration_start();
    if (rt.faults_ != nullptr) rt.react_to_crash();
  });
  exec->adopt(std::move(technique));
  exec->start(startup_cost_s);
  return exec;
}

void TechniqueRuntime::on_boundary(std::function<void()> resume) {
  watchdog_.cancel();  // boundary reached: the iteration completed
  at_boundary(std::move(resume));
}

void TechniqueRuntime::react_to_crash() {
  IterativeExecution& e = *exec_;
  if (recovering_ || e.done() || e.result().resource_exhausted) return;
  if (!e.iteration_in_flight() || !placement_hit_by_crash()) return;
  // The abandoned partial work is failure-induced lost time on top of the
  // adaptation charge.
  e.result().failures.time_lost_s += e.abort_iteration();
  recover();
}

// ------------------------------------------------------------------ planning

std::vector<platform::HostId> TechniqueRuntime::fastest_first(
    std::vector<platform::HostId> hosts) {
  const sim::SimTime t = now();
  std::stable_sort(hosts.begin(), hosts.end(),
                   [&](platform::HostId a, platform::HostId b) {
                     return estimator_->estimate(exec_->cluster().host(a), t) >
                            estimator_->estimate(exec_->cluster().host(b), t);
                   });
  return hosts;
}

std::vector<swap::ActiveProcess> TechniqueRuntime::active_estimates() {
  IterativeExecution& e = *exec_;
  // Each slot's share of one iteration's work.
  std::vector<double> chunk_flops;
  chunk_flops.reserve(e.partition().slots());
  for (std::size_t slot = 0; slot < e.partition().slots(); ++slot)
    chunk_flops.push_back(e.spec().work_per_iteration_flops *
                          e.partition().fraction(slot));
  return make_active_estimates(e.cluster(), e.placement(), chunk_flops, now(),
                               *estimator_);
}

TechniqueRuntime::BoundaryPlan TechniqueRuntime::plan_swaps(
    const swap::PolicyParams& policy,
    const std::vector<platform::HostId>& spare_hosts,
    std::optional<double> adaptation_cost_s) {
  IterativeExecution& e = *exec_;
  const auto active = active_estimates();
  const auto spares =
      make_spare_estimates(e.cluster(), spare_hosts, now(), *estimator_);
  const platform::LinkSpec& link = e.cluster().link();
  const swap::PlanContext plan_ctx{
      .measured_iter_time_s = e.last_iteration_time(),
      .state_bytes = e.spec().state_bytes_per_process,
      .link_latency_s = link.latency_s,
      .link_bandwidth_Bps = link.bandwidth_Bps,
      .comm_time_s = estimate_comm_time(e.spec(), link),
      .adaptation_cost_s = adaptation_cost_s,
  };
  BoundaryPlan out;
  out.plan = swap::evaluate_swaps(policy, active, spares, plan_ctx);
  const double cost =
      adaptation_cost_s
          ? *adaptation_cost_s
          : swap::estimate_swap_time(plan_ctx.state_bytes, link.latency_s,
                                     link.bandwidth_Bps);
  out.trace_index = trace_boundary(out.plan, plan_ctx.measured_iter_time_s,
                                   cost, active.size(), spares.size());
  return out;
}

// --------------------------------------------------------- fault primitives

bool TechniqueRuntime::placement_hit_by_crash() {
  for (platform::HostId h : exec_->placement())
    if (exec_->cluster().host(h).crashed()) return true;
  return false;
}

void TechniqueRuntime::mark_resource_exhausted() {
  exec_->result().resource_exhausted = true;
  exec_->result().makespan_s = now();
  recovering_ = false;
  transfers_.clear();
  if (obs::MetricsRegistry* metrics = exec_->simulator().metrics())
    metrics->add("strategy.resource_exhausted");
  trace_recovery("resource_exhausted", 0);
}

// ------------------------------------------------------------------ transfers

void TechniqueRuntime::start_faulty_transfer(
    double bytes, std::size_t attempt, std::function<void()> on_attempt_failed,
    std::function<void(bool)> done) {
  IterativeExecution& exec = *exec_;
  if (faults_ == nullptr || !faults_->draw_transfer_failure()) {
    transfers_.push_back(exec.network().start_transfer(
        bytes, [done = std::move(done)] { done(true); }));
    return;
  }
  ++exec.result().failures.transfers_failed;
  const double partial = bytes * faults_->draw_failure_fraction();
  const sim::SimTime begin = exec.simulator().now();
  transfers_.push_back(exec.network().start_transfer(
      partial, [this, bytes, attempt, begin,
                on_attempt_failed = std::move(on_attempt_failed),
                done = std::move(done)] {
        IterativeExecution& e = *exec_;
        auto& fs = e.result().failures;
        fs.time_lost_s += e.simulator().now() - begin;
        if (on_attempt_failed) on_attempt_failed();
        if (attempt >= faults_->spec().max_transfer_retries) {
          ++fs.transfers_abandoned;
          if (obs::MetricsRegistry* metrics = e.simulator().metrics())
            metrics->add("strategy.transfers_abandoned");
          done(false);
          return;
        }
        ++fs.transfers_retried;
        if (obs::MetricsRegistry* metrics = e.simulator().metrics())
          metrics->add("strategy.transfer_retries");
        const double backoff = faults_->retry_backoff(attempt);
        fs.time_lost_s += backoff;
        e.simulator().after(backoff,
                            [this, bytes, attempt, on_attempt_failed, done] {
                              start_faulty_transfer(bytes, attempt + 1,
                                                    on_attempt_failed, done);
                            });
      }));
}

void TechniqueRuntime::transfer_moves(
    const std::vector<PlannedMove>& moves,
    std::function<void(platform::HostId)> on_strike,
    std::function<void(std::size_t, platform::HostId)> apply,
    std::function<void(std::size_t)> done) {
  pending_ = moves.size();
  transfers_.clear();
  auto landed = std::make_shared<std::size_t>(0);
  for (const PlannedMove& move : moves) {
    start_faulty_transfer(
        exec_->spec().state_bytes_per_process, 0,
        on_strike ? std::function<void()>(
                        [on_strike, to = move.to] { on_strike(to); })
                  : std::function<void()>{},
        [this, landed, apply, done, slot = move.slot, to = move.to](bool ok) {
          if (ok) {
            ++*landed;
            apply(slot, to);
          }
          if (--pending_ == 0) {
            transfers_.clear();
            done(*landed);
          }
        });
  }
}

void TechniqueRuntime::reliable_broadcast(std::size_t count,
                                          std::function<void()> done) {
  pending_ = count;
  transfers_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    transfers_.push_back(exec_->network().start_transfer(
        exec_->spec().state_bytes_per_process, [this, done] {
          if (--pending_ == 0) {
            transfers_.clear();
            done();
          }
        }));
  }
}

// ----------------------------------------------------------- pause accounting

void TechniqueRuntime::begin_recovery() {
  watchdog_.cancel();
  recovering_ = true;
  pause_start_ = now();
}

void TechniqueRuntime::charge_adaptation_pause() {
  exec_->result().adaptation_overhead_s +=
      audited_pause("adaptation", adaptation_pause_metric_);
}

void TechniqueRuntime::charge_failure_pause() {
  const double pause = audited_pause("failure", failure_pause_metric_);
  exec_->result().adaptation_overhead_s += pause;
  exec_->result().failures.time_lost_s += pause;
}

/// The elapsed pause being charged; audited non-negative (a negative charge
/// means begin_*_pause was never called for this charge, silently shrinking
/// the overhead the figures report).  `metric` caches the kind's histogram.
double TechniqueRuntime::audited_pause(const char* kind,
                                       obs::Histogram*& metric) {
  const double pause = now() - pause_start_;
  audit::InvariantAuditor* auditor = exec_->simulator().auditor();
  if (auditor != nullptr && auditor->enabled() && pause < -sim::kTimeEpsilon)
    auditor->report("strategy", "non_negative_pause", now(),
                    std::string(kind) + " pause of " + std::to_string(pause) +
                        " s (pause clock started at t=" +
                        std::to_string(pause_start_) + ")");
  if (obs::MetricsRegistry* metrics = exec_->simulator().metrics()) {
    if (metric == nullptr)
      metric =
          &metrics->histogram(obs::labelled("strategy.pause_s", "kind", kind));
    metric->observe(pause);
  }
  // A negative pause is an accounting bug the auditor reports above; the
  // tracer would reject the inverted span, so only well-formed pauses are
  // drawn.
  if (pause >= 0.0)
    if (obs::TimelineTracer* timeline = exec_->simulator().timeline())
      timeline->span(timeline->track("strategy"),
                     std::string(kind) + " pause", "strategy", pause_start_,
                     now());
  return pause;
}

void TechniqueRuntime::charge_recovery_pause() {
  charge_failure_pause();
  recovering_ = false;
}

// ------------------------------------------------------------ decision traces

std::size_t TechniqueRuntime::trace_boundary(const swap::SwapPlan& plan,
                                             double measured_iter_time_s,
                                             double adaptation_cost_s,
                                             std::size_t active_count,
                                             std::size_t spare_count) {
  // Planner observability is independent of decision tracing: every plan is
  // counted (with per-reason rejection counters bridging the decision-trace
  // taxonomy into the metrics snapshot) even when no trace is collected.
  if (obs::MetricsRegistry* metrics = exec_->simulator().metrics()) {
    metrics->add("swap.plans");
    metrics->add("swap.candidates_evaluated", plan.considered.size());
    metrics->add("swap.swaps_planned", plan.decisions.size());
    for (const swap::CandidateEvaluation& cand : plan.considered) {
      if (cand.accepted())
        metrics->add("swap.candidates_accepted");
      else
        metrics->add(obs::labelled("swap.candidates_rejected", "reason",
                                   swap::to_string(cand.rejection)));
    }
  }
  if (obs::TimelineTracer* timeline = exec_->simulator().timeline())
    timeline->instant(
        timeline->track("strategy"), "plan_boundary", "swap", now(),
        {{"considered", static_cast<double>(plan.considered.size())},
         {"planned", static_cast<double>(plan.decisions.size())},
         {"measured_iter_s", measured_iter_time_s}});
  if (!trace_enabled_) return kNoTrace;
  DecisionRecord rec;
  rec.kind = TraceKind::kBoundary;
  rec.iteration = exec_->iteration();
  rec.time_s = now();
  rec.measured_iter_time_s = measured_iter_time_s;
  rec.predicted_iter_time_s = plan.predicted_iter_time_s;
  rec.adaptation_cost_s = adaptation_cost_s;
  rec.active_count = active_count;
  rec.spare_count = spare_count;
  rec.considered = plan.considered;
  rec.swaps_planned = plan.decisions.size();
  auto& trace = exec_->result().decision_trace;
  trace.push_back(std::move(rec));
  return trace.size() - 1;
}

void TechniqueRuntime::trace_swaps_applied(std::size_t index,
                                           std::size_t applied) {
  if (index == kNoTrace) return;
  exec_->result().decision_trace[index].swaps_applied = applied;
}

void TechniqueRuntime::trace_recovery(const char* action,
                                      std::size_t processes) {
  if (obs::MetricsRegistry* metrics = exec_->simulator().metrics())
    metrics->add(obs::labelled("strategy.recoveries", "action", action));
  if (obs::TimelineTracer* timeline = exec_->simulator().timeline())
    timeline->instant(timeline->track("strategy"), action, "recovery", now(),
                      {{"processes", static_cast<double>(processes)}});
  if (!trace_enabled_) return;
  DecisionRecord rec;
  rec.kind = TraceKind::kRecovery;
  rec.iteration = exec_->iteration();
  rec.time_s = now();
  rec.action = action;
  rec.processes = processes;
  exec_->result().decision_trace.push_back(std::move(rec));
}

}  // namespace simsweep::strategy
