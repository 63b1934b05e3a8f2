#include "strategy/runtime.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "swap/planner.hpp"

namespace simsweep::strategy {

double estimate_comm_time(const app::AppSpec& spec,
                          const platform::LinkSpec& link) {
  if (spec.active_processes < 2 || spec.comm_bytes_per_process <= 0.0)
    return 0.0;
  return link.transfer_time(spec.comm_bytes_per_process *
                            static_cast<double>(spec.active_processes));
}

void Remediation::at_boundary(TechniqueRuntime& /*rt*/,
                              std::function<void()> resume) {
  resume();
}

void Remediation::on_host_crashed(TechniqueRuntime& /*rt*/,
                                  platform::HostId /*host*/) {}

std::function<void(IterativeExecution&)> Remediation::iteration_start_observer(
    TechniqueRuntime& /*rt*/) {
  return {};
}

IterativeExecution::BoundaryHook TechniqueRuntime::boundary_hook(
    std::shared_ptr<TechniqueRuntime> rt) {
  return [rt = std::move(rt)](IterativeExecution&,
                              std::function<void()> resume) {
    rt->on_boundary(std::move(resume));
  };
}

void TechniqueRuntime::on_boundary(std::function<void()> resume) {
  watchdog_.cancel();  // boundary reached: the iteration completed
  remediation_->at_boundary(*this, std::move(resume));
}

void TechniqueRuntime::wire(IterativeExecution& exec,
                            std::unique_ptr<Remediation> remediation) {
  exec_ = &exec;
  remediation_ = std::move(remediation);
  auto arm = remediation_->iteration_start_observer(*this);
  if (faults_ == nullptr) {
    if (arm) exec_->set_iteration_start_observer(std::move(arm));
    return;
  }
  auto self = shared_from_this();
  faults_->on_crash([self](platform::HostId host) {
    self->remediation_->on_host_crashed(*self, host);
    self->react_to_crash();
  });
  exec_->set_iteration_start_observer(
      [self, arm = std::move(arm)](IterativeExecution& e) {
        if (arm) arm(e);
        self->react_to_crash();
      });
}

void TechniqueRuntime::react_to_crash() {
  IterativeExecution& e = *exec_;
  if (recovering_ || e.done() || e.result().resource_exhausted) return;
  if (!e.iteration_in_flight() || !placement_hit_by_crash()) return;
  abort_for_crash();
  remediation_->recover(*this);
}

// --------------------------------------------------------- fault primitives

bool TechniqueRuntime::placement_hit_by_crash() {
  for (platform::HostId h : exec_->placement())
    if (exec_->cluster().host(h).crashed()) return true;
  return false;
}

void TechniqueRuntime::abort_for_crash() {
  exec_->result().failures.time_lost_s += exec_->abort_iteration();
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
  auto self = shared_from_this();
  transfers_.push_back(exec.network().start_transfer(
      partial, [self, bytes, attempt, begin,
                on_attempt_failed = std::move(on_attempt_failed),
                done = std::move(done)] {
        IterativeExecution& e = *self->exec_;
        auto& fs = e.result().failures;
        fs.time_lost_s += e.simulator().now() - begin;
        if (on_attempt_failed) on_attempt_failed();
        if (attempt >= self->faults_->spec().max_transfer_retries) {
          ++fs.transfers_abandoned;
          if (obs::MetricsRegistry* metrics = e.simulator().metrics())
            metrics->add("strategy.transfers_abandoned");
          done(false);
          return;
        }
        ++fs.transfers_retried;
        if (obs::MetricsRegistry* metrics = e.simulator().metrics())
          metrics->add("strategy.transfer_retries");
        const double backoff = self->faults_->retry_backoff(attempt);
        fs.time_lost_s += backoff;
        e.simulator().after(backoff,
                            [self, bytes, attempt, on_attempt_failed, done] {
                              self->start_faulty_transfer(
                                  bytes, attempt + 1, on_attempt_failed, done);
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
  auto self = shared_from_this();
  auto landed = std::make_shared<std::size_t>(0);
  for (const PlannedMove& move : moves) {
    start_faulty_transfer(
        exec_->spec().state_bytes_per_process, 0,
        on_strike ? std::function<void()>(
                        [on_strike, to = move.to] { on_strike(to); })
                  : std::function<void()>{},
        [self, landed, apply, done, slot = move.slot, to = move.to](bool ok) {
          if (ok) {
            ++*landed;
            apply(slot, to);
          }
          if (--self->pending_ == 0) {
            self->transfers_.clear();
            done(*landed);
          }
        });
  }
}

void TechniqueRuntime::reliable_broadcast(std::size_t count,
                                          std::function<void()> done) {
  pending_ = count;
  transfers_.clear();
  auto self = shared_from_this();
  for (std::size_t i = 0; i < count; ++i) {
    transfers_.push_back(exec_->network().start_transfer(
        exec_->spec().state_bytes_per_process, [self, done] {
          if (--self->pending_ == 0) {
            self->transfers_.clear();
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
  exec_->result().adaptation_overhead_s += audited_pause("adaptation");
}

void TechniqueRuntime::charge_failure_pause() {
  const double pause = audited_pause("failure");
  exec_->result().adaptation_overhead_s += pause;
  exec_->result().failures.time_lost_s += pause;
}

/// The elapsed pause being charged; audited non-negative (a negative charge
/// means begin_*_pause was never called for this charge, silently shrinking
/// the overhead the figures report).
double TechniqueRuntime::audited_pause(const char* kind) {
  const double pause = now() - pause_start_;
  audit::InvariantAuditor* auditor = exec_->simulator().auditor();
  if (auditor != nullptr && auditor->enabled() && pause < -sim::kTimeEpsilon)
    auditor->report("strategy", "non_negative_pause", now(),
                    std::string(kind) + " pause of " + std::to_string(pause) +
                        " s (pause clock started at t=" +
                        std::to_string(pause_start_) + ")");
  if (obs::MetricsRegistry* metrics = exec_->simulator().metrics())
    metrics->histogram(obs::labelled("strategy.pause_s", "kind", kind))
        .observe(pause);
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
