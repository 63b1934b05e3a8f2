#include "strategy/executor.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "strategy/runtime.hpp"

namespace simsweep::strategy {

IterativeExecution::IterativeExecution(
    sim::Simulator& simulator, platform::Cluster& cluster,
    net::SharedLinkNetwork& network, const app::AppSpec& spec,
    std::vector<platform::HostId> placement, app::WorkPartition partition,
    BoundaryHook hook)
    : simulator_(simulator),
      cluster_(cluster),
      network_(network),
      spec_(spec),
      placement_(std::move(placement)),
      partition_(std::move(partition)),
      hook_(std::move(hook)) {
  spec_.validate();
  if (placement_.size() != spec_.active_processes)
    throw std::invalid_argument(
        "IterativeExecution: placement size != active processes");
  if (partition_.slots() != spec_.active_processes)
    throw std::invalid_argument(
        "IterativeExecution: partition slots != active processes");
  for (platform::HostId h : placement_)
    if (h >= cluster_.size())
      throw std::invalid_argument("IterativeExecution: placement host out of range");
}

IterativeExecution::~IterativeExecution() = default;

void IterativeExecution::adopt(std::unique_ptr<TechniqueRuntime> technique) {
  technique_ = std::move(technique);
}

void IterativeExecution::start(double startup_cost_s) {
  if (startup_cost_s < 0.0)
    throw std::invalid_argument("IterativeExecution: negative startup cost");
  result_.startup_s = startup_cost_s;
  simulator_.after(startup_cost_s, [this] { begin_iteration(); });
}

double IterativeExecution::last_iteration_time() const {
  if (result_.iteration_times_s.empty())
    throw std::logic_error("last_iteration_time: no iteration completed yet");
  return result_.iteration_times_s.back();
}

void IterativeExecution::move_process(std::size_t slot, platform::HostId host) {
  if (slot >= placement_.size())
    throw std::invalid_argument("move_process: slot out of range");
  if (host >= cluster_.size())
    throw std::invalid_argument("move_process: host out of range");
  placement_[slot] = host;
}

void IterativeExecution::set_placement(std::vector<platform::HostId> placement) {
  if (placement.size() != spec_.active_processes)
    throw std::invalid_argument("set_placement: wrong size");
  for (platform::HostId h : placement)
    if (h >= cluster_.size())
      throw std::invalid_argument("set_placement: host out of range");
  placement_ = std::move(placement);
}

void IterativeExecution::set_partition(app::WorkPartition partition) {
  if (partition.slots() != spec_.active_processes)
    throw std::invalid_argument("set_partition: wrong slot count");
  partition_ = std::move(partition);
}

void IterativeExecution::begin_iteration() {
  iter_start_ = simulator_.now();
  in_flight_ = true;
  pending_ = placement_.size();
  phase_.clear();
  phase_.reserve(placement_.size());
  for (std::size_t slot = 0; slot < placement_.size(); ++slot) {
    const double work =
        spec_.work_per_iteration_flops * partition_.fraction(slot);
    phase_.push_back(cluster_.host(placement_[slot])
                         .start_compute(work, [this] { compute_done(); }));
  }
  if (iteration_start_observer_) iteration_start_observer_(*this);
}

double IterativeExecution::abort_iteration() {
  if (!in_flight_)
    throw std::logic_error("abort_iteration: no iteration in flight");
  for (auto& member : phase_) member->cancel();
  phase_.clear();
  pending_ = 0;
  in_flight_ = false;
  // The abandoned partial iteration is adaptation-induced lost time; charge
  // it so makespan always decomposes into startup + iterations + overhead.
  const double lost = simulator_.now() - iter_start_;
  result_.adaptation_overhead_s += lost;
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    metrics->add("app.iterations_aborted");
    metrics->observe("app.iteration_lost_s", lost);
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline())
    timeline->span(timeline->track("app"), "aborted iteration", "app",
                   iter_start_, simulator_.now(),
                   {{"iter",
                     static_cast<double>(result_.iterations_completed)}});
  return lost;
}

void IterativeExecution::rollback_to_iteration(std::size_t iteration) {
  if (in_flight_)
    throw std::logic_error("rollback_to_iteration: iteration in flight");
  if (done_)
    throw std::logic_error("rollback_to_iteration: run already finished");
  if (iteration > result_.iterations_completed)
    throw std::invalid_argument(
        "rollback_to_iteration: target beyond completed iterations");
  double lost = 0.0;
  std::size_t rolled_back = 0;
  while (result_.iterations_completed > iteration) {
    lost += result_.iteration_times_s.back();
    result_.iteration_times_s.pop_back();
    --result_.iterations_completed;
    ++result_.failures.iterations_recomputed;
    ++rolled_back;
  }
  result_.adaptation_overhead_s += lost;
  result_.failures.time_lost_s += lost;
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    metrics->add("app.rollbacks");
    metrics->add("app.iterations_rolled_back", rolled_back);
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline())
    timeline->instant(timeline->track("app"), "rollback", "app",
                      simulator_.now(),
                      {{"to_iteration", static_cast<double>(iteration)},
                       {"iterations_lost", static_cast<double>(rolled_back)},
                       {"time_lost_s", lost}});
}

void IterativeExecution::restart_iteration() {
  if (in_flight_)
    throw std::logic_error("restart_iteration: iteration already running");
  if (done_) throw std::logic_error("restart_iteration: run already finished");
  begin_iteration();
}

void IterativeExecution::compute_done() {
  if (--pending_ > 0) return;
  phase_.clear();
  // Communication phase: every process exchanges its boundary data over the
  // shared link concurrently.  A single-process run has nobody to talk to.
  if (placement_.size() < 2 || spec_.comm_bytes_per_process <= 0.0) {
    iteration_complete();
    return;
  }
  pending_ = placement_.size();
  for (std::size_t slot = 0; slot < placement_.size(); ++slot) {
    phase_.push_back(network_.start_transfer(spec_.comm_bytes_per_process,
                                             [this] { comm_done(); }));
  }
}

void IterativeExecution::comm_done() {
  if (--pending_ > 0) return;
  phase_.clear();
  iteration_complete();
}

void IterativeExecution::iteration_complete() {
  in_flight_ = false;
  const double iter_time = simulator_.now() - iter_start_;
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled() &&
      iter_time < -sim::kTimeEpsilon)
    auditor->report("strategy", "non_negative_iteration_time",
                    simulator_.now(),
                    "iteration " +
                        std::to_string(result_.iterations_completed) +
                        " measured " + std::to_string(iter_time) + " s");
  result_.iteration_times_s.push_back(iter_time);
  ++result_.iterations_completed;
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    if (iterations_metric_ == nullptr) {
      iterations_metric_ = &metrics->counter("app.iterations_completed");
      iteration_time_metric_ = &metrics->histogram("app.iteration_time_s");
    }
    iterations_metric_->add();
    iteration_time_metric_->observe(iter_time);
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline())
    timeline->span(
        timeline->track("app"), "iteration", "app", iter_start_,
        simulator_.now(),
        {{"iter", static_cast<double>(result_.iterations_completed - 1)}});
  if (result_.iterations_completed >= spec_.iterations) {
    done_ = true;
    result_.finished = true;
    result_.makespan_s = simulator_.now();
    if (auditor != nullptr && auditor->enabled()) audit_makespan();
    return;
  }
  if (hook_) {
    hook_(*this, [this] { begin_iteration(); });
  } else {
    begin_iteration();
  }
}

// The paper's headline quantity must balance its own books: every simulated
// second between submission and completion is either startup, a completed
// iteration, or an adaptation/recovery pause charged to overhead (aborted
// partial iterations and rolled-back work are folded into the overhead term
// by abort_iteration/rollback_to_iteration).  The tolerance is purely for
// floating-point accumulation over thousands of charges; an uncharged pause
// would show up as whole seconds, not nanoseconds.
void IterativeExecution::audit_makespan() {
  const double accounted =
      result_.startup_s + result_.adaptation_overhead_s +
      std::accumulate(result_.iteration_times_s.begin(),
                      result_.iteration_times_s.end(), 0.0);
  const double drift = result_.makespan_s - accounted;
  if (std::fabs(drift) >
      1e-9 * std::fmax(1.0, result_.makespan_s) + 1e-6)
    simulator_.auditor()->report(
        "strategy", "makespan_decomposition", simulator_.now(),
        "makespan " + std::to_string(result_.makespan_s) +
            " s vs startup+iterations+overhead " + std::to_string(accounted) +
            " s (drift " + std::to_string(drift) + " s)");
  if (result_.iteration_times_s.size() != result_.iterations_completed)
    simulator_.auditor()->report(
        "strategy", "iteration_count_consistent", simulator_.now(),
        std::to_string(result_.iterations_completed) +
            " iterations completed but " +
            std::to_string(result_.iteration_times_s.size()) +
            " durations recorded");
}

}  // namespace simsweep::strategy
