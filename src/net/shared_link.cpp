#include "net/shared_link.hpp"

#include <stdexcept>
#include <string_view>

namespace simsweep::net {

namespace {

/// The metric behind `slot`, looked up by `name` on first use only.
obs::Counter& cached(obs::Counter*& slot, obs::MetricsRegistry& metrics,
                     std::string_view name) {
  if (slot == nullptr) slot = &metrics.counter(name);
  return *slot;
}

obs::Histogram& cached(obs::Histogram*& slot, obs::MetricsRegistry& metrics,
                       std::string_view name) {
  if (slot == nullptr) slot = &metrics.histogram(name);
  return *slot;
}

}  // namespace

SharedLinkNetwork::SharedLinkNetwork(sim::Simulator& simulator,
                                     platform::LinkSpec link)
    : simulator_(simulator),
      link_(link),
      bandwidth_(simulator, "net", link.bandwidth_Bps) {
  if (link.bandwidth_Bps <= 0.0)
    throw std::invalid_argument("SharedLinkNetwork: bandwidth must be positive");
  if (link.latency_s < 0.0)
    throw std::invalid_argument("SharedLinkNetwork: negative latency");
}

std::shared_ptr<Flow> SharedLinkNetwork::start_transfer(double bytes,
                                                        Flow::Completion done) {
  auto flow = bandwidth_.create(bytes, std::move(done));
  if (obs::MetricsRegistry* metrics = simulator_.metrics())
    cached(flows_started_, *metrics, "net.flows_started").add();
  // Latency phase: the flow uses no bandwidth until alpha has passed.
  std::weak_ptr<Flow> weak = flow;
  sim::FairShare::hold(*flow, simulator_.after(link_.latency_s, [this, weak] {
    auto f = weak.lock();
    if (!f || !f->active()) return;
    // A latency-only message completes at alpha without joining.
    if (f->remaining() <= 0.0)
      bandwidth_.complete(f);
    else
      bandwidth_.join(f);
  }));
  return flow;
}

void SharedLinkNetwork::Bandwidth::on_pass() {
  if (obs::MetricsRegistry* metrics = simulator().metrics())
    cached(reshare_passes_, *metrics, "net.reshare_passes").add();
}

/// Completion-side observability: one counter tick, the payload into the
/// bytes histogram, and a [submit, land] span on the shared "network" track.
void SharedLinkNetwork::Bandwidth::on_complete(const Flow& flow) {
  const sim::SimTime now = simulator().now();
  if (obs::MetricsRegistry* metrics = simulator().metrics()) {
    cached(flows_completed_, *metrics, "net.flows_completed").add();
    cached(flow_bytes_, *metrics, "net.flow_bytes").observe(flow.work());
    cached(flow_duration_, *metrics, "net.flow_duration_s")
        .observe(now - flow.started());
  }
  if (obs::TimelineTracer* timeline = simulator().timeline())
    timeline->span(timeline->track("network"), "flow", "net", flow.started(),
                   now, {{"bytes", flow.work()}});
}

void SharedLinkNetwork::Bandwidth::on_cancel(const Flow& /*flow*/) {
  if (obs::MetricsRegistry* metrics = simulator().metrics())
    cached(flows_cancelled_, *metrics, "net.flows_cancelled").add();
}

}  // namespace simsweep::net
