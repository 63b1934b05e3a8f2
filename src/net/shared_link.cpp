#include "net/shared_link.hpp"

#include <stdexcept>

namespace simsweep::net {

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
    metrics->add("net.flows_started");
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
    metrics->add("net.reshare_passes");
}

/// Completion-side observability: one counter tick, the payload into the
/// bytes histogram, and a [submit, land] span on the shared "network" track.
void SharedLinkNetwork::Bandwidth::on_complete(const Flow& flow) {
  const sim::SimTime now = simulator().now();
  if (obs::MetricsRegistry* metrics = simulator().metrics()) {
    metrics->add("net.flows_completed");
    metrics->observe("net.flow_bytes", flow.work());
    metrics->observe("net.flow_duration_s", now - flow.started());
  }
  if (obs::TimelineTracer* timeline = simulator().timeline())
    timeline->span(timeline->track("network"), "flow", "net", flow.started(),
                   now, {{"bytes", flow.work()}});
}

void SharedLinkNetwork::Bandwidth::on_cancel(const Flow& /*flow*/) {
  if (obs::MetricsRegistry* metrics = simulator().metrics())
    metrics->add("net.flows_cancelled");
}

}  // namespace simsweep::net
