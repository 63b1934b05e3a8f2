// Flow-level model of a single shared communication link.
//
// The paper models its 100baseT LAN as one shared link with latency alpha
// and bandwidth beta: messages compete for a fixed amount of bandwidth and
// collisions delay transmission.  We implement the classic fluid
// approximation — the n concurrently active flows each progress at beta/n —
// and each message additionally pays the latency alpha up front (during
// which it does not consume bandwidth).  The sharing is a sim::FairShare of
// capacity beta; the link keeps the latency phase and its observability.
#pragma once

#include <memory>

#include "platform/cluster.hpp"
#include "simcore/fair_share.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::net {

/// One in-flight message, in bytes.
using Flow = sim::FairShare::Member;

class SharedLinkNetwork {
 public:
  SharedLinkNetwork(sim::Simulator& simulator, platform::LinkSpec link);

  SharedLinkNetwork(const SharedLinkNetwork&) = delete;
  SharedLinkNetwork& operator=(const SharedLinkNetwork&) = delete;

  /// Starts transferring `bytes`; `done` fires when the last byte lands.
  /// Zero-byte messages still pay the latency.
  std::shared_ptr<Flow> start_transfer(double bytes, Flow::Completion done);

  /// Number of flows currently consuming bandwidth (excludes flows still in
  /// their latency phase).
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return bandwidth_.size();
  }

  [[nodiscard]] const platform::LinkSpec& link() const noexcept { return link_; }

 private:
  /// The link's bandwidth: counts re-share passes and records every flow
  /// that completes or is cancelled.
  class Bandwidth final : public sim::FairShare {
   public:
    using FairShare::FairShare;

   private:
    void on_pass() override;
    void on_complete(const Flow& flow) override;
    void on_cancel(const Flow& flow) override;

    // Registry handles, each resolved on its first use: the registry is
    // fixed for a simulation's lifetime, so the name lookup happens once
    // per link, and a metric the run never touches is never created.
    obs::Counter* reshare_passes_ = nullptr;
    obs::Counter* flows_completed_ = nullptr;
    obs::Counter* flows_cancelled_ = nullptr;
    obs::Histogram* flow_bytes_ = nullptr;
    obs::Histogram* flow_duration_ = nullptr;
  };

  sim::Simulator& simulator_;
  platform::LinkSpec link_;
  Bandwidth bandwidth_;
  obs::Counter* flows_started_ = nullptr;  // resolved like Bandwidth's
};

}  // namespace simsweep::net
