#pragma once

#include <memory>

#include "overlay/protocol.hpp"
#include "overlay/walk.hpp"
#include "sim/time.hpp"

namespace vdm::baselines {

/// Configuration of the HMTP baseline.
struct HmtpConfig {
  /// Periodic tree refinement is part of HMTP's design (it is how a node
  /// ever discovers a closer parent that joined later), so it defaults on.
  /// The dissertation's PlanetLab runs used a 30 s period.
  bool refinement = true;
  sim::Time refinement_period = sim::seconds(30);
  /// A refinement switch must improve the parent distance by this relative
  /// margin to fire (hysteresis against measurement jitter).
  double switch_margin = 0.05;
  /// Foster-child quick start (§2.4.7): "A node connects root at the
  /// beginning to start stream immediately. Then, it jumps to ideal parent
  /// when it is found." With this on, the joiner's startup time is one
  /// handshake with the root (stream flows immediately); the parent search
  /// still runs and costs its messages, but off the critical path.
  bool foster_child = false;
};

/// Host Multicast Tree Protocol (Zhang et al.) as described in §2.4.7/§3.5 —
/// the paper's head-to-head baseline.
///
/// Join: starting at the source, greedily descend to the closest child as
/// long as it is closer than the current node; attach to the final node
/// (or, when it is saturated, to its closest child with a free slot). The
/// U-turn inefficiency this greedy rule produces is exactly what VDM's
/// directionality avoids; HMTP compensates with periodic refinement: each
/// member re-runs the search from a random node on its root path and
/// switches when it finds a closer parent.
class HmtpProtocol final : public overlay::Protocol {
 public:
  explicit HmtpProtocol(const HmtpConfig& config = {});

  std::string_view name() const override { return "HMTP"; }

  /// The foster-child quick start when configured; otherwise the base
  /// walk-and-attach.
  overlay::OpStats execute_join(overlay::Session& session, net::HostId joiner,
                                net::HostId start) override;
  overlay::OpStats execute_refine(overlay::Session& session,
                                  net::HostId node) override;

  bool wants_refinement() const override { return config_.refinement; }
  sim::Time refinement_period() const override { return config_.refinement_period; }

  /// The greedy search policy plus the default attach (the foster-child
  /// quick start is sequential-only).
  overlay::PipelineSupport* pipeline_support() override { return pipeline_.get(); }

  const HmtpConfig& config() const { return config_; }

 private:
  /// One run of the greedy search policy, without attaching; the stop's
  /// dist is the measured joiner->parent distance (HMTP always probes its
  /// stopping node).
  overlay::TreeWalk::Action search(overlay::Session& session,
                                   net::HostId joiner, net::HostId start,
                                   overlay::OpStats& stats) const;

  HmtpConfig config_;
  /// Built with the protocol; it holds a reference to config_.
  std::unique_ptr<overlay::PipelineSupport> pipeline_;
};

}  // namespace vdm::baselines
