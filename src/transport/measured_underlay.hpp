#pragma once

#include <cstddef>
#include <vector>

#include "net/types.hpp"
#include "net/underlay.hpp"

namespace vdm::transport {

/// Measures a real round-trip time between two hosts, blocking until the
/// probe completes (vdmd pings, or asks an agent to ping, through
/// UdpReactor::exchange). Returns seconds.
class ProbeService {
 public:
  virtual ~ProbeService() = default;
  virtual double probe_rtt(net::HostId a, net::HostId b) = 0;
};

/// The testbed substrate: a net::Underlay whose delays are real measured
/// RTTs, cached per host pair. This is what lets the unchanged protocol core
/// (Session/TreeWalk/Membership) drive real agents — every delay(a, b) the
/// tree walk asks for is answered by an actual probe on first touch and by
/// the cache afterwards, exactly the measurement discipline of the paper's
/// Chapter 5 PlanetLab controller.
///
/// Loss is reported as zero (UDP loss on the testbed is handled by real
/// retransmission in the transport, not by modeling), so the data plane
/// draws no randomness and stress accounting is disabled (num_links() == 0).
class MeasuredUnderlay final : public net::Underlay {
 public:
  MeasuredUnderlay(std::size_t num_hosts, ProbeService& probes);

  std::size_t num_hosts() const override { return num_hosts_; }
  sim::Time delay(net::HostId a, net::HostId b) const override;
  double loss(net::HostId, net::HostId) const override { return 0.0; }
  std::vector<net::LinkId> path(net::HostId, net::HostId) const override {
    return {};
  }
  void for_each_path_link(
      net::HostId, net::HostId,
      util::FunctionRef<void(net::LinkId)>) const override {}
  double link_delay(net::LinkId) const override { return 0.0; }
  std::size_t num_links() const override { return 0; }
  bool zero_loss() const override { return true; }

  std::size_t probes_issued() const { return probes_issued_; }

 private:
  double& cache_at(net::HostId a, net::HostId b) const;

  std::size_t num_hosts_;
  ProbeService& probes_;
  // Dense symmetric matrix of one-way delays; < 0 means unmeasured. The
  // testbed tops out at a few hundred agents, so O(N²) doubles are cheap.
  mutable std::vector<double> delay_cache_;
  mutable std::size_t probes_issued_ = 0;
};

}  // namespace vdm::transport
