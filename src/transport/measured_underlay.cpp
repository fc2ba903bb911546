#include "transport/measured_underlay.hpp"

#include "util/require.hpp"

namespace vdm::transport {

MeasuredUnderlay::MeasuredUnderlay(std::size_t num_hosts, ProbeService& probes)
    : num_hosts_(num_hosts), probes_(probes) {
  delay_cache_.assign(num_hosts * num_hosts, -1.0);
}

double& MeasuredUnderlay::cache_at(net::HostId a, net::HostId b) const {
  VDM_REQUIRE(a < num_hosts_ && b < num_hosts_);
  return delay_cache_[static_cast<std::size_t>(a) * num_hosts_ + b];
}

sim::Time MeasuredUnderlay::delay(net::HostId a, net::HostId b) const {
  VDM_REQUIRE_MSG(a != b, "delay(a, a) is undefined");
  double& cached = cache_at(a, b);
  if (cached >= 0.0) return cached;
  ++probes_issued_;
  const double rtt = probes_.probe_rtt(a, b);
  const double one_way = rtt > 0.0 ? rtt / 2.0 : 1e-6;
  cached = one_way;
  cache_at(b, a) = one_way;  // symmetric, like every simulated substrate
  return one_way;
}

}  // namespace vdm::transport
