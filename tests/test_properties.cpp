// Property-based tests: random operation sequences over every protocol and
// substrate must preserve the structural invariants of DESIGN.md §5.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "baselines/btp_protocol.hpp"
#include "baselines/hmtp_protocol.hpp"
#include "baselines/random_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "metrics/tree_metrics.hpp"
#include "overlay/scenario.hpp"
#include "overlay/session.hpp"
#include "topology/geo.hpp"
#include "topology/transit_stub.hpp"
#include "util/rng.hpp"

namespace vdm {
namespace {

enum class ProtoKind { kVdm, kVdmRefine, kHmtp, kHmtpFoster, kBtp, kRandom };
enum class NetKind { kTransitStub, kGeo };

struct Params {
  ProtoKind proto;
  NetKind net;
  std::uint64_t seed;
};

std::string params_name(const testing::TestParamInfo<Params>& info) {
  std::string name;
  switch (info.param.proto) {
    case ProtoKind::kVdm: name = "Vdm"; break;
    case ProtoKind::kVdmRefine: name = "VdmRefine"; break;
    case ProtoKind::kHmtp: name = "Hmtp"; break;
    case ProtoKind::kHmtpFoster: name = "HmtpFoster"; break;
    case ProtoKind::kBtp: name = "Btp"; break;
    case ProtoKind::kRandom: name = "Random"; break;
  }
  name += info.param.net == NetKind::kTransitStub ? "TransitStub" : "Geo";
  name += "Seed" + std::to_string(info.param.seed);
  return name;
}

std::unique_ptr<overlay::Protocol> make_protocol(ProtoKind kind) {
  switch (kind) {
    case ProtoKind::kVdm:
      return std::make_unique<core::VdmProtocol>();
    case ProtoKind::kVdmRefine: {
      core::VdmConfig cfg;
      cfg.refinement = true;
      cfg.refinement_period = 40.0;
      return std::make_unique<core::VdmProtocol>(cfg);
    }
    case ProtoKind::kHmtp:
      return std::make_unique<baselines::HmtpProtocol>();
    case ProtoKind::kHmtpFoster: {
      baselines::HmtpConfig cfg;
      cfg.foster_child = true;
      return std::make_unique<baselines::HmtpProtocol>(cfg);
    }
    case ProtoKind::kBtp:
      return std::make_unique<baselines::BtpProtocol>();
    case ProtoKind::kRandom:
      return std::make_unique<baselines::RandomProtocol>();
  }
  return nullptr;
}

std::unique_ptr<net::Underlay> make_net(NetKind kind, util::Rng& rng,
                                        std::size_t hosts) {
  if (kind == NetKind::kTransitStub) {
    topo::TransitStubParams tp;
    tp.transit_domains = 2;
    tp.routers_per_transit = 3;
    tp.stub_domains_per_transit_router = 2;
    tp.routers_per_stub = 3;
    topo::HostAttachment hp;
    hp.num_hosts = hosts;
    return std::make_unique<net::GraphUnderlay>(
        topo::make_transit_stub_underlay(tp, hp, rng));
  }
  topo::GeoParams gp;
  gp.num_hosts = hosts;
  topo::GeoTopology geo = topo::make_geo(gp, rng);
  return std::make_unique<net::MatrixUnderlay>(std::move(geo.underlay));
}

class ProtocolProperties : public testing::TestWithParam<Params> {};

TEST_P(ProtocolProperties, RandomChurnPreservesAllInvariants) {
  const Params p = GetParam();
  util::Rng rng(p.seed);
  constexpr std::size_t kHosts = 24;
  const auto underlay = make_net(p.net, rng, kHosts);
  const auto protocol = make_protocol(p.proto);

  sim::Simulator simulator;
  overlay::SessionParams sp;
  sp.source = 0;
  // Degree limits count the parent link, so a limit-1 member is a pure
  // leaf and an adversarial draw (many limit-1 members) can exhaust total
  // overlay capacity, making further joins impossible. An unsaturable
  // source keeps every join admissible while the saturated-leaf descent
  // guards still get exercised by the limit-1 members below.
  sp.source_degree_limit = static_cast<int>(kHosts);
  sp.paranoid_checks = true;  // validate after every mutating operation
  sp.chunk_rate = 2.0;
  const overlay::DelayMetric metric(0.0);
  overlay::Session session(simulator, *underlay, *protocol, metric, sp,
                           rng.split(1));
  session.start();

  overlay::DegreeSpec degrees = overlay::DegreeSpec::uniform(1, 4);
  std::vector<net::HostId> in;
  std::vector<net::HostId> out;
  for (net::HostId h = 1; h < kHosts; ++h) out.push_back(h);

  sim::Time t = 0.1;
  for (int step = 0; step < 150; ++step) {
    const bool joining = in.empty() || (out.empty() ? false : rng.chance(0.55));
    if (joining) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
      const net::HostId h = out[i];
      out[i] = out.back();
      out.pop_back();
      in.push_back(h);
      const int limit = degrees.sample(rng);
      simulator.schedule_at(t, [&session, h, limit] { session.join(h, limit); });
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(in.size()) - 1));
      const net::HostId h = in[i];
      in[i] = in.back();
      in.pop_back();
      out.push_back(h);
      simulator.schedule_at(t, [&session, h] { session.leave(h); });
    }
    t += rng.uniform(0.5, 5.0);
  }
  simulator.run_until(t + 10.0);

  // Invariant 1-3: structural consistency (validate throws otherwise; it
  // also ran after every operation via paranoid_checks).
  session.tree().validate();

  // Every alive member is connected under the source at quiescence.
  for (const net::HostId h : session.tree().alive_members()) {
    EXPECT_TRUE(session.tree().is_ancestor(session.source(), h))
        << "member " << h << " detached";
  }

  // Invariant 6: metric sanity.
  const metrics::TreeMetrics tm =
      metrics::measure_tree(session.tree(), session.source(), *underlay);
  EXPECT_EQ(tm.members, in.size() + 1);
  if (!in.empty()) {
    EXPECT_GE(tm.stress_avg, 1.0);
    EXPECT_GE(tm.hop_max, 1.0);
    EXPECT_GT(tm.network_usage, 0.0);
  }

  // Counters are consistent.
  const auto& totals = session.totals();
  EXPECT_GE(totals.chunks_delivered, 0u);
  EXPECT_GE(totals.chunks_expected, totals.chunks_delivered);
  EXPECT_GT(totals.control_messages, 0u);
}

TEST_P(ProtocolProperties, CrashChurnRecoversAllInvariants) {
  // Ungraceful crashes with heartbeat detection and a lossy control plane:
  // orphans stay detached for a few probe periods before rejoining, false
  // positives force spurious detach/rejoin cycles, and every exchange may
  // pay retransmissions. After the churn quiesces (every pending detection
  // is long past), the structural invariants must hold and every alive
  // member must be reachable from the source again.
  const Params p = GetParam();
  util::Rng rng(p.seed + 1000);  // decorrelate from the graceful-churn test
  constexpr std::size_t kHosts = 24;
  const auto underlay = make_net(p.net, rng, kHosts);
  const auto protocol = make_protocol(p.proto);

  sim::Simulator simulator;
  overlay::SessionParams sp;
  sp.source = 0;
  sp.source_degree_limit = static_cast<int>(kHosts);  // see above
  sp.paranoid_checks = true;
  sp.chunk_rate = 2.0;
  sp.faults.heartbeat_period = 1.0;
  sp.faults.heartbeat_misses = 2;
  sp.faults.heartbeat_timeout = 0.5;
  sp.faults.lossy_control = true;
  sp.faults.control_loss_extra = 0.02;
  const overlay::DelayMetric metric(0.0);
  overlay::Session session(simulator, *underlay, *protocol, metric, sp,
                           rng.split(1));
  session.start();

  overlay::DegreeSpec degrees = overlay::DegreeSpec::uniform(1, 4);
  std::vector<net::HostId> in;
  std::vector<net::HostId> out;
  for (net::HostId h = 1; h < kHosts; ++h) out.push_back(h);

  sim::Time t = 0.1;
  for (int step = 0; step < 150; ++step) {
    const bool joining = in.empty() || (out.empty() ? false : rng.chance(0.55));
    if (joining) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
      const net::HostId h = out[i];
      out[i] = out.back();
      out.pop_back();
      in.push_back(h);
      const int limit = degrees.sample(rng);
      simulator.schedule_at(t, [&session, h, limit] { session.join(h, limit); });
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(in.size()) - 1));
      const net::HostId h = in[i];
      in[i] = in.back();
      in.pop_back();
      out.push_back(h);
      if (rng.chance(0.5)) {
        simulator.schedule_at(t, [&session, h] { session.crash(h); });
      } else {
        simulator.schedule_at(t, [&session, h] { session.leave(h); });
      }
    }
    t += rng.uniform(0.5, 5.0);
  }
  // Generous quiescence margin: the last possible detection verdict lands
  // heartbeat_misses * period + timeout after the final crash.
  simulator.run_until(t + 60.0);

  session.tree().validate();
  for (const net::HostId h : session.tree().alive_members()) {
    EXPECT_TRUE(session.tree().is_ancestor(session.source(), h))
        << "member " << h << " still detached after recovery quiesced";
  }
  const auto& totals = session.totals();
  EXPECT_GE(totals.chunks_expected, totals.chunks_delivered);
  EXPECT_GT(totals.control_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndSubstrates, ProtocolProperties,
    testing::Values(
        Params{ProtoKind::kVdm, NetKind::kTransitStub, 1},
        Params{ProtoKind::kVdm, NetKind::kTransitStub, 2},
        Params{ProtoKind::kVdm, NetKind::kGeo, 3},
        Params{ProtoKind::kVdm, NetKind::kGeo, 4},
        Params{ProtoKind::kVdmRefine, NetKind::kTransitStub, 5},
        Params{ProtoKind::kVdmRefine, NetKind::kGeo, 6},
        Params{ProtoKind::kHmtp, NetKind::kTransitStub, 7},
        Params{ProtoKind::kHmtp, NetKind::kTransitStub, 8},
        Params{ProtoKind::kHmtp, NetKind::kGeo, 9},
        Params{ProtoKind::kRandom, NetKind::kTransitStub, 10},
        Params{ProtoKind::kRandom, NetKind::kGeo, 11},
        Params{ProtoKind::kHmtpFoster, NetKind::kTransitStub, 12},
        Params{ProtoKind::kHmtpFoster, NetKind::kGeo, 13},
        Params{ProtoKind::kBtp, NetKind::kTransitStub, 14},
        Params{ProtoKind::kBtp, NetKind::kGeo, 15}),
    params_name);

}  // namespace
}  // namespace vdm
