// Tests of the chunk data plane (DESIGN.md §6) over seven churn shapes.
//
// LosslessFlood runs each shape twice over one lossless underlay: once with
// chunks counted from membership (zero_loss() reported true) and once
// through the per-edge flood (zero_loss() reported false). The flood's loss
// draws are all Rng::chance(0), which draws nothing, so both runs consume
// the same rng stream, build the same trees, and must agree bit for bit on
// the totals at every capture, the final totals and every member's chunk
// record.
//
// LossyFlood runs the same shapes over lossy underlays, where every chunk
// takes the flood and draws one loss per delivering edge. Each pins the
// run's totals and a checksum of every member's chunk record to integers
// recorded from a per-chunk tree walk, so a visit order that misses a tree
// change, or a loss draw taken out of order, fails the shape that shows it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "overlay/scenario.hpp"
#include "topology/coord.hpp"
#include "topology/transit_stub.hpp"
#include "util/require.hpp"

namespace vdm::overlay {
namespace {

/// Forwards every read to `inner` and reports `zero_loss` as given. Both
/// runs of a shape go through it: PlacementIndex::bind looks for a
/// CoordUnderlay by dynamic_cast, so wrapping only one run would change its
/// locating and concurrent trees. Counts loss() reads, which tells the two
/// data-plane paths apart.
class ZeroLossSwitch final : public net::Underlay {
 public:
  ZeroLossSwitch(const net::Underlay& inner, bool zero_loss)
      : inner_(inner), zero_loss_(zero_loss) {
    VDM_REQUIRE_MSG(inner.zero_loss(), "the differential needs a lossless underlay");
  }

  std::size_t num_hosts() const override { return inner_.num_hosts(); }
  sim::Time delay(net::HostId a, net::HostId b) const override {
    return inner_.delay(a, b);
  }
  double loss(net::HostId a, net::HostId b) const override {
    ++loss_reads_;
    return inner_.loss(a, b);
  }
  std::vector<net::LinkId> path(net::HostId a, net::HostId b) const override {
    return inner_.path(a, b);
  }
  void for_each_path_link(net::HostId a, net::HostId b,
                          util::FunctionRef<void(net::LinkId)> visit) const override {
    inner_.for_each_path_link(a, b, visit);
  }
  double link_delay(net::LinkId link) const override { return inner_.link_delay(link); }
  std::size_t num_links() const override { return inner_.num_links(); }
  bool zero_loss() const override { return zero_loss_; }

  std::uint64_t loss_reads() const { return loss_reads_; }

 private:
  const net::Underlay& inner_;
  bool zero_loss_;
  mutable std::uint64_t loss_reads_ = 0;
};

struct Shape {
  ScenarioParams scenario;
  SessionParams session;
  std::function<std::unique_ptr<Protocol>()> protocol;
  /// Runs this list through run_trace when set; the slot timeline otherwise.
  std::vector<WorkloadEvent> events;
  /// Called at t = 0.5 of each run, after ScenarioDriver has put the run's
  /// membership events on the simulator.
  std::function<void(Session&)> arm;
};

struct Outcome {
  std::vector<Session::Counters> captures;
  Session::Counters totals;
  std::vector<Session::MemberChunks> members;
  std::uint64_t loss_reads = 0;
};

Outcome run_shape(const net::Underlay& underlay, const Shape& shape) {
  sim::Simulator sim;
  const std::unique_ptr<Protocol> protocol = shape.protocol();
  DelayMetric metric(0.0);
  SessionParams sp = shape.session;
  sp.paranoid_checks = true;  // Session::validate() after every mutation
  Session session(sim, underlay, *protocol, metric, sp, util::Rng(11));
  if (shape.arm) sim.schedule_at(0.5, [&session, &shape] { shape.arm(session); });
  ScenarioDriver driver(session, shape.scenario, util::Rng(12));
  Outcome out;
  const auto capture = [&out, &session](sim::Time) {
    out.captures.push_back(session.totals());
  };
  if (shape.events.empty()) {
    driver.run(capture);
  } else {
    driver.run_trace(shape.events, capture);
  }
  out.totals = session.totals();
  for (net::HostId h = 0; h < underlay.num_hosts(); ++h) {
    out.members.push_back(session.member_chunks(h));
  }
  return out;
}

/// Runs `shape` over `inner` with zero_loss() reported as given.
Outcome run_switched(const net::Underlay& inner, const Shape& shape, bool zero_loss) {
  const ZeroLossSwitch underlay(inner, zero_loss);
  Outcome out = run_shape(underlay, shape);
  out.loss_reads = underlay.loss_reads();
  return out;
}

void expect_same_counters(const Session::Counters& a, const Session::Counters& b,
                          const std::string& where) {
  EXPECT_EQ(a.control_messages, b.control_messages) << where;
  EXPECT_EQ(a.data_transmissions, b.data_transmissions) << where;
  EXPECT_EQ(a.chunks_emitted, b.chunks_emitted) << where;
  EXPECT_EQ(a.chunks_expected, b.chunks_expected) << where;
  EXPECT_EQ(a.chunks_delivered, b.chunks_delivered) << where;
  EXPECT_EQ(a.joins_completed, b.joins_completed) << where;
  EXPECT_EQ(a.reconnects_completed, b.reconnects_completed) << where;
  EXPECT_EQ(a.crashes, b.crashes) << where;
  EXPECT_EQ(a.refines_run, b.refines_run) << where;
  EXPECT_EQ(a.refine_switches, b.refine_switches) << where;
}

/// Runs both paths and compares them; returns the counted run.
Outcome expect_paths_agree(const net::Underlay& inner, const Shape& shape) {
  const Outcome counted = run_switched(inner, shape, /*zero_loss=*/true);
  const Outcome flooded = run_switched(inner, shape, /*zero_loss=*/false);
  // The counted path reads no loss (every shape keeps lossy_control off);
  // the flood reads one per uplink it memoizes.
  EXPECT_EQ(counted.loss_reads, 0u);
  EXPECT_GT(flooded.loss_reads, 0u);
  EXPECT_GT(counted.totals.chunks_emitted, 0u);
  EXPECT_EQ(counted.captures.size(), flooded.captures.size());
  for (std::size_t i = 0;
       i < std::min(counted.captures.size(), flooded.captures.size()); ++i) {
    expect_same_counters(counted.captures[i], flooded.captures[i],
                         "capture " + std::to_string(i));
  }
  expect_same_counters(counted.totals, flooded.totals, "totals");
  EXPECT_EQ(counted.members.size(), flooded.members.size());
  for (std::size_t h = 0;
       h < std::min(counted.members.size(), flooded.members.size()); ++h) {
    EXPECT_EQ(counted.members[h].expected, flooded.members[h].expected) << "host " << h;
    EXPECT_EQ(counted.members[h].received, flooded.members[h].received) << "host " << h;
  }
  return counted;
}

/// Order-sensitive digest of every host's chunk record.
std::uint64_t member_checksum(const std::vector<Session::MemberChunks>& members) {
  std::uint64_t sum = 0;
  for (const Session::MemberChunks& m : members) {
    sum = (sum * 1000003 + m.expected) * 1000003 + m.received;
  }
  return sum;
}

/// Runs `shape` once over a lossy underlay and requires the recorded totals
/// and member checksum; returns the run.
Outcome expect_pinned(const net::Underlay& underlay, const Shape& shape,
                      const Session::Counters& totals, std::uint64_t members) {
  EXPECT_FALSE(underlay.zero_loss());
  const Outcome out = run_shape(underlay, shape);
  expect_same_counters(out.totals, totals, "totals");
  EXPECT_EQ(member_checksum(out.members), members);
  EXPECT_LT(out.totals.chunks_delivered, out.totals.chunks_expected);
  return out;
}

// --- underlays ----------------------------------------------------------

net::CoordUnderlay plane(std::size_t hosts) {
  topo::CoordParams cp;
  cp.num_hosts = hosts;
  cp.space = topo::CoordSpace::kPlane;
  util::Rng rng(5);
  return topo::make_coord(cp, rng);
}

/// A 54-router transit-stub; `loss_max` > 0 gives each router link a drop
/// probability drawn from [0, loss_max].
net::GraphUnderlay transit_stub(std::size_t hosts, double loss_max) {
  topo::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.routers_per_transit = 3;
  tp.stub_domains_per_transit_router = 2;
  tp.routers_per_stub = 4;
  tp.loss_max = loss_max;
  topo::HostAttachment hp;
  hp.num_hosts = hosts;
  util::Rng rng(3);
  return topo::make_transit_stub_underlay(tp, hp, rng);
}

/// The lossy underlay of the LossyFlood shapes: link loss up to 2 %, as in
/// the paper's Chapter 4 setting.
net::GraphUnderlay lossy_transit_stub() { return transit_stub(400, 0.02); }

/// Twelve hosts 2 s apart on a line: whole-second RTTs. `lossy` gives each
/// pair a drop probability of 1–3 %.
net::MatrixUnderlay spaced_line(bool lossy) {
  std::vector<double> position;
  for (int i = 0; i < 12; ++i) position.push_back(2.0 * i);
  net::MatrixUnderlay line = testutil::line_underlay(position);
  if (!lossy) return line;
  const std::size_t n = position.size();
  std::vector<double> delay(n * n);
  std::vector<double> loss(n * n, 0.0);
  for (net::HostId a = 0; a < n; ++a) {
    for (net::HostId b = 0; b < n; ++b) {
      delay[a * n + b] = line.delay(a, b);
      if (a != b) loss[a * n + b] = 0.01 * static_cast<double>(1 + (a + b) % 3);
    }
  }
  return net::MatrixUnderlay(n, std::move(delay), std::move(loss));
}

// --- the seven shapes ---------------------------------------------------

std::function<std::unique_ptr<Protocol>()> vdm(bool refinement = false) {
  return [refinement] {
    core::VdmConfig vc;
    vc.refinement = refinement;
    vc.refinement_period = 5.0;
    return std::make_unique<core::VdmProtocol>(vc);
  };
}

std::function<std::unique_ptr<Protocol>()> hmtp() {
  return [] {
    baselines::HmtpConfig hc;
    hc.refinement_period = 5.0;
    return std::make_unique<baselines::HmtpProtocol>(hc);
  };
}

ScenarioParams churn(std::size_t members, double crash_fraction) {
  ScenarioParams sc;
  sc.target_members = members;
  sc.join_phase = 100.0;
  sc.total_time = 600.0;
  sc.churn_interval = 100.0;
  sc.settle_time = 20.0;
  sc.churn_rate = 0.2;
  sc.crash_fraction = crash_fraction;
  return sc;
}

/// Counts, at one instant and with no playout buffer, the members inside a
/// handshake that sit under another one, and the members already in
/// session that a handshake cuts off.
struct HandshakeCensus {
  std::size_t nested = 0;
  std::size_t in_session_cut_off = 0;

  void take(Session& s) {
    const Membership& t = s.tree();
    const FloodTable& fl = t.flood();
    const sim::Time now = s.reactor().now();
    const auto blocked_at = [&](net::HostId h) {
      return h != s.source() && now < fl.receiving_since[h];
    };
    for (net::HostId h = 0; h < t.num_hosts(); ++h) {
      if (!t.member(h).alive || h == s.source()) continue;
      bool under_blocked = false;
      for (net::HostId a = t.member(h).parent; a != kInvalidHost;
           a = t.member(a).parent) {
        under_blocked = under_blocked || blocked_at(a);
      }
      if (blocked_at(h)) {
        if (under_blocked) ++nested;
      } else if (under_blocked && now >= fl.in_session_since[h]) {
        ++in_session_cut_off;
      }
    }
  }
};

/// Heartbeat detection leaves crash orphans detached for seconds, across
/// many chunks.
Shape crash_orphans() {
  Shape shape;
  shape.scenario = churn(60, 0.5);
  shape.session.chunk_rate = 5.0;
  shape.session.faults.heartbeat_period = 1.0;
  shape.protocol = vdm();
  return shape;
}

/// A buffer shorter than most handshakes: some outages are forgiven, the
/// rest still cut subtrees off.
Shape playout_buffer() {
  Shape shape;
  shape.scenario = churn(80, 0.0);
  shape.session.chunk_rate = 10.0;
  shape.session.buffer_seconds = 0.15;
  shape.protocol = vdm();
  return shape;
}

/// 32 staggered joins, then 96 joiners at t = 50. Under kConcurrent the
/// flash only queues at t = 50; the chunk re-armed at t = 49 fires before
/// the drain scheduled at t = 50, so it sees every flash joiner queued.
/// Adds the flash joiners found queued at that chunk to `queued_at_flash`.
Shape concurrent_flash(std::size_t& queued_at_flash) {
  Shape shape;
  shape.scenario.target_members = 32;
  shape.scenario.join_phase = 40.0;
  shape.scenario.settle_time = 5.0;
  shape.scenario.churn_interval = 20.0;
  shape.scenario.total_time = 120.0;
  shape.session.chunk_rate = 1.0;
  shape.session.join_mode = JoinMode::kConcurrent;
  shape.session.faults.heartbeat_period = 1.0;
  shape.protocol = vdm();
  for (net::HostId h = 1; h <= 32; ++h) {
    shape.events.push_back({static_cast<double>(h), WorkloadEvent::Kind::kJoin, h, 3});
  }
  for (net::HostId h = 33; h <= 128; ++h) {
    shape.events.push_back({50.0, WorkloadEvent::Kind::kJoin, h, 3});
  }
  shape.events.push_back({70.0, WorkloadEvent::Kind::kCrash, 2, 3});
  shape.events.push_back({80.0, WorkloadEvent::Kind::kLeave, 5, 3});
  // Scheduled at t = 0.5, after the executor's events and before the chunk
  // re-arm of t = 49: fires between the flash joins and that chunk.
  shape.arm = [&queued_at_flash](Session& s) {
    s.reactor().schedule_at(50.0, [&queued_at_flash, &s] {
      for (net::HostId h = 33; h <= 128; ++h) {
        const MemberState& m = s.tree().member(h);
        if (m.alive && m.parent == kInvalidHost) ++queued_at_flash;
      }
    });
  };
  return shape;
}

/// A sequential flash crowd runs 200 joins back to back at one instant:
/// VDM's Case II splices put settled members under joiners whose
/// handshakes are still running, and later joiners attach under earlier
/// ones, so handshake subtrees nest. `census` is taken just after.
Shape nested_handshakes(HandshakeCensus& census) {
  Shape shape;
  shape.scenario = churn(100, 0.0);
  shape.scenario.flash_count = 200;
  shape.scenario.flash_at = 150.0;
  shape.session.chunk_rate = 10.0;
  shape.protocol = vdm();
  shape.arm = [&census](Session& s) {
    s.reactor().schedule_at(150.001, [&census, &s] { census.take(s); });
  };
  return shape;
}

/// On spaced_line(), joins and chunk times are whole seconds: handshakes
/// end exactly on a chunk, which the member is already expected to see.
/// `on_a_chunk` counts the members whose in_session_since is a whole second.
Shape chunk_on_entry(std::size_t& on_a_chunk) {
  Shape shape;
  shape.scenario.target_members = 8;
  shape.scenario.join_phase = 20.0;
  shape.scenario.settle_time = 5.0;
  shape.scenario.churn_interval = 20.0;
  shape.scenario.total_time = 80.0;
  shape.session.chunk_rate = 1.0;
  shape.protocol = vdm();
  for (net::HostId h = 1; h <= 8; ++h) {
    shape.events.push_back({static_cast<double>(h), WorkloadEvent::Kind::kJoin, h, 3});
  }
  shape.events.push_back({40.0, WorkloadEvent::Kind::kLeave, 3, 3});
  shape.events.push_back({41.0, WorkloadEvent::Kind::kJoin, 9, 3});
  shape.arm = [&on_a_chunk](Session& s) {
    s.reactor().schedule_at(79.5, [&on_a_chunk, &s] {
      for (net::HostId h = 1; h < s.tree().num_hosts(); ++h) {
        const sim::Time at = s.tree().flood().in_session_since[h];
        if (s.tree().member(h).alive && at == std::floor(at)) ++on_a_chunk;
      }
    });
  };
  return shape;
}

/// Crash churn under heartbeats with `protocol`'s 5 s refinement moving
/// members between chunks.
Shape refinement(std::function<std::unique_ptr<Protocol>()> protocol) {
  Shape shape;
  shape.scenario = churn(80, 0.3);
  shape.session.chunk_rate = 5.0;
  shape.session.faults.heartbeat_period = 1.0;
  shape.protocol = std::move(protocol);
  return shape;
}

// --- lossless: the count against the flood ----------------------------

TEST(LosslessFlood, CrashOrphansPendingAtChunkTime) {
  // Transit-stub routers with lossless links: GraphUnderlay reports
  // zero_loss(), so the Ch.3 shapes take the counted path too.
  const net::GraphUnderlay inner = transit_stub(120, 0.0);
  ASSERT_TRUE(inner.zero_loss());
  const Outcome out = expect_paths_agree(inner, crash_orphans());
  EXPECT_GT(out.totals.crashes, 0u);
  EXPECT_LT(out.totals.chunks_delivered, out.totals.chunks_expected);
}

TEST(LosslessFlood, PlayoutBufferWithLeaves) {
  const Outcome out = expect_paths_agree(plane(200), playout_buffer());
  EXPECT_LT(out.totals.chunks_delivered, out.totals.chunks_expected);
}

TEST(LosslessFlood, ConcurrentFlashWithAChunkBetweenJoinAndDrain) {
  std::size_t queued_at_flash = 0;
  expect_paths_agree(plane(160), concurrent_flash(queued_at_flash));
  EXPECT_EQ(queued_at_flash, 2u * 96u);  // both runs saw the whole flash queued
}

TEST(LosslessFlood, CaseTwoAdoptionsUnderNestedHandshakes) {
  HandshakeCensus census;
  expect_paths_agree(plane(400), nested_handshakes(census));
  EXPECT_GT(census.nested, 0u);
  EXPECT_GT(census.in_session_cut_off, 0u);
}

TEST(LosslessFlood, ChunkAtTheInstantAMemberEntersTheSession) {
  std::size_t on_a_chunk = 0;
  expect_paths_agree(spaced_line(/*lossy=*/false), chunk_on_entry(on_a_chunk));
  EXPECT_GT(on_a_chunk, 0u);
}

TEST(LosslessFlood, VdmRefinementMovesMembers) {
  const Outcome out = expect_paths_agree(plane(200), refinement(vdm(true)));
  EXPECT_GT(out.totals.refine_switches, 0u);
}

TEST(LosslessFlood, HmtpRefinementMovesMembers) {
  const Outcome out = expect_paths_agree(plane(200), refinement(hmtp()));
  EXPECT_GT(out.totals.refine_switches, 0u);
}

// --- lossy: the flood against recorded integers -----------------------
//
// Session::Counters in declaration order: control_messages,
// data_transmissions, chunks_emitted, chunks_expected, chunks_delivered,
// joins_completed, reconnects_completed, crashes, refines_run,
// refine_switches.

TEST(LossyFlood, CrashOrphansPendingAtChunkTime) {
  const Outcome out = expect_pinned(
      lossy_transit_stub(), crash_orphans(),
      {69817, 137201, 3000, 163812, 132323, 108, 56, 25, 0, 0},
      8598785156449572924u);
  EXPECT_GT(out.totals.crashes, 0u);
}

TEST(LossyFlood, PlayoutBufferWithLeaves) {
  expect_pinned(
      lossy_transit_stub(), playout_buffer(),
      {6142, 385406, 5999, 435313, 374220, 144, 68, 0, 0, 0},
      7280230016788662437u);
}

TEST(LossyFlood, ConcurrentFlashWithAChunkBetweenJoinAndDrain) {
  std::size_t queued_at_flash = 0;
  expect_pinned(
      lossy_transit_stub(), concurrent_flash(queued_at_flash),
      {24978, 7966, 120, 9907, 7828, 128, 4, 1, 0, 0},
      6518788045616946683u);
  EXPECT_EQ(queued_at_flash, 96u);
}

TEST(LossyFlood, CaseTwoAdoptionsUnderNestedHandshakes) {
  HandshakeCensus census;
  expect_pinned(
      lossy_transit_stub(), nested_handshakes(census),
      {20078, 1218996, 5999, 1445136, 1186141, 380, 87, 0, 0, 0},
      443060123917988592u);
  EXPECT_GT(census.nested, 0u);
  EXPECT_GT(census.in_session_cut_off, 0u);
}

TEST(LossyFlood, ChunkAtTheInstantAMemberEntersTheSession) {
  std::size_t on_a_chunk = 0;
  expect_pinned(
      spaced_line(/*lossy=*/true), chunk_on_entry(on_a_chunk),
      {272, 262, 80, 199, 183, 9, 1, 0, 0, 0},
      9257791151742961626u);
  EXPECT_GT(on_a_chunk, 0u);
}

TEST(LossyFlood, VdmRefinementMovesMembers) {
  const Outcome out = expect_pinned(
      lossy_transit_stub(), refinement(vdm(true)),
      {577514, 193680, 3000, 219300, 189490, 144, 56, 23, 8732, 1144},
      6883644109464425798u);
  EXPECT_GT(out.totals.refine_switches, 0u);
}

TEST(LossyFlood, HmtpRefinementMovesMembers) {
  // Here an HMTP refinement inside a crash-orphan subtree finds the orphan
  // root, still awaiting its verdict, as the closest member: the switch is
  // refused (hanging a member there would exceed the root's degree limit
  // once it rejoins), which paranoid_checks would otherwise flag.
  const Outcome out = expect_pinned(
      lossy_transit_stub(), refinement(hmtp()),
      {339392, 181951, 3000, 218989, 178336, 144, 58, 23, 8734, 167},
      16596589593236928415u);
  EXPECT_GT(out.totals.refine_switches, 0u);
}

TEST(SessionPartition, ValidateRejectsAMemberOutsideThePartition) {
  // The lossless count needs every alive member besides the source to hang
  // under the source, wait in the join queue or lie in a crash-orphan
  // subtree. A member detached any other way breaks it.
  core::VdmProtocol protocol;
  testutil::Harness h(testutil::line_underlay({0.0, 10.0, 20.0}), protocol);
  h.join(1);
  h.join(2);
  EXPECT_NO_THROW(h.session.validate());
  h.session.tree().detach(2);
  EXPECT_THROW(h.session.validate(), util::InvariantError);
}

TEST(SessionPartition, MemberChunksCoverTheStintAndClearOnDeparture) {
  core::VdmProtocol protocol;
  testutil::Harness h(testutil::line_underlay({0.0, 10.0, 20.0}), protocol, 8, 1,
                      /*chunk_rate=*/5.0);
  h.join(1);
  h.join(2);
  // Line underlay RTTs are tens of seconds: well past both handshakes.
  h.sim.run_until(100.0);
  const Session::MemberChunks one = h.session.member_chunks(1);
  EXPECT_GT(one.expected, 0u);
  EXPECT_LT(one.expected, h.session.totals().chunks_emitted);
  EXPECT_EQ(one.received, one.expected);  // clean static network
  h.session.leave(1);
  EXPECT_EQ(h.session.member_chunks(1).expected, 0u);
  EXPECT_EQ(h.session.member_chunks(1).received, 0u);
  EXPECT_GT(h.session.member_chunks(2).expected, 0u);
}

}  // namespace
}  // namespace vdm::overlay
