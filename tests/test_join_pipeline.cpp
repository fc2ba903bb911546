// Concurrent-join pipeline and locating-first placement (DESIGN.md §10):
// reservation semantics (no slot double-grant, counts drained to zero),
// mid-batch tree validity, park/wake completion under hard contention,
// batch-grouping invariance, worker-count bit-identicality, and the
// concurrent path's own determinism goldens.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/btp_protocol.hpp"
#include "baselines/hmtp_protocol.hpp"
#include "baselines/random_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "experiments/runner.hpp"
#include "helpers.hpp"
#include "net/coord_underlay.hpp"
#include "overlay/placement.hpp"
#include "overlay/scenario.hpp"
#include "overlay/walk.hpp"
#include "topology/coord.hpp"

namespace vdm::overlay {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

enum class Which { kVdm, kHmtp, kBtp, kRandom };

/// Protocols with periodic refinement disabled: these suites exercise the
/// join pipeline only, and a periodic refine timer re-arms forever, which
/// would keep sim.run() from ever draining.
std::unique_ptr<Protocol> make_protocol(Which which) {
  switch (which) {
    case Which::kVdm:
      return std::make_unique<core::VdmProtocol>(core::VdmConfig{});
    case Which::kHmtp: {
      baselines::HmtpConfig hc;
      hc.refinement = false;
      return std::make_unique<baselines::HmtpProtocol>(hc);
    }
    case Which::kBtp: {
      baselines::BtpConfig bc;
      bc.refinement = false;
      return std::make_unique<baselines::BtpProtocol>(bc);
    }
    case Which::kRandom:
      return std::make_unique<baselines::RandomProtocol>();
  }
  return nullptr;
}

const char* which_name(Which which) {
  switch (which) {
    case Which::kVdm: return "Vdm";
    case Which::kHmtp: return "Hmtp";
    case Which::kBtp: return "Btp";
    case Which::kRandom: return "Random";
  }
  return "?";
}

/// Mid-batch invariant probe: runs on every walk iteration of the drain.
/// The tree must validate between turns (mutations only happen in complete
/// commit turns), reservation counts must never go negative, and — for the
/// non-splice protocols, whose stops all pass the reservation-aware
/// can_accept — links + reserved must never exceed a node's degree limit
/// (the no-double-grant property). VDM's Case II splice legitimately
/// reserves at a full parent (the splice funds its own slot), so the
/// over-commit check is skipped for it.
class InvariantProbe final : public WalkObserver {
 public:
  InvariantProbe(Session& session, bool check_overcommit)
      : session_(&session), check_overcommit_(check_overcommit) {}

  void on_step(const WalkStep&) override {
    ++steps_;
    session_->tree().validate();
    const std::vector<int>& reserved = session_->join_reservations();
    for (net::HostId h = 0; h < reserved.size(); ++h) {
      ASSERT_GE(reserved[h], 0) << "negative reservation count at " << h;
      const MemberState& m = session_->tree().member(h);
      if (!m.alive) {
        ASSERT_EQ(reserved[h], 0) << "reservation on a dead host " << h;
        continue;
      }
      if (check_overcommit_) {
        ASSERT_LE(m.overlay_links() + reserved[h], m.degree_limit)
            << "slot double-grant at host " << h;
      }
    }
  }

  int steps() const { return steps_; }

 private:
  Session* session_;
  bool check_overcommit_;
  int steps_ = 0;
};

/// A line underlay, a concurrent-mode session, and a flash of `burst`
/// joiners at t = 1.0 with uniform `degree` limits.
struct PipelineRig {
  std::unique_ptr<Protocol> protocol;
  sim::Simulator sim;
  net::MatrixUnderlay underlay;
  DelayMetric metric;
  Session session;

  PipelineRig(Which which, std::size_t hosts, JoinMode mode,
              std::unique_ptr<Protocol> proto = nullptr)
      : protocol(proto ? std::move(proto) : make_protocol(which)),
        underlay(testutil::line_underlay(positions(hosts))), metric(0.0),
        session(sim, underlay, *protocol, metric, params(mode), util::Rng(7)) {}

  static std::vector<double> positions(std::size_t hosts) {
    std::vector<double> pos(hosts);
    // Irregular spacing so probe distances break ties deterministically
    // but not trivially.
    for (std::size_t i = 0; i < hosts; ++i) {
      pos[i] = static_cast<double>(i) * 10.0 +
               static_cast<double>((i * 7) % 5);
    }
    return pos;
  }

  static SessionParams params(JoinMode mode) {
    SessionParams sp;
    sp.source = 0;
    sp.source_degree_limit = 4;
    sp.chunk_rate = 2.0;
    sp.data_plane = false;
    sp.paranoid_checks = true;
    sp.join_mode = mode;
    return sp;
  }

  void flash(net::HostId first, net::HostId last, int degree) {
    for (net::HostId h = first; h <= last; ++h) {
      sim.schedule_at(1.0, [this, h, degree] { session.join(h, degree); });
    }
  }
};

struct Case {
  Which which;
};

class JoinPipeline : public ::testing::TestWithParam<Case> {};

TEST_P(JoinPipeline, FlashAttachesEveryoneAndDrainsReservations) {
  PipelineRig rig(GetParam().which, 40, JoinMode::kConcurrent);
  InvariantProbe probe(rig.session,
                       /*check_overcommit=*/GetParam().which != Which::kVdm);
  rig.protocol->set_walk_observer(&probe);
  rig.session.start();
  rig.flash(1, 39, /*degree=*/3);
  rig.sim.run();

  EXPECT_GT(probe.steps(), 0);
  EXPECT_EQ(rig.session.tree().alive_count(), 40u);
  for (net::HostId h = 1; h < 40; ++h) {
    EXPECT_NE(rig.session.tree().member(h).parent, net::kInvalidHost)
        << "host " << h << " not attached";
  }
  rig.session.tree().validate();
  for (const int r : rig.session.join_reservations()) {
    EXPECT_EQ(r, 0) << "reservation survived the drain";
  }
  EXPECT_EQ(rig.session.totals().joins_completed, 39u);
  EXPECT_EQ(rig.session.join_cohort_size(), 39u);
  EXPECT_GT(rig.session.join_cohort_span(), 0.0);
}

TEST_P(JoinPipeline, Degree2ContentionParksAndStillCompletes) {
  // Every joiner offers a single child slot (limit 2 = uplink + one), so
  // most of the batch dead-ends on reservations, parks, and must be woken
  // by commits — the chain can only grow a few slots per round.
  PipelineRig rig(GetParam().which, 24, JoinMode::kConcurrent);
  rig.session.start();
  rig.flash(1, 23, /*degree=*/2);
  rig.sim.run();

  EXPECT_EQ(rig.session.tree().alive_count(), 24u);
  for (net::HostId h = 1; h < 24; ++h) {
    EXPECT_NE(rig.session.tree().member(h).parent, net::kInvalidHost);
  }
  rig.session.tree().validate();
  for (const int r : rig.session.join_reservations()) EXPECT_EQ(r, 0);
}

TEST_P(JoinPipeline, BatchTreeInvariantToJoinCallGrouping) {
  // All arrivals at one timestamp form one drain batch whether they were
  // scheduled as 39 separate events or one event issuing every join() —
  // the drain runs behind the last same-time event either way.
  PipelineRig one_by_one(GetParam().which, 40, JoinMode::kConcurrent);
  one_by_one.session.start();
  one_by_one.flash(1, 39, 3);
  one_by_one.sim.run();

  PipelineRig grouped(GetParam().which, 40, JoinMode::kConcurrent);
  grouped.session.start();
  grouped.sim.schedule_at(1.0, [&grouped] {
    for (net::HostId h = 1; h <= 39; ++h) grouped.session.join(h, 3);
  });
  grouped.sim.run();

  for (net::HostId h = 1; h < 40; ++h) {
    EXPECT_EQ(one_by_one.session.tree().member(h).parent,
              grouped.session.tree().member(h).parent)
        << "host " << h << " parent depends on join() grouping";
  }
}

TEST_P(JoinPipeline, LocatingModeBuildsAValidTreeWithStaggeredJoins) {
  PipelineRig rig(GetParam().which, 40, JoinMode::kLocating);
  rig.session.start();
  for (net::HostId h = 1; h < 40; ++h) {
    rig.sim.schedule_at(static_cast<double>(h), [&rig, h] {
      rig.session.join(h, 3);
    });
  }
  rig.sim.run();

  EXPECT_EQ(rig.session.tree().alive_count(), 40u);
  for (net::HostId h = 1; h < 40; ++h) {
    EXPECT_NE(rig.session.tree().member(h).parent, net::kInvalidHost);
  }
  rig.session.tree().validate();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, JoinPipeline,
    ::testing::Values(Case{Which::kVdm}, Case{Which::kHmtp},
                      Case{Which::kBtp}, Case{Which::kRandom}),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return which_name(tpi.param.which);
    });

TEST(JoinPipelinePlacement, GridIndexFindsNearNeighborsOnCoordUnderlay) {
  // Euclidean coordinate underlay: the placement index runs in grid mode
  // (coordinate nearest-neighbor), so a joiner's walk starts at an attached
  // member near it, not at the source.
  const std::size_t n = 64;
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(i % 8) * 10.0;
    ys[i] = static_cast<double>(i / 8) * 10.0;
  }
  net::CoordUnderlay underlay(net::CoordUnderlay::Params{}, std::move(xs),
                              std::move(ys));
  auto protocol = std::make_unique<core::VdmProtocol>(core::VdmConfig{});
  sim::Simulator sim;
  DelayMetric metric(0.0);
  SessionParams sp = PipelineRig::params(JoinMode::kConcurrent);
  Session session(sim, underlay, *protocol, metric, sp, util::Rng(7));
  session.start();
  for (net::HostId h = 1; h < n; ++h) {
    sim.schedule_at(1.0, [&session, h] { session.join(h, 4); });
  }
  sim.run();

  EXPECT_EQ(session.tree().alive_count(), n);
  session.tree().validate();
  for (const int r : session.join_reservations()) EXPECT_EQ(r, 0);
}

// --- worker-count and grouping invariance at experiment scale ------------

experiments::RunConfig flash_config() {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordUs;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 48;
  cfg.scenario.flash_count = 96;
  cfg.scenario.flash_at = 400.0;
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.01;
  cfg.session.chunk_rate = 0.1;
  cfg.session.join_mode = JoinMode::kConcurrent;
  cfg.compute_mst_ratio = false;
  cfg.seed = 3;
  return cfg;
}

std::vector<double> scalars(const experiments::RunResult& r) {
  return {r.stress, r.stretch, r.hopcount, r.loss, r.overhead,
          r.startup_avg, r.startup_max, r.startup_p50, r.startup_p99,
          r.join_rate, static_cast<double>(r.final_members)};
}

TEST(JoinPipelineDeterminism, FlashCrowdBitIdenticalAcrossWorkerCounts) {
  const experiments::RunConfig cfg = flash_config();
  const std::size_t seeds = 3;
  const experiments::AggregateResult t1 = experiments::run_many(cfg, seeds, 1);
  const experiments::AggregateResult t2 = experiments::run_many(cfg, seeds, 2);
  const experiments::AggregateResult t0 = experiments::run_many(cfg, seeds, 0);
  ASSERT_EQ(t1.runs.size(), seeds);
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::vector<double> a = scalars(t1.runs[i]);
    const std::vector<double> b = scalars(t2.runs[i]);
    const std::vector<double> c = scalars(t0.runs[i]);
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(hex(a[f]), hex(b[f])) << "seed " << i << " field " << f;
      EXPECT_EQ(hex(a[f]), hex(c[f])) << "seed " << i << " field " << f;
    }
  }
}

TEST(JoinPipelineDeterminism, ConcurrentFlashGoldens) {
  // Hexfloat pin of the concurrent path (sequential goldens live in
  // test_walk.cpp and must not move; these may only move with an announced
  // pipeline behavior change).
  const experiments::RunResult r = experiments::run_once(flash_config());
  EXPECT_EQ(r.final_members, 145u);
  EXPECT_EQ(hex(r.stretch), "0x1.9adc21d4c206dp+0");
  EXPECT_EQ(hex(r.hopcount), "0x1.4000000000001p+3");
  EXPECT_EQ(hex(r.startup_avg), "0x1.3d303d5d3f55cp-4");
  EXPECT_EQ(hex(r.startup_p99), "0x1.0f5d6d509db6ep-2");
  EXPECT_EQ(hex(r.join_rate), "0x1.4a9cc9391fd7p+8");
}

/// Runs joins of hosts 1..3 at t = 1..3 and `departure` of host 3 at t = 3
/// through the event executor, concurrent mode, heartbeats on. The executor
/// schedules the whole list up front, so the departure fires before the
/// drain that host 3's join queued with schedule_in(0): it meets a joiner
/// that is still in the queue.
void depart_while_queued(WorkloadEvent::Kind departure) {
  topo::CoordParams cp;
  cp.num_hosts = 16;
  cp.space = topo::CoordSpace::kPlane;
  util::Rng topo_rng(5);
  const net::CoordUnderlay underlay = topo::make_coord(cp, topo_rng);
  core::VdmProtocol protocol;
  sim::Simulator sim;
  DelayMetric metric(0.0);
  SessionParams sp;
  sp.join_mode = JoinMode::kConcurrent;
  sp.chunk_rate = 4.0;
  sp.paranoid_checks = true;
  sp.faults.heartbeat_period = 1.0;
  Session session(sim, underlay, protocol, metric, sp, util::Rng(3));
  ScenarioParams sc;
  sc.target_members = 8;
  sc.join_phase = 4.0;
  sc.settle_time = 1.0;
  sc.churn_interval = 3.0;
  sc.total_time = 10.0;
  ScenarioDriver driver(session, sc, util::Rng(4));
  const std::vector<WorkloadEvent> events{
      {1.0, WorkloadEvent::Kind::kJoin, 1, 4},
      {2.0, WorkloadEvent::Kind::kJoin, 2, 4},
      {3.0, WorkloadEvent::Kind::kJoin, 3, 4},
      {3.0, departure, 3, 4},
  };
  std::size_t checks = 0;
  driver.run_trace(events, [&session, &checks](sim::Time) {
    session.validate();
    ++checks;
  });
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(driver.members_alive(), 2u);
  EXPECT_EQ(session.tree().alive_count(), 3u);  // the source, hosts 1 and 2
  EXPECT_FALSE(session.tree().member(3).alive);
  EXPECT_EQ(session.totals().joins_completed, 2u);
  EXPECT_EQ(session.totals().chunks_expected, session.totals().chunks_delivered);
  EXPECT_GT(session.member_chunks(2).expected, 0u);
  EXPECT_EQ(session.member_chunks(3).expected, 0u);
}

TEST(JoinPipelineQueue, LeaveOfAQueuedJoinerDropsItFromTheBatch) {
  depart_while_queued(WorkloadEvent::Kind::kLeave);
}

TEST(JoinPipelineQueue, CrashOfAQueuedJoinerDropsItFromTheBatch) {
  depart_while_queued(WorkloadEvent::Kind::kCrash);
}

}  // namespace
}  // namespace vdm::overlay
