#include "overlay/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "overlay/detector.hpp"
#include "overlay/placement.hpp"
#include "overlay/walk.hpp"
#include "util/require.hpp"

namespace vdm::overlay {

namespace {

/// Session::detector_rng_'s stream id under the session's Rng.
constexpr std::uint64_t kDetectorStream = 1;

/// Session::arm_detector's time for "no event".
constexpr sim::Time kNever = std::numeric_limits<double>::infinity();

/// Scoped wall-clock accumulator for SessionParams::profile. Disabled it is
/// one branch and no clock reads, so the default (profile off) hot paths
/// are untouched. Phase entry points never nest (joins, drains, refines and
/// floods are distinct simulator events), so each second lands in exactly
/// one bucket.
class PhaseTimer {
 public:
  PhaseTimer(bool enabled, double& sink) : sink_(enabled ? &sink : nullptr) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (sink_ != nullptr) {
      *sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start_)
                    .count();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

OpStats Protocol::execute_join(Session& session, net::HostId joiner,
                               net::HostId start) {
  PipelineSupport* support = pipeline_support();
  VDM_REQUIRE_MSG(support != nullptr,
                  "a protocol without a step policy must override execute_join");
  OpStats stats;
  PolicySlot slot;
  TreeWalk walk(session, walk_observer());
  const TreeWalk::Action stop = walk.run(*support, slot, joiner, start, stats);
  walk.commit(*support, slot, stop, stats);
  return stats;
}

OpStats Protocol::execute_refine(Session&, net::HostId) { return {}; }

void check_chunk_budget(const SessionParams& params, sim::Time horizon) {
  VDM_REQUIRE_MSG(!params.data_plane || horizon * params.chunk_rate < 0x1p32,
                  "chunk_rate x the run's end time must be below 2^32 chunks "
                  "(the per-member chunk records are 32-bit)");
}

Session::Session(sim::Reactor& reactor, const net::Underlay& underlay,
                 Protocol& protocol, const MetricProvider& metric,
                 const SessionParams& params, util::Rng rng)
    : reactor_(reactor), underlay_(underlay), protocol_(protocol),
      metric_(metric), params_(params), rng_(rng),
      detector_rng_(rng.split(kDetectorStream)) {
  // scratch_ stays empty until start(): an arena caller swaps warm buffers
  // in between construction and start(), and sizing them here would put
  // unavoidable allocations on that otherwise allocation-free path.
  VDM_REQUIRE(params_.source < underlay.num_hosts());
  VDM_REQUIRE_MSG(std::isfinite(params_.chunk_rate) && params_.chunk_rate > 0.0,
                  "chunk_rate must be finite and > 0");
  VDM_REQUIRE_MSG(std::isfinite(params_.buffer_seconds) && params_.buffer_seconds >= 0.0,
                  "buffer_seconds must be finite and >= 0");
  const FaultParams& f = params_.faults;
  VDM_REQUIRE_MSG(f.control_loss_extra >= 0.0 && f.control_loss_extra <= 1.0,
                  "control_loss_extra must lie in [0, 1]");
  VDM_REQUIRE_MSG(std::isfinite(f.heartbeat_period) && f.heartbeat_period >= 0.0,
                  "heartbeat_period must be finite and >= 0 (0 = off)");
  if (f.heartbeat_period > 0.0) {
    VDM_REQUIRE_MSG(f.heartbeat_misses >= 1, "heartbeat_misses must be >= 1");
    VDM_REQUIRE_MSG(std::isfinite(f.heartbeat_timeout) && f.heartbeat_timeout >= 0.0,
                    "heartbeat_timeout must be finite and >= 0");
  }
  if (f.lossy_control) {
    VDM_REQUIRE_MSG(std::isfinite(f.retry_timeout) && f.retry_timeout >= 0.0,
                    "retry_timeout must be finite and >= 0");
    VDM_REQUIRE_MSG(std::isfinite(f.retry_timeout_max) && f.retry_timeout_max >= 0.0,
                    "retry_timeout_max must be finite and >= 0");
    VDM_REQUIRE_MSG(std::isfinite(f.backoff_factor) && f.backoff_factor > 0.0,
                    "backoff_factor must be finite and > 0");
    VDM_REQUIRE_MSG(f.max_retries >= 0, "max_retries must be >= 0");
  }
}

Session::~Session() { stop(); }

void Session::start() {
  VDM_REQUIRE_MSG(!started_, "start() called twice");
  if (protocol_.wants_refinement()) {
    const sim::Time period = protocol_.refinement_period();
    VDM_REQUIRE_MSG(std::isfinite(period) && period > 0.0,
                    "refinement_period must be finite and > 0");
  }
  started_ = true;
  profile_ = PhaseProfile{};
  // Unconditional: a swapped-in warm tree has matching size but stale
  // members (and a previous run's observer); a fresh or undersized one
  // needs the resize. Same-size resets only clear, so the arena path stays
  // allocation-free.
  tree().reset(underlay_.num_hosts());
  // A swapped-in refine slab may hold EventIds from a previous run on this
  // arena; they are meaningless (and dangerous) after the simulator reset.
  // Likewise a join batch that was still queued when that run ended.
  std::fill(scratch_.walk.refine_events.begin(),
            scratch_.walk.refine_events.end(), sim::kInvalidEvent);
  scratch_.walk.pending_joins.clear();
  // Swapped-in record accumulators may hold entries pushed after the previous
  // run's final drain; they belong to that run, not this one. The same goes
  // for heartbeat timer ids and pending crash orphans. The heartbeat slab is
  // sized only when heartbeats are on, so runs without them touch no memory.
  scratch_.startup_records.clear();
  scratch_.reconnect_records.clear();
  scratch_.heartbeats.assign(
      params_.faults.heartbeat_period > 0.0 ? underlay_.num_hosts() : 0,
      HeartbeatState{});
  scratch_.crash_orphans.clear();
  scratch_.handshakes.clear();
  in_session_ = 0;
  reach_epoch_ = 0;
  lossless_ = underlay_.zero_loss();
  tree().activate(params_.source, params_.source_degree_limit);
  tree().flood().in_session_since[params_.source] = reactor_.now();
  if (params_.join_mode != JoinMode::kSequential) {
    VDM_REQUIRE_MSG(params_.join_mode != JoinMode::kConcurrent ||
                        protocol_.pipeline_support() != nullptr,
                    "join_mode=concurrent requires a protocol with pipeline "
                    "support");
    scratch_.placement.bind(underlay_, params_.source);
    scratch_.placement.insert(params_.source);
  }
  // The placement index and the journal follow every attach and detach;
  // over a lossy control plane the failure detector re-samples at every
  // parent change.
  if (journal_ != nullptr) journal_->start(reactor_);
  if (params_.join_mode != JoinMode::kSequential || journal_ != nullptr ||
      (params_.faults.heartbeat_period > 0.0 && params_.faults.lossy_control)) {
    tree().set_observer(this);
  }
  if (params_.data_plane) {
    stream_event_ = reactor_.schedule_every(1.0 / params_.chunk_rate,
                                            [this] { emit_chunk(); });
  }
}

void Session::stop() {
  if (stream_event_ != sim::kInvalidEvent) {
    reactor_.cancel(stream_event_);
    stream_event_ = sim::kInvalidEvent;
  }
  // A drain event scheduled behind us may still fire; emptied, it no-ops.
  scratch_.walk.pending_joins.clear();
  for (sim::EventId& id : scratch_.walk.refine_events) {
    if (id != sim::kInvalidEvent) reactor_.cancel(id);
    id = sim::kInvalidEvent;
  }
  for (HeartbeatState& hb : scratch_.heartbeats) {
    settle_heartbeat(hb);
    if (hb.event != sim::kInvalidEvent) reactor_.cancel(hb.event);
  }
  scratch_.heartbeats.clear();
  scratch_.crash_orphans.clear();
}

TimingRecord Session::join(net::HostId h, int degree_limit) {
  VDM_REQUIRE(started_);
  VDM_REQUIRE_MSG(h != params_.source, "the source does not join");
  tree().activate(h, degree_limit);

  if (params_.join_mode == JoinMode::kConcurrent) {
    // Activated but still detached: no chunk reaches it and it is never an
    // eligible parent. A leave or crash before the drain takes it off the
    // queue (forget_pending_join), and the lossless chunk count subtracts
    // the queue. One drain event per timestamp services the whole batch.
    scratch_.walk.pending_joins.push_back({h, degree_limit});
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      // schedule_in(0) sequences the drain after every event already queued
      // at this timestamp — late same-time arrivals still make this batch.
      reactor_.schedule_in(0.0, [this] { drain_join_batch(); });
    }
    TimingRecord placeholder;
    placeholder.at = reactor_.now();
    placeholder.host = h;
    return placeholder;
  }

  OpStats pre;
  net::HostId start = params_.source;
  if (params_.join_mode == JoinMode::kLocating) start = locate_entry(h, pre);
  const TimingRecord rec =
      run_join(h, start, /*is_reconnect=*/false, /*detection=*/0.0, pre);
  if (params_.paranoid_checks) validate();
  return rec;
}

net::HostId Session::locate_entry(net::HostId h, OpStats& stats) {
  // The joiner's one contact with the rendezvous point (co-located with the
  // source): request + response carrying the candidate entry node.
  charge_exchange(h, params_.source, stats);
  const net::HostId found = scratch_.placement.locate(h, *this, stats);
  if (found == kInvalidHost || !eligible_parent(h, found)) {
    return params_.source;
  }
  return found;
}

TimingRecord Session::run_join(net::HostId h, net::HostId start, bool is_reconnect,
                               sim::Time detection, OpStats pre) {
  const PhaseTimer timer(params_.profile, profile_.join_secs);
  OpStats stats = pre;
  stats += protocol_.execute_join(*this, h, start);
  return finish_join(h, stats, is_reconnect, detection);
}

TimingRecord Session::finish_join(net::HostId h, const OpStats& stats,
                                  bool is_reconnect, sim::Time detection) {
  VDM_REQUIRE_MSG(tree().member(h).parent != kInvalidHost,
                  "protocol join must attach the node");
  totals_.control_messages += stats.messages;

  TimingRecord rec;
  rec.at = reactor_.now();
  rec.host = h;
  rec.duration = stats.elapsed;
  rec.detection = detection;
  rec.messages = stats.messages;
  rec.iterations = stats.iterations;

  // The node (and transitively its subtree, which the data plane blocks
  // through this node) starts receiving once the join handshake finishes.
  tree().flood().receiving_since[h] = reactor_.now() + stats.elapsed;

  if (is_reconnect) {
    scratch_.reconnect_records.push_back(rec);
    ++totals_.reconnects_completed;
  } else {
    scratch_.startup_records.push_back(rec);
    ++totals_.joins_completed;
    // Same-instant arrival cohorts (finish_join calls of one cohort are
    // contiguous: sequential joins run back-to-back events at one
    // timestamp, a concurrent batch commits inside one drain event). The
    // largest cohort is the flash crowd when one was scheduled.
    if (rec.at == cohort_at_ && cohort_n_ > 0) {
      ++cohort_n_;
      cohort_span_ = std::max(cohort_span_, rec.duration);
    } else {
      cohort_at_ = rec.at;
      cohort_n_ = 1;
      cohort_span_ = rec.duration;
    }
    if (cohort_n_ >= best_cohort_n_) {
      best_cohort_n_ = cohort_n_;
      best_cohort_span_ = cohort_span_;
    }
  }
  // Every attached member probes its parent; (re)arming here covers plain
  // joins, graceful-leave reconnections and crash recoveries uniformly.
  ensure_heartbeat(h);
  if (!is_reconnect) {
    // A fresh member expects chunks once its handshake is done, and starts
    // refining. After the heartbeat, so timers keep their scheduling order.
    tree().flood().in_session_since[h] = reactor_.now() + stats.elapsed;
    if (protocol_.wants_refinement()) arm_refinement(h);
  }
  list_handshake(h);
  // No validate() here: during a multi-orphan leave, siblings of this
  // orphan are still detached with (legitimately) stale pointers. The
  // callers validate at the end of the whole operation.
  return rec;
}

void Session::drain_join_batch() {
  const PhaseTimer timer(params_.profile, profile_.join_secs);
  drain_scheduled_ = false;
  WalkScratch& ws = scratch_.walk;
  if (ws.pending_joins.empty()) return;  // run stopped mid-batch
  PipelineSupport* support = protocol_.pipeline_support();
  VDM_REQUIRE(support != nullptr);

  // Build the walker table from the batch. Between drains every reservation
  // has been released (each reserve converts to a commit or is dropped with
  // its walker's stop state), so the counts are already all zero.
  ws.walkers.clear();
  ws.queue.clear();
  ws.parked.clear();
  ws.adoption_pool.clear();
  if (ws.reserved.size() < underlay_.num_hosts()) {
    ws.reserved.resize(underlay_.num_hosts(), 0);
  }
  for (const PendingJoin& pj : ws.pending_joins) {
    JoinWalker w;
    w.host = pj.host;
    w.degree_limit = pj.degree_limit;
    ws.queue.push_back(static_cast<std::uint32_t>(ws.walkers.size()));
    ws.walkers.push_back(w);
  }
  ws.pending_joins.clear();

  // One engine serves every walker: turns are serialized, so each turn
  // re-binds it to its walker's suspended position. Reservation-aware
  // can_accept plus abort-on-dead-end are what distinguish pipeline walks
  // from sequential ones.
  TreeWalk walk(*this, protocol_.walk_observer());
  walk.bind_reservations(&ws.reserved);
  walk.allow_abort(true);

  std::size_t q_head = 0;  // FIFO cursors — the vectors only ever append
  std::size_t p_head = 0;

  while (q_head < ws.queue.size()) {
    const std::uint32_t wi = ws.queue[q_head++];
    JoinWalker& w = ws.walkers[wi];
    switch (w.phase) {
      case JoinPhase::kStart: {
        // (Re)start: locate an entry node — a woken walker re-locates, since
        // the index moved on while it was parked — and init the policy.
        const net::HostId start = locate_entry(w.host, w.stats);
        w.cur = walk.normalize_start(w.host, start);
        w.step_index = 0;
        walk.resume(w.host, w.cur, 0);
        support->start(walk, w.slot, w.stats);
        w.phase = JoinPhase::kWalk;
        ws.queue.push_back(wi);
        break;
      }
      case JoinPhase::kWalk: {
        walk.resume(w.host, w.cur, w.step_index);
        const TreeWalk::Action action = walk.step_once(*support, w.slot, w.stats);
        if (action.kind == TreeWalk::Action::Kind::kDescend) {
          w.cur = walk.cur();
          w.step_index = walk.step_index();
          ws.queue.push_back(wi);
          break;
        }
        if (action.kind == TreeWalk::Action::Kind::kAbort) {
          // Every reachable slot is reserved by another in-flight walker.
          // Park (holding no reservations) until a commit frees or creates
          // capacity; the wake restarts the walk from scratch.
          w.phase = JoinPhase::kStart;
          ws.parked.push_back(wi);
          break;
        }
        // Stop: the can_accept that allowed it saw links + reservations
        // below the limit, so reserving here keeps the slot ours until the
        // commit turn. The adoptions span views shared walk scratch — copy
        // it out before the next walker's turn clobbers it.
        w.parent = action.node;
        w.parent_dist = action.dist;
        w.parent_has_dist = action.has_dist;
        const std::span<const WalkAdoption> ad = support->adoptions(w.slot);
        w.adoptions_off = static_cast<std::uint32_t>(ws.adoption_pool.size());
        w.adoptions_len = static_cast<std::uint32_t>(ad.size());
        ws.adoption_pool.insert(ws.adoption_pool.end(), ad.begin(), ad.end());
        ++ws.reserved[w.parent];
        w.step_index = walk.step_index();
        w.phase = JoinPhase::kCommit;
        ws.queue.push_back(wi);
        break;
      }
      case JoinPhase::kCommit: {
        --ws.reserved[w.parent];
        const std::span<const WalkAdoption> ad{
            ws.adoption_pool.data() + w.adoptions_off, w.adoptions_len};
        if (!support->commit(*this, w.host, w.parent, w.parent_dist,
                             w.parent_has_dist, ad, w.stats)) {
          // Lost a race another walker created between stop and commit
          // (e.g. every VDM adoption went stale). Retry immediately — never
          // park here, or the capacity this walker *can* still reach might
          // produce no further wakes.
          w.phase = JoinPhase::kStart;
          ws.queue.push_back(wi);
          break;
        }
        finish_join(w.host, w.stats, /*is_reconnect=*/false, 0.0);
        // The attach created capacity (the joiner's own free slots) and may
        // have restructured the neighborhood — wake parked walkers, FIFO.
        std::size_t wake = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::max(w.degree_limit - 1, 0)));
        wake = std::min(wake, ws.parked.size() - p_head);
        for (; wake > 0; --wake) {
          ws.queue.push_back(ws.parked[p_head++]);
        }
        break;
      }
    }
  }

  // Progress argument: the final active walker ran with every other
  // reservation released, i.e. against the true tree — if it parked, the
  // session genuinely has no attachment point left, which activate() caps
  // prevent. A stall here means the reservation protocol leaked.
  VDM_REQUIRE_MSG(p_head == ws.parked.size(),
                  "concurrent join pipeline stalled with parked walkers");
  ws.queue.clear();
  ws.parked.clear();
  ws.walkers.clear();
  ws.adoption_pool.clear();
  if (params_.paranoid_checks) validate();
}

net::HostId Session::reconnect_start(net::HostId orphan) const {
  const net::HostId gp = tree().member(orphan).grandparent;
  if (gp != kInvalidHost && tree().attached(gp, params_.source) &&
      eligible_parent(orphan, gp)) {
    return gp;
  }
  return params_.source;
}

void Session::leave(net::HostId h) {
  VDM_REQUIRE(started_);
  VDM_REQUIRE_MSG(h != params_.source, "the source never leaves");
  const MemberState& m = tree().member(h);
  VDM_REQUIRE(m.alive);

  // Graceful leave: one notice per child plus one to the parent (§3.3).
  OpStats notice;
  charge_notification(static_cast<int>(m.children.size()) +
                          (m.parent != kInvalidHost ? 1 : 0),
                      notice);
  totals_.control_messages += notice.messages;

  disarm_refinement(h);
  disarm_heartbeat(h);
  forget_crash_orphan(h);
  forget_pending_join(h);
  end_chunk_stint(h);
  tree().deactivate(h, scratch_.orphans);

  // Each orphan reconnects on its own, starting at its grandparent if that
  // node is still alive, else at the source (§3.3). Orphans act in child
  // order — deterministic, and equivalent to near-simultaneous recovery.
  for (const net::HostId orphan : scratch_.orphans) {
    run_join(orphan, reconnect_start(orphan), /*is_reconnect=*/true);
  }
  if (params_.paranoid_checks) validate();
}

void Session::crash(net::HostId h) {
  VDM_REQUIRE(started_);
  VDM_REQUIRE_MSG(h != params_.source, "the source never crashes");
  VDM_REQUIRE(tree().member(h).alive);
  ++totals_.crashes;

  // No leave notice, no notification messages: the node just vanishes.
  disarm_refinement(h);
  disarm_heartbeat(h);
  forget_crash_orphan(h);  // h may itself still be an undetected orphan
  forget_pending_join(h);
  end_chunk_stint(h);
  tree().deactivate(h, scratch_.orphans);

  if (params_.faults.heartbeat_period <= 0.0) {
    // No failure detector configured: model instant detection, i.e. the
    // orphans reconnect immediately as after a graceful leave (but the
    // crashed node still paid no notification messages).
    for (const net::HostId orphan : scratch_.orphans) {
      run_join(orphan, reconnect_start(orphan), /*is_reconnect=*/true);
    }
    if (params_.paranoid_checks) validate();
    return;
  }

  // With heartbeats, the orphans stay detached — their probes now go
  // unanswered and complete_detection() reconnects them once the miss
  // streak plus timeout elapses. Until then the data plane counts their
  // subtrees as expecting-but-not-receiving (see emit_chunk). Every probe
  // from here misses, so the verdict is the one that completes the streak:
  // the streak under way, or one starting at the next probe.
  const sim::Time now = reactor_.now();
  const FaultParams& f = params_.faults;
  for (const net::HostId orphan : scratch_.orphans) {
    HeartbeatState& hb = scratch_.heartbeats[orphan];
    settle_heartbeat(hb);  // answered until now, at 2 messages a probe
    hb.orphaned = true;
    hb.orphaned_at = now;
    scratch_.crash_orphans.push_back(orphan);
    // Stopped by a verdict already (its completion is pending), or the
    // streak under way already runs into a scheduled verdict.
    const int under_way = streak_under_way(hb);
    if (!hb.probing ||
        (hb.verdict_due && under_way >= 0 && under_way == hb.planned - 1)) {
      continue;
    }
    const sim::Time from = under_way >= 0 ? hb.streak_first[under_way] : hb.next_probe;
    arm_detector(orphan,
                 probe_after(from, f.heartbeat_period,
                             static_cast<std::uint64_t>(f.heartbeat_misses - 1)),
                 /*verdict=*/true);
    hb.planned = 0;
  }
  if (params_.paranoid_checks) validate();
}

OpStats Session::refine(net::HostId h) {
  const PhaseTimer timer(params_.profile, profile_.refine_secs);
  const MemberState& m = tree().member(h);
  if (!m.alive || m.parent == kInvalidHost) return {};
  OpStats stats = protocol_.execute_refine(*this, h);
  totals_.control_messages += stats.messages;
  ++totals_.refines_run;
  if (stats.parent_changed) {
    ++totals_.refine_switches;
  }
  if (params_.paranoid_checks) validate();
  return stats;
}

double Session::measure(net::HostId from, net::HostId to, OpStats& stats) {
  MetricProvider::Cost cost;
  const double v = metric_.measure_with_cost(underlay_, from, to, rng_, cost);
  stats.elapsed += lossy_elapsed(from, to, cost.messages, cost.elapsed, stats);
  return v;
}

std::span<const double> Session::measure_parallel(
    net::HostId from, std::span<const net::HostId> targets,
    std::vector<double>& out, OpStats& stats) {
  out.clear();
  out.reserve(targets.size());
  sim::Time slowest = 0.0;
  for (const net::HostId t : targets) {
    MetricProvider::Cost cost;
    out.push_back(metric_.measure_with_cost(underlay_, from, t, rng_, cost));
    slowest = std::max(slowest,
                       lossy_elapsed(from, t, cost.messages, cost.elapsed, stats));
  }
  stats.elapsed += slowest;
  return out;
}

void Session::charge_exchange(net::HostId from, net::HostId with, OpStats& stats) {
  stats.elapsed += lossy_elapsed(from, with, 2, underlay_.rtt(from, with), stats);
}

sim::Time Session::lossy_elapsed(net::HostId from, net::HostId with, int messages,
                                 sim::Time base, OpStats& stats) {
  stats.messages += messages;
  const FaultParams& f = params_.faults;
  if (!f.lossy_control) return base;
  // An exchange survives only if both the request and the reply get
  // through; each leg drops with the path loss compounded by the extra
  // control-plane loss. p == 0 draws nothing (Rng::chance contract), so a
  // lossless underlay with the knob at zero stays bit-identical.
  const double p =
      1.0 - (1.0 - underlay_.loss(from, with)) * (1.0 - f.control_loss_extra);
  if (p <= 0.0) return base;
  sim::Time waited = 0.0;
  double timeout = f.retry_timeout;
  for (int attempt = 0; attempt < f.max_retries; ++attempt) {
    const bool lost = rng_.chance(p) || rng_.chance(p);  // request, then reply
    if (!lost) return waited + base;
    stats.messages += messages;  // the retransmission
    waited += timeout;
    timeout = std::min(timeout * f.backoff_factor, f.retry_timeout_max);
  }
  // Retries exhausted: the control channel is reliable-with-retries — loss
  // manifests as latency and message overhead, never as protocol failure —
  // so the final retransmission is treated as delivered.
  return waited + base;
}

void Session::charge_notification(int count, OpStats& stats) {
  stats.messages += count;
}

bool Session::eligible_parent(net::HostId joiner, net::HostId candidate) const {
  if (candidate == joiner) return false;
  if (!tree().member(candidate).alive) return false;
  return !tree().is_ancestor(joiner, candidate);
}

void Session::validate() const {
  const Membership& t = tree();
  t.validate();
  const std::size_t n = t.num_hosts();
  // Fragment roots a member may hang under: the source and each pending
  // crash orphan. Queued joiners hang nowhere yet.
  std::vector<char> root_ok(n, 0);
  std::vector<char> queued(n, 0);
  root_ok[params_.source] = 1;
  for (const net::HostId r : scratch_.crash_orphans) {
    VDM_REQUIRE_MSG(t.member(r).alive && t.member(r).parent == kInvalidHost,
                    "a pending crash orphan must be alive and detached");
    root_ok[r] = 1;
  }
  for (const PendingJoin& pj : scratch_.walk.pending_joins) {
    const MemberState& m = t.member(pj.host);
    VDM_REQUIRE_MSG(m.alive && m.parent == kInvalidHost && m.children.empty() &&
                        queued[pj.host] == 0,
                    "a queued joiner must be alive, detached and queued once");
    queued[pj.host] = 1;
  }
  const FloodTable& fl = t.flood();
  std::uint64_t in_session = 0;
  std::size_t listed = 0;
  for (net::HostId h = 0; h < n; ++h) {
    const MemberState& m = t.member(h);
    if (!m.alive) {
      VDM_REQUIRE_MSG(fl.in_session_at[h] == FloodTable::kNotInSession &&
                          fl.listed[h] == 0,
                      "a departed member still counts in the data plane");
      continue;
    }
    if (fl.in_session_at[h] != FloodTable::kNotInSession) ++in_session;
    listed += fl.listed[h];
    if (h == params_.source || queued[h] != 0) continue;
    net::HostId root = h;
    while (t.member(root).parent != kInvalidHost) root = t.member(root).parent;
    VDM_REQUIRE_MSG(root_ok[root] != 0,
                    "an alive member is neither under the source, queued, nor "
                    "in a crash-orphan subtree");
  }
  VDM_REQUIRE_MSG(in_session == in_session_, "in-session count out of sync");
  VDM_REQUIRE_MSG(listed == scratch_.handshakes.size(),
                  "handshake list out of sync");
  for (const net::HostId h : scratch_.handshakes) {
    VDM_REQUIRE_MSG(fl.listed[h] == 1, "handshake list out of sync");
  }
}

void Session::arm_refinement(net::HostId h) {
  std::vector<sim::EventId>& slab = scratch_.walk.refine_events;
  if (slab.size() < tree().num_hosts()) {
    slab.resize(tree().num_hosts(), sim::kInvalidEvent);
  }
  if (slab[h] != sim::kInvalidEvent) reactor_.cancel(slab[h]);
  // Every member's timer shares one period, so they drain from one ring.
  // The id stays valid across every re-arm for the member's whole tenure;
  // disarming mid-tick suppresses the re-arm.
  slab[h] = reactor_.schedule_every(protocol_.refinement_period(), [this, h] {
    ++totals_.refine_ticks;
    refine(h);
  });
}

void Session::disarm_refinement(net::HostId h) {
  std::vector<sim::EventId>& slab = scratch_.walk.refine_events;
  if (h < slab.size() && slab[h] != sim::kInvalidEvent) {
    reactor_.cancel(slab[h]);
    slab[h] = sim::kInvalidEvent;
  }
}

void Session::ensure_heartbeat(net::HostId h) {
  if (params_.faults.heartbeat_period <= 0.0) return;
  HeartbeatState& hb = scratch_.heartbeats[h];
  // A running clock keeps its phase, and its plan while no streak is under
  // way and the miss chance stands (the gap to the next miss is
  // memoryless); a stopped one (never armed, or stopped by a verdict)
  // restarts a full period from now.
  const double q = probe_miss_chance(h);
  if (hb.probing) {
    settle_heartbeat(hb);
    if (q == hb.miss_chance && streak_under_way(hb) < 0) return;
  } else {
    // Drops a verdict's pending completion, if any.
    if (hb.event != sim::kInvalidEvent) reactor_.cancel(hb.event);
    hb.event = sim::kInvalidEvent;
    hb.probing = true;
    hb.next_probe = reactor_.now() + params_.faults.heartbeat_period;
    hb.orphaned = false;
    hb.orphaned_at = 0.0;
  }
  hb.miss_chance = q;
  plan_probes(h, hb.next_probe, 0);
}

void Session::disarm_heartbeat(net::HostId h) {
  if (h >= scratch_.heartbeats.size()) return;
  HeartbeatState& hb = scratch_.heartbeats[h];
  settle_heartbeat(hb);
  if (hb.event != sim::kInvalidEvent) reactor_.cancel(hb.event);
  hb = HeartbeatState{};
}

int Session::streak_under_way(const HeartbeatState& hb) const {
  const FaultParams& f = params_.faults;
  for (int i = 0; i < hb.planned && probe_fired(hb.streak_first[i]); ++i) {
    if (hb.streak_len[i] >= f.heartbeat_misses ||
        !probe_fired(probe_after(hb.streak_first[i], f.heartbeat_period,
                                 static_cast<std::uint64_t>(hb.streak_len[i])))) {
      return i;
    }
  }
  return -1;
}

bool Session::probe_fired(sim::Time t) const {
  const sim::Time now = reactor_.now();
  return t < now || (t == now && !reactor_.in_callback());
}

void Session::count_probes(const HeartbeatState& hb, sim::Time& next,
                           sim::Time bound, bool inclusive, Counters& into) const {
  const std::uint64_t n =
      probes_until(next, params_.faults.heartbeat_period, bound, inclusive);
  into.heartbeat_ticks += n;
  into.control_messages += n * (hb.orphaned ? 1 : 2);
}

void Session::settle_heartbeat(HeartbeatState& hb) {
  if (!hb.probing) return;
  count_probes(hb, hb.next_probe, reactor_.now(), !reactor_.in_callback(), totals_);
}

Session::Counters Session::totals() const {
  Counters c = totals_;
  const bool inclusive = !reactor_.in_callback();
  for (const HeartbeatState& hb : scratch_.heartbeats) {
    if (!hb.probing) continue;
    sim::Time next = hb.next_probe;
    count_probes(hb, next, reactor_.now(), inclusive, c);
  }
  return c;
}

double Session::probe_miss_chance(net::HostId h) const {
  const FaultParams& f = params_.faults;
  if (!f.lossy_control) return 0.0;
  // Probe + ack; losing either leg is a miss, each leg dropping with the
  // path loss compounded by the extra control-plane loss.
  const double through = (1.0 - underlay_.loss(h, tree().member(h).parent)) *
                         (1.0 - f.control_loss_extra);
  return 1.0 - through * through;
}

void Session::plan_probes(net::HostId h, sim::Time from, int streak,
                          sim::Time streak_first) {
  HeartbeatState& hb = scratch_.heartbeats[h];
  const FaultParams& f = params_.faults;
  const int misses = f.heartbeat_misses;
  const sim::Time period = f.heartbeat_period;
  // Beyond 2^53 probes no run gets there (nor can a double count them).
  constexpr double kHorizon = 0x1p53;
  const MissChance chance(hb.miss_chance);
  hb.planned = 0;
  DetectorStep step = next_detector_step(detector_rng_, chance, misses, streak);
  sim::Time first = streak_first;
  if (streak == 0) {
    if (!(step.offset < kHorizon)) {  // no probe misses again
      arm_detector(h, kNever, false);
      return;
    }
    first = probe_after(from, period, static_cast<std::uint64_t>(step.offset));
    if (!step.verdict) {
      streak = 1;
      from = first + period;
      step = next_detector_step(detector_rng_, chance, misses, streak);
    }
  }
  // A streak begun at `first` has `streak` misses before `from`; each step
  // draws its length, then the gap to the next one.
  for (;;) {
    const int n = hb.planned++;
    hb.streak_first[n] = first;
    if (step.verdict) {
      hb.streak_len[n] = misses;
      arm_detector(h, probe_after(first, period, static_cast<std::uint64_t>(misses - 1)),
                   /*verdict=*/true);
      return;
    }
    hb.streak_len[n] = streak + static_cast<int>(step.answered);
    if (!(step.offset < kHorizon)) {  // no probe misses again
      arm_detector(h, kNever, false);
      return;
    }
    first = probe_after(from, period, static_cast<std::uint64_t>(step.offset));
    if (hb.planned == kPlannedStreaks) break;
    streak = 1;
    from = first + period;
    step = next_detector_step(detector_rng_, chance, misses, streak);
  }
  // The batch is full: the next streak's first miss draws the next one.
  arm_detector(h, first, /*verdict=*/false);
}

void Session::arm_detector(net::HostId h, sim::Time at, bool verdict) {
  HeartbeatState& hb = scratch_.heartbeats[h];
  if (hb.event != sim::kInvalidEvent) reactor_.cancel(hb.event);
  hb.verdict_due = verdict;
  hb.event = sim::kInvalidEvent;
  if (!(at < kNever)) return;
  if (verdict) {
    hb.event = reactor_.schedule_at(at, [this, h] { heartbeat_verdict(h); });
  } else {
    hb.event = reactor_.schedule_at(at, [this, h] { heartbeat_next_batch(h); });
  }
}

void Session::on_attach(net::HostId child, net::HostId parent) {
  if (journal_ != nullptr) journal_->on_attach(child, parent);
  if (params_.join_mode != JoinMode::kSequential) {
    scratch_.placement.on_attach(child, parent);
  }
  if (child >= scratch_.heartbeats.size()) return;
  HeartbeatState& hb = scratch_.heartbeats[child];
  if (!hb.probing) return;
  const double q = probe_miss_chance(child);
  if (q == hb.miss_chance) return;
  hb.miss_chance = q;
  settle_heartbeat(hb);
  // The fired misses of a streak under way, up to the first probe to come,
  // carry over: the streak goes on with the new chance.
  const int under_way = streak_under_way(hb);
  if (under_way < 0) {
    plan_probes(child, hb.next_probe, 0);
    return;
  }
  sim::Time t = hb.streak_first[under_way];
  const auto fired = probes_until(t, params_.faults.heartbeat_period, hb.next_probe, false);
  const int streak = static_cast<int>(std::min<std::uint64_t>(
      fired, static_cast<std::uint64_t>(params_.faults.heartbeat_misses - 1)));
  plan_probes(child, hb.next_probe, streak, hb.streak_first[under_way]);
}

void Session::on_detach(net::HostId child, net::HostId parent) {
  if (journal_ != nullptr) journal_->on_detach(child, parent);
  if (params_.join_mode != JoinMode::kSequential) {
    scratch_.placement.on_detach(child, parent);
  }
}

void Session::heartbeat_next_batch(net::HostId h) {
  HeartbeatState& hb = scratch_.heartbeats[h];
  hb.event = sim::kInvalidEvent;
  const sim::Time now = reactor_.now();
  plan_probes(h, now + params_.faults.heartbeat_period, 1, now);
}

void Session::heartbeat_verdict(net::HostId h) {
  HeartbeatState& hb = scratch_.heartbeats[h];
  hb.event = sim::kInvalidEvent;
  VDM_REQUIRE_MSG(tree().member(h).alive, "heartbeat verdict on a dead member");
  const FaultParams& f = params_.faults;
  const sim::Time now = reactor_.now();
  // The verdict's own probe has fired: count through it, then stop probing
  // and declare the parent dead once the final probe's own timeout expires.
  // complete_detection restarts probing after the rejoin.
  count_probes(hb, hb.next_probe, now, /*inclusive=*/true, totals_);
  hb.probing = false;
  hb.event = reactor_.schedule_in(f.heartbeat_timeout,
                                  [this, h] { complete_detection(h); });
}

void Session::forget_crash_orphan(net::HostId h) {
  std::vector<net::HostId>& orphans = scratch_.crash_orphans;
  const auto it = std::find(orphans.begin(), orphans.end(), h);
  if (it != orphans.end()) orphans.erase(it);
}

void Session::forget_pending_join(net::HostId h) {
  std::vector<PendingJoin>& queue = scratch_.walk.pending_joins;
  const auto it = std::find_if(queue.begin(), queue.end(),
                               [h](const PendingJoin& pj) { return pj.host == h; });
  if (it != queue.end()) queue.erase(it);
}

void Session::list_handshake(net::HostId h) {
  if (!params_.data_plane) return;  // no chunk ever reads the list
  std::uint8_t& listed = tree().flood().listed[h];
  if (listed == 0) {
    listed = 1;
    scratch_.handshakes.push_back(h);
  }
}

void Session::end_chunk_stint(net::HostId h) {
  FloodTable& fl = tree().flood();
  if (fl.in_session_at[h] != FloodTable::kNotInSession) {
    --in_session_;
    fl.in_session_at[h] = FloodTable::kNotInSession;
  }
  if (fl.listed[h] != 0) {
    fl.listed[h] = 0;
    std::vector<net::HostId>& list = scratch_.handshakes;
    *std::find(list.begin(), list.end(), h) = list.back();
    list.pop_back();
  }
}

void Session::complete_detection(net::HostId h) {
  HeartbeatState& hb = scratch_.heartbeats[h];
  hb.event = sim::kInvalidEvent;
  const MemberState& m = tree().member(h);
  VDM_REQUIRE_MSG(m.alive, "detection completing on a dead member");

  sim::Time detection;
  if (hb.orphaned) {
    // True positive: latency from the parent's actual crash to this verdict.
    ++totals_.verdicts_true;
    detection = reactor_.now() - hb.orphaned_at;
    forget_crash_orphan(h);
  } else {
    // False positive: the miss streak was pure control loss and the parent
    // is still alive. The node acts on its verdict anyway — detach and
    // rejoin in the same sim event, so the only data-plane gap is the
    // rejoin handshake itself.
    ++totals_.verdicts_false;
    detection = reactor_.now() - hb.streak_first[hb.planned - 1];
    if (m.parent != kInvalidHost) tree().detach(h);
  }
  run_join(h, reconnect_start(h), /*is_reconnect=*/true, detection);
  if (params_.paranoid_checks) validate();
}

void Session::drain_startup_records(std::vector<TimingRecord>& out) {
  out.clear();
  std::swap(out, scratch_.startup_records);
}

void Session::drain_reconnect_records(std::vector<TimingRecord>& out) {
  out.clear();
  std::swap(out, scratch_.reconnect_records);
}

Session::MemberChunks Session::member_chunks(net::HostId h) const {
  VDM_REQUIRE(h < tree().num_hosts());
  const FloodTable& fl = tree().flood();
  if (fl.in_session_at[h] == FloodTable::kNotInSession) return {};
  const std::uint32_t expected =
      static_cast<std::uint32_t>(totals_.chunks_emitted) - fl.in_session_at[h];
  return {expected, expected - fl.missed[h]};
}

void Session::emit_chunk() {
  const PhaseTimer timer(params_.profile, profile_.flood_secs);
  ++totals_.chunks_emitted;
  const sim::Time now = reactor_.now();
  const sim::Time buffered_now = now + params_.buffer_seconds;
  FloodTable& fl = tree().flood();
  if (lossless_) {
    // The stamp keeps the epoch in its upper 31 bits: start over.
    if (++reach_epoch_ == (1u << 31)) {
      std::fill(fl.reach_stamp.begin(), fl.reach_stamp.end(), 0u);
      reach_epoch_ = 1;
    }
  }

  // A member is *expected* to see the chunk once it has completed its
  // initial join; it actually *receives* it only if neither it nor an
  // ancestor is inside a (re)join handshake, no undetected crash has cut
  // its subtree off, and on a lossy underlay every uplink on its path
  // passes its loss draw. Descendants of an outaged node therefore miss
  // chunks too — exactly the churn loss the paper measures.
  //
  // Subtrees detached by a still-undetected crash are out of the flood's
  // reach (nothing links into them), yet their members still expect chunks
  // — that gap IS the churn loss a crash causes. Walk them explicitly;
  // draws nothing and costs nothing when no crash is pending.
  std::uint64_t missed = 0;
  std::uint64_t cut_off = 0;
  for (const net::HostId root : scratch_.crash_orphans) {
    cut_off += miss_subtree(root, now, missed);
  }

  // The handshake list: enter members into the in-session count at their
  // first chunk at or after in_session_since, and drop them once that and
  // their handshake are behind them. On a lossless underlay a member still
  // inside its handshake blocks its whole subtree; count each blocked
  // subtree once, at its top-most member, the one whose parent the chunk
  // reaches. A member nested under another blocked one, or in a crash-orphan
  // subtree, fails that check.
  std::uint64_t blocked_edges = 0;
  std::vector<net::HostId>& list = scratch_.handshakes;
  std::size_t kept = 0;
  for (const net::HostId h : list) {
    bool keep = false;
    if (fl.in_session_at[h] == FloodTable::kNotInSession) {
      if (now >= fl.in_session_since[h]) {
        fl.in_session_at[h] =
            static_cast<std::uint32_t>(totals_.chunks_emitted - 1);
        ++in_session_;
      } else {
        keep = true;
      }
    }
    // A playout buffer forgives outages that end within buffer_seconds:
    // the chunk is recovered from the new parent before playback needs it,
    // so the viewer never sees the gap.
    if (buffered_now < fl.receiving_since[h]) {
      keep = true;
      const net::HostId parent = tree().member_unchecked(h).parent;
      if (lossless_ && parent != kInvalidHost &&
          chunk_reaches(parent, buffered_now)) {
        blocked_edges += miss_subtree(h, now, missed) - 1;
      }
    }
    if (keep) {
      list[kept++] = h;
    } else {
      fl.listed[h] = 0;
    }
  }
  list.resize(kept);

  ChunkTally tally;
  if (lossless_) {
    // Every alive member besides the source hangs under the source, waits
    // in the join queue or lies in a crash-orphan subtree (Session::validate
    // checks this partition). The chunk crosses every edge under the source
    // except those inside the blocked subtrees, and reaches every
    // in-session member except the ones charged a miss above.
    const std::uint64_t under_source = tree().alive_count() - 1 -
                                       scratch_.walk.pending_joins.size() -
                                       cut_off;
    tally.transmissions = under_source - blocked_edges;
    tally.expected = in_session_;
    tally.received = in_session_ - missed;
  } else {
    tally = flood_chunk(now, buffered_now);
    tally.expected += missed;  // the crash-orphan subtrees' members
  }
  totals_.data_transmissions += tally.transmissions;
  totals_.chunks_expected += tally.expected;
  totals_.chunks_delivered += tally.received;
}

Session::ChunkTally Session::flood_chunk(sim::Time now, sim::Time buffered_now) {
  // Every overlay edge under the source, every chunk, as one linear scan of
  // the cached visit order: a parent's entry precedes its children's, so
  // each entry finds its parent's delivered byte already written. Entries
  // run in the LIFO traversal's order and an undelivered parent draws
  // nothing for its children, so the rng draws come in the traversal's
  // order exactly. The tree changes before only a few percent of chunks;
  // the order is rebuilt then, and reused by every chunk in between.
  FloodOrder& order = scratch_.flood_order;
  if (order.version != tree().shape_version()) build_flood_order();
  FloodTable& fl = tree().flood();
  // A store through `delivered` (a char type) may alias anything, so every
  // array pointer, the bound and the rng state live in locals: otherwise
  // each would be reloaded from memory on every entry and draw.
  const std::size_t n = order.child.size();
  const net::HostId* const child = order.child.data();
  const std::uint32_t* const up = order.up.data();
  const double* const loss = order.loss.data();
  const sim::Time* const receiving_since = fl.receiving_since.data();
  const sim::Time* const in_session_since = fl.in_session_since.data();
  std::uint32_t* const missed = fl.missed.data();
  std::uint8_t* const delivered = order.delivered.data();
  util::Rng rng = rng_;
  std::uint64_t transmissions = 0;
  std::uint64_t expected = 0;
  std::uint64_t received = 0;
  delivered[0] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const net::HostId c = child[i];
    bool got = false;
    if (delivered[up[i]] != 0) {
      ++transmissions;
      if (buffered_now >= receiving_since[c]) got = !rng.chance(loss[i]);
    }
    delivered[i + 1] = got ? 1 : 0;
    if (now >= in_session_since[c]) {
      ++expected;
      if (got) {
        ++received;
      } else {
        ++missed[c];
      }
    }
  }
  rng_ = rng;
  return {transmissions, expected, received};
}

void Session::build_flood_order() {
  FloodTable& fl = tree().flood();
  FloodOrder& order = scratch_.flood_order;
  order.child.clear();
  order.up.clear();
  order.loss.clear();
  // Leaves are never pushed: they have no entries below them.
  scratch_.chunk_stack.clear();
  scratch_.chunk_stack.push_back({params_.source, 0});
  while (!scratch_.chunk_stack.empty()) {
    const ChunkFrame f = scratch_.chunk_stack.back();
    scratch_.chunk_stack.pop_back();
    for (const net::HostId c : tree().member_unchecked(f.host).children) {
      if (fl.uplink_loss_parent[c] != f.host) {
        fl.uplink_loss_parent[c] = f.host;
        fl.uplink_loss[c] = underlay_.loss(f.host, c);
      }
      order.child.push_back(c);
      order.up.push_back(f.slot);
      order.loss.push_back(fl.uplink_loss[c]);
      if (!tree().member_unchecked(c).children.empty()) {
        scratch_.chunk_stack.push_back(
            {c, static_cast<std::uint32_t>(order.child.size())});
      }
    }
  }
  order.delivered.resize(order.child.size() + 1);
  order.version = tree().shape_version();
}

std::uint64_t Session::miss_subtree(net::HostId root, sim::Time now,
                                    std::uint64_t& missed) {
  FloodTable& fl = tree().flood();
  std::uint64_t size = 0;
  scratch_.chunk_stack.push_back({root, 0});
  while (!scratch_.chunk_stack.empty()) {
    const net::HostId at = scratch_.chunk_stack.back().host;
    scratch_.chunk_stack.pop_back();
    ++size;
    if (now >= fl.in_session_since[at]) {
      ++fl.missed[at];
      ++missed;
    }
    for (const net::HostId c : tree().member_unchecked(at).children) {
      scratch_.chunk_stack.push_back({c, 0});
    }
  }
  return size;
}

bool Session::chunk_reaches(net::HostId h, sim::Time buffered_now) {
  FloodTable& fl = tree().flood();
  const std::uint32_t epoch = reach_epoch_ << 1;
  // Climb to the nearest member whose answer is known: the source (yes), a
  // member already stamped this chunk, or one inside its own handshake or
  // at the top of a detached fragment (no).
  net::HostId at = h;
  bool reached = false;
  for (;;) {
    if (at == params_.source) {
      reached = true;
      break;
    }
    const std::uint32_t stamp = fl.reach_stamp[at];
    if ((stamp & ~1u) == epoch) {
      reached = (stamp & 1u) != 0;
      break;
    }
    const net::HostId parent = tree().member_unchecked(at).parent;
    if (buffered_now < fl.receiving_since[at] || parent == kInvalidHost) break;
    at = parent;
  }
  // Stamp the climbed path so later checks of this chunk stop on it.
  const std::uint32_t stamp = epoch | (reached ? 1u : 0u);
  for (net::HostId y = h; y != at; y = tree().member_unchecked(y).parent) {
    fl.reach_stamp[y] = stamp;
  }
  return reached;
}

}  // namespace vdm::overlay
