#pragma once

#include <span>
#include <vector>

#include "net/underlay.hpp"
#include "overlay/detector.hpp"
#include "overlay/membership.hpp"
#include "overlay/metric.hpp"
#include "overlay/placement.hpp"
#include "overlay/protocol.hpp"
#include "overlay/walk.hpp"
#include "sim/retry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

class PipelineSupport;

/// How joins find their place in the tree.
enum class JoinMode {
  /// One walk at a time from the source — the paper's baseline join and the
  /// bit-identical golden path.
  kSequential,
  /// Locating-first: a placement index (overlay/placement.hpp) names a deep
  /// entry node near the joiner, and the protocol walk runs from there —
  /// O(1) placement plus a short local walk instead of O(depth) from the
  /// source. Still one walk at a time.
  kLocating,
  /// Locating-first entry plus the batched concurrent pipeline: all joins
  /// arriving at one timestamp run as interleaved walks in a single drain
  /// event, serialized one step per turn with per-node slot reservations
  /// (see Session::drain_join_batch). Requires a protocol with
  /// PipelineSupport.
  kConcurrent,
};

/// Failure-model knobs (crash detection and lossy control plane). Retry
/// draws flow through the session Rng and probe-miss draws through the
/// detector's own stream, and every knob at its default reproduces the
/// fault-free run bit for bit: heartbeat_period == 0 arms no detector, and
/// lossy_control == false makes charge_exchange / measure skip the loss
/// draw and probes never miss. The Session constructor rejects values
/// outside the ranges below.
struct FaultParams {
  /// Children probe their parent every `heartbeat_period` seconds (finite,
  /// >= 0); 0 disables detection, making crashes observable instantly
  /// (idealized).
  double heartbeat_period = 0.0;
  /// Consecutive missed probes before the parent is declared dead (>= 1
  /// when heartbeats are on).
  int heartbeat_misses = 3;
  /// Extra wait after the last missed probe (its own timeout) before the
  /// orphan declares the parent dead and starts rejoining (finite, >= 0
  /// when heartbeats are on).
  double heartbeat_timeout = 0.5;
  /// Draw per-message loss on every control exchange; a lost request or
  /// reply costs a timeout plus a retransmission (charged to OpStats).
  bool lossy_control = false;
  /// Control-plane loss applied on top of the underlay path loss (models
  /// overloaded end hosts dropping datagrams, as on PlanetLab).
  double control_loss_extra = 0.0;
  /// The retransmission schedule of a lost exchange, for at most
  /// max_retries retransmissions (after which the exchange is assumed
  /// through — the control channel is reliable-with-retries, loss shows up
  /// as latency and message overhead, not as protocol failure). With
  /// lossy_control on, both timeouts must be finite and >= 0,
  /// backoff_factor finite and > 0, and max_retries >= 0.
  sim::RetryPolicy retry;
};

/// Tunables of one multicast session.
struct SessionParams {
  net::HostId source = 0;
  int source_degree_limit = 5;
  /// Data chunks emitted per second at the source (the PlanetLab deployment
  /// used 10/s). On a lossless underlay a chunk costs O(members in a
  /// handshake or a crash-orphan subtree); on a lossy one it visits every
  /// overlay edge, so lossy runs may lower the rate — loss is a rate, so
  /// the statistic is unchanged.
  double chunk_rate = 2.0;
  /// Disable to run control-plane-only experiments (no loss metric).
  bool data_plane = true;
  /// Playout buffer depth, seconds (finite, >= 0). Reconnection outages
  /// shorter than the buffer are absorbed (the paper's §5.4.3 observation
  /// that "a couple of seconds buffer" hides the ~0.2 s reconnection
  /// jitter). 0 = no buffer.
  double buffer_seconds = 0.0;
  /// Validate all tree invariants after every mutation batch (tests).
  bool paranoid_checks = false;
  /// Join placement engine (fresh arrivals only — orphan reconnections
  /// always run the sequential grandparent-first path, whose latency is the
  /// outage metric the paper measures).
  JoinMode join_mode = JoinMode::kSequential;
  /// Crash-failure and control-loss model; defaults are all-off.
  FaultParams faults;
  /// Worker threads for the one parallel phase inside a run, the
  /// collector's measure_tree reads (metrics::Collector::set_threads): 1 =
  /// fully serial (default), 0 = hardware concurrency, N = cap. The session
  /// itself — joins, probes, the chunk flood — always runs serially. Every
  /// run_once scalar is bit-identical for every value.
  int threads = 1;
  /// Accumulate wall-clock time per control/data-plane phase (join walks,
  /// refinement, chunk floods) for vdmsim --profile. Off by default: the
  /// hot paths stay free of clock reads, and results are unaffected either
  /// way (the profile never feeds back into the simulation).
  bool profile = false;
};

/// Requires that a run streaming chunks until `horizon` emits fewer than
/// 2^32 of them (horizon x chunk_rate < 2^32), the width of the per-member
/// chunk records; runs without a data plane pass. Checked before the first
/// event, where a run's end time meets the rate.
void check_chunk_budget(const SessionParams& params, sim::Time horizon);

/// Wall-clock seconds spent per phase of one run (SessionParams::profile).
/// Join covers every tree walk that attaches a member — fresh arrivals,
/// batched concurrent drains and orphan reconnections alike; metrics_secs
/// is filled by the runner (the collector's capture sweeps), not here.
struct PhaseProfile {
  double join_secs = 0.0;
  double refine_secs = 0.0;
  double flood_secs = 0.0;
};

/// Record of one completed join or reconnection.
struct TimingRecord {
  sim::Time at = 0.0;       // when the operation started
  net::HostId host = net::kInvalidHost;
  sim::Time duration = 0.0; // startup / rejoin-handshake time
  /// Crash-detection latency preceding this reconnection: time from the
  /// parent's failure until the orphan declared it dead and began the
  /// rejoin. 0 for graceful leaves and plain joins; detection + duration
  /// is the full outage the viewer experienced.
  sim::Time detection = 0.0;
  int messages = 0;
  int iterations = 0;
};

/// One live multicast session: the source, the member tree, the control
/// plane (joins, graceful leaves, orphan reconnection, refinement timers)
/// and the data plane (periodic chunks flooding down the tree with per-path
/// loss sampling, or counted from membership alone on a lossless underlay).
///
/// The session is the single mutation point of the overlay; protocols are
/// strategy objects invoked from here. All randomness flows through the
/// session's Rng and the failure detector's stream split from it, so a
/// (seed, scenario) pair reproduces a run exactly.
class Session : private MembershipObserver {
 private:
  /// One node of a chunk-side tree traversal: the member and, while the
  /// lossy flood's visit order is being built, the index of its delivered
  /// byte (0 for the source; see FloodOrder).
  struct ChunkFrame {
    net::HostId host;
    std::uint32_t slot;
  };
  /// The lossy flood's visit order: one entry per overlay edge under the
  /// source, in the order a LIFO traversal from the source meets them
  /// (children in list order), so a parent's entry always precedes its
  /// children's. Entry i holds the child, `up[i]` the index of its parent's
  /// delivered byte, and the uplink's drop probability; `delivered` holds
  /// one byte per entry for the current chunk, byte 0 for the source and
  /// byte i + 1 for entry i. Built by flood_chunk only when the tree's
  /// shape_version() has moved past `version`.
  struct FloodOrder {
    std::vector<net::HostId> child;
    std::vector<std::uint32_t> up;
    std::vector<double> loss;
    std::vector<std::uint8_t> delivered;
    std::uint64_t version = 0;

    std::size_t capacity_bytes() const {
      return child.capacity() * sizeof(net::HostId) +
             up.capacity() * sizeof(std::uint32_t) +
             loss.capacity() * sizeof(double) + delivered.capacity();
    }
  };
  /// Miss streaks a failure detector draws ahead of time (see
  /// HeartbeatState::streak_first).
  static constexpr int kPlannedStreaks = 8;
  /// Per-member failure-detector state (faults.heartbeat_period > 0). A
  /// probing member's probes fall on its probe clock (overlay/detector.hpp)
  /// and are not events: they are counted from the clock, and the miss
  /// streaks among them are drawn ahead, a few at a time, so only the end
  /// of each batch and the verdict are scheduled (DESIGN.md §6).
  struct HeartbeatState {
    /// The first probe not yet counted in totals_.
    sim::Time next_probe = 0.0;
    sim::Time orphaned_at = 0.0;
    /// The miss chance of the probes to come (the parent's, as last
    /// planned with).
    double miss_chance = 0.0;
    /// The member's one pending detector event. While probing: the verdict
    /// or the first miss of the streak after the batch, whichever is
    /// scheduled. Once the verdict fired: complete_detection(), cancelled
    /// when the member leaves, crashes or rejoins first.
    sim::EventId event = sim::kInvalidEvent;
    /// The streaks drawn ahead, in time order: streak i misses the probes
    /// from streak_first[i] on, streak_len[i] of them, and the probe after
    /// them answers, unless the streak runs into the verdict (streak_len ==
    /// heartbeat_misses, the last one then). Every other probe answers.
    /// After a false verdict the last entry is its streak (detection
    /// latency is measured from its first miss).
    sim::Time streak_first[kPlannedStreaks] = {};
    std::int32_t streak_len[kPlannedStreaks] = {};
    /// Entries of streak_first / streak_len in use.
    std::uint8_t planned = 0;
    /// The probe clock runs: armed, and not stopped by a verdict.
    bool probing = false;
    /// Parent crashed; probes are going unanswered until the verdict.
    bool orphaned = false;
    /// While probing, `event` is the verdict (else the first miss after
    /// the batch).
    bool verdict_due = false;
  };

 public:
  /// Every buffer a run grows: the member tree, the tree-walk buffers, the
  /// placement index and the event paths' buffers (the chunk traversal
  /// stack, the lossy flood's visit order, the handshake list, the
  /// leave/crash orphan list, the timing-record accumulators and the
  /// failure detector's per-host slab and pending crash orphans). One
  /// bundle lives on each Session; the experiment runner swaps a warm one
  /// in from its RunScratch (swap_scratch) so steady-state sweeps run joins,
  /// the data plane, churn and crash recovery without allocating.
  struct Scratch {
    /// Member slots, children capacity and flood arrays; start() resets it
    /// to the underlay's host count.
    Membership tree{0};
    /// The tree-walk engine's buffers (walks never nest; overlay/walk.hpp).
    WalkScratch walk;
    /// Bound by start() only when join_mode != kSequential; empty (and
    /// unallocated) until a locating or concurrent run.
    PlacementIndex placement;
    std::vector<ChunkFrame> chunk_stack;
    /// Empty until a lossy chunk floods; a lossless run never builds it.
    FloodOrder flood_order;
    /// Members whose latest (re)join handshake may still block chunks, or
    /// whose entry into the in-session count is still due. finish_join
    /// lists a member (FloodTable::listed guards against duplicates) and
    /// emit_chunk drops it once both are behind it; a leave or crash drops
    /// it at once. Unordered: every use is a sum.
    std::vector<net::HostId> handshakes;
    std::vector<net::HostId> orphans;
    std::vector<TimingRecord> startup_records;
    std::vector<TimingRecord> reconnect_records;
    /// Indexed by host; sized only when heartbeats are on.
    std::vector<HeartbeatState> heartbeats;
    /// Roots of subtrees detached by a crash and still awaiting detection.
    /// No chunk reaches them through children lists, so emit_chunk walks
    /// these explicitly to count the chunks their members miss during the
    /// outage. Order-preserving (vector + std::find) so the walk order
    /// stays deterministic.
    std::vector<net::HostId> crash_orphans;

    /// Heap bytes reserved — folded into RunScratch::capacity_bytes so the
    /// arena grow gate covers every path of the run.
    std::size_t capacity_bytes() const {
      return tree.capacity_bytes() + walk.capacity_bytes() +
             placement.capacity_bytes() +
             chunk_stack.capacity() * sizeof(ChunkFrame) +
             flood_order.capacity_bytes() +
             (handshakes.capacity() + orphans.capacity() +
              crash_orphans.capacity()) *
                 sizeof(net::HostId) +
             (startup_records.capacity() + reconnect_records.capacity()) *
                 sizeof(TimingRecord) +
             heartbeats.capacity() * sizeof(HeartbeatState);
    }
  };

  /// Time and timers come from `reactor`: a sim::Simulator for the
  /// experiments (the session then calls the simulator itself, so every
  /// golden scalar is the engine's own), or the wall-clock UdpReactor with a
  /// MeasuredUnderlay in vdmd, where joins, heartbeats and refinement timers
  /// run against real sockets.
  Session(sim::Reactor& reactor, const net::Underlay& underlay,
          Protocol& protocol, const MetricProvider& metric,
          const SessionParams& params, util::Rng rng);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Activates the source and starts the data stream. Call once, first.
  void start();

  /// Installs (or clears) the one sink every attach and detach is forwarded
  /// to. Call before start(), which claims the tree's one observer slot for
  /// the session. Not owned; it must outlive the run.
  void set_observer(MembershipObserver* observer) { observer_ = observer; }

  /// Stops the data stream and all refinement timers (end of experiment).
  void stop();

  /// Runs the protocol join for host `h` right now. Returns the timing
  /// record (also retained internally for the metrics collector).
  ///
  /// Under join_mode == kConcurrent the join is only *enqueued*: all
  /// arrivals at the current timestamp are serviced together by one drain
  /// event scheduled behind them (so the batch — and the resulting tree —
  /// is invariant to how callers group same-time join() calls). The
  /// returned record is a placeholder; the real one lands in the startup
  /// records when the walker commits.
  TimingRecord join(net::HostId h, int degree_limit);

  /// Graceful leave: notifies children and parent, detaches `h`, and
  /// reconnects every orphan (grandparent first, source as fallback).
  void leave(net::HostId h);

  /// Ungraceful crash: `h` vanishes without any leave notice. With
  /// heartbeats enabled its children only notice after `heartbeat_misses`
  /// silent probes (detection latency lands in TimingRecord::detection);
  /// with heartbeat_period == 0 they reconnect immediately (idealized
  /// instant detection, the pre-fault behaviour).
  void crash(net::HostId h);

  /// One immediate refinement round for host `h` (also runs on timers).
  OpStats refine(net::HostId h);

  // --- primitives used by protocols -------------------------------------

  /// Virtual-distance measurement `from` -> `to`; charges messages and time.
  double measure(net::HostId from, net::HostId to, OpStats& stats);

  /// Measures `from` -> each target concurrently (the paper's "N pings S
  /// and all children"): message costs add, wall-clock is the slowest probe.
  /// Span-out form: results land in `out` (cleared first) and the returned
  /// span views it — the hot walk path passes scratch here and never
  /// allocates in steady state.
  std::span<const double> measure_parallel(net::HostId from,
                                           std::span<const net::HostId> targets,
                                           std::vector<double>& out,
                                           OpStats& stats);

  /// A request/response exchange with `with` (info request, connection
  /// request): 2 messages, one RTT of elapsed time.
  void charge_exchange(net::HostId from, net::HostId with, OpStats& stats);

  /// One-way notifications (parent change, grandparent change, leave
  /// notice): `count` messages, no added wait.
  void charge_notification(int count, OpStats& stats);

  /// True if `candidate` may serve as (transitive) parent of `joiner`:
  /// alive, not the joiner, and not in the joiner's own subtree.
  bool eligible_parent(net::HostId joiner, net::HostId candidate) const;

  /// Throws InvariantError unless the tree invariants hold
  /// (Membership::validate) and every alive member besides the source hangs
  /// under the source, waits in the concurrent join queue, or lies in a
  /// pending crash-orphan subtree — the partition the lossless chunk count
  /// rests on (DESIGN.md §6) — and the in-session count matches the
  /// per-member records. Runs after every mutation batch under
  /// paranoid_checks.
  void validate() const;

  // --- accessors ---------------------------------------------------------
  Membership& tree() { return scratch_.tree; }
  const Membership& tree() const { return scratch_.tree; }
  const net::Underlay& underlay() const { return underlay_; }
  const MetricProvider& metric() const { return metric_; }
  net::HostId source() const { return params_.source; }
  util::Rng& rng() { return rng_; }
  /// The time/timer backend this session runs on.
  sim::Reactor& reactor() { return reactor_; }
  Protocol& protocol() { return protocol_; }

  /// The tree-walk engine's reusable buffers (one set per session — walks
  /// never nest; see overlay/walk.hpp).
  WalkScratch& walk_scratch() { return scratch_.walk; }

  /// The arena shuttle (see Scratch): swap a warm bundle in before start()
  /// and back out once the final metrics are read. start() resets whatever
  /// arrives — the tree to this underlay's host count, the timer slabs, the
  /// placement index when the join mode needs one — so stale contents are
  /// harmless and capacity always survives.
  void swap_scratch(Scratch& other) { std::swap(scratch_, other); }

  /// Live per-host reservation counts of the concurrent join pipeline
  /// (non-zero only mid-drain; tests observe it from a WalkObserver).
  const std::vector<int>& join_reservations() const {
    return scratch_.walk.reserved;
  }

  /// Largest same-instant arrival cohort seen so far (the flash crowd when
  /// one was scheduled; 1 for scattered arrivals) and its makespan — the
  /// longest startup within the cohort, since all its members start
  /// together. size / makespan is the sustained join throughput of the
  /// burst in sim time.
  std::uint64_t join_cohort_size() const { return best_cohort_n_; }
  sim::Time join_cohort_span() const { return best_cohort_span_; }

  // --- counters for the metrics layer ------------------------------------
  struct Counters {
    std::uint64_t control_messages = 0;
    /// Chunk transmissions over overlay edges (each hop of each chunk).
    std::uint64_t data_transmissions = 0;
    /// Chunks emitted at the source.
    std::uint64_t chunks_emitted = 0;
    /// Sum over members of chunks they should have seen / actually saw;
    /// 1 - delivered/expected is the network-wide loss rate of the window.
    std::uint64_t chunks_expected = 0;
    std::uint64_t chunks_delivered = 0;
    std::uint64_t joins_completed = 0;
    std::uint64_t reconnects_completed = 0;
    std::uint64_t crashes = 0;
    std::uint64_t refines_run = 0;
    std::uint64_t refine_switches = 0;
    /// Periodic timer work, counted without clock reads: failure-detector
    /// probes (counted from each member's probe clock, not fired),
    /// refinement timer ticks (refines_run counts the rounds that ran: a
    /// detached member's tick is a no-op), and crash verdicts — true when
    /// the parent had crashed, false when the miss streak was control loss
    /// alone.
    std::uint64_t heartbeat_ticks = 0;
    std::uint64_t refine_ticks = 0;
    std::uint64_t verdicts_true = 0;
    std::uint64_t verdicts_false = 0;

    /// The counts between snapshot `b` and a later snapshot `a`.
    friend Counters operator-(Counters a, const Counters& b) {
      a.control_messages -= b.control_messages;
      a.data_transmissions -= b.data_transmissions;
      a.chunks_emitted -= b.chunks_emitted;
      a.chunks_expected -= b.chunks_expected;
      a.chunks_delivered -= b.chunks_delivered;
      a.joins_completed -= b.joins_completed;
      a.reconnects_completed -= b.reconnects_completed;
      a.crashes -= b.crashes;
      a.refines_run -= b.refines_run;
      a.refine_switches -= b.refine_switches;
      a.heartbeat_ticks -= b.heartbeat_ticks;
      a.refine_ticks -= b.refine_ticks;
      a.verdicts_true -= b.verdicts_true;
      a.verdicts_false -= b.verdicts_false;
      return a;
    }
  };
  // A new counter must be subtracted above too.
  static_assert(sizeof(Counters) == 14 * sizeof(std::uint64_t));
  /// Counters since start() (whole-run metrics), every probe that has
  /// fired by now included. A window of the run, such as one measurement
  /// epoch, is the difference of two snapshots.
  Counters totals() const;
  /// Per-phase wall clock since start(); all-zero unless params.profile.
  const PhaseProfile& profile() const { return profile_; }

  /// One member's chunks in its current stint: those it was expected to
  /// see since its first chunk at or after in_session_since, and those of
  /// them that reached it. Both 0 before that chunk and after the member
  /// left or crashed.
  struct MemberChunks {
    std::uint32_t expected = 0;
    std::uint32_t received = 0;
  };
  MemberChunks member_chunks(net::HostId h) const;

  /// Startup / reconnection records accumulated since the last drain: swaps
  /// them into `out` (cleared first); the session keeps accumulating into
  /// out's previous storage, so a capture loop ping-pongs two buffers
  /// instead of allocating.
  void drain_startup_records(std::vector<TimingRecord>& out);
  void drain_reconnect_records(std::vector<TimingRecord>& out);

 private:
  TimingRecord run_join(net::HostId h, net::HostId start, bool is_reconnect,
                        sim::Time detection = 0.0, OpStats pre = {});
  /// The join epilogue shared by the sequential path and the pipeline's
  /// commit turns: counters, timing record, flood-table timestamps,
  /// heartbeat (re)arming, and a fresh member's refinement timer.
  TimingRecord finish_join(net::HostId h, const OpStats& stats,
                           bool is_reconnect, sim::Time detection);
  /// Locating-first entry: contacts the rendezvous (one exchange with the
  /// source) and asks the placement index for a nearby attached member;
  /// falls back to the source when the index has no answer.
  net::HostId locate_entry(net::HostId h, OpStats& stats);
  /// Services every join enqueued at the current timestamp as one batch of
  /// interleaved walks (round-robin turns over a shared TreeWalk, per-node
  /// slot reservations, park/wake on capacity dead-ends). See DESIGN.md §10.
  void drain_join_batch();
  /// Where an orphan starts its rejoin: the grandparent if it is attached
  /// (or is the source) and eligible, else the source (§3.3; also covers
  /// "the grandparent crashed too"). A grandparent that is itself a crash
  /// orphan awaiting its verdict is skipped: detached, it reports the slot
  /// its own uplink will retake as free.
  net::HostId reconnect_start(net::HostId orphan) const;
  void arm_refinement(net::HostId h);
  void disarm_refinement(net::HostId h);
  /// (Re)starts `h`'s failure detector after an attach: resets the miss
  /// streak, drops a pending verdict and starts the probe clock if it is
  /// not already running.
  void ensure_heartbeat(net::HostId h);
  void disarm_heartbeat(net::HostId h);
  /// True if a probe due at `t` has fired: before now, or at now outside a
  /// callback (Reactor::in_callback).
  bool probe_fired(sim::Time t) const;
  /// Adds to `into` the probes of `hb` from `next` (moved past them) up to
  /// `bound`, at it too when `inclusive`: 2 messages per probe, 1 while
  /// orphaned (nothing answers).
  void count_probes(const HeartbeatState& hb, sim::Time& next, sim::Time bound,
                    bool inclusive, Counters& into) const;
  /// Counts into totals_ the probes of `hb` that have fired.
  void settle_heartbeat(HeartbeatState& hb);
  /// Probability that one of `h`'s probes to its parent misses: the probe
  /// or the ack is lost.
  double probe_miss_chance(net::HostId h) const;
  /// The streak of `hb` that has missed every probe fired so far and whose
  /// first miss has fired, as an index into its plan; -1 if none.
  int streak_under_way(const HeartbeatState& hb) const;
  /// Replaces `h`'s plan and pending event: from the probe due at `from`,
  /// with `streak` misses in a row before it (the streak begun at
  /// `streak_first`), draws the next streaks and schedules the verdict or
  /// the end of the batch.
  void plan_probes(net::HostId h, sim::Time from, int streak,
                   sim::Time streak_first = 0.0);
  /// The parent changed: if the miss chance did too, the probes still to
  /// come are re-planned with it, continuing the current streak.
  void on_attach(net::HostId child, net::HostId parent) override;
  void on_detach(net::HostId child, net::HostId parent) override;
  /// Arms `h`'s detector event at `at` (none at +inf): the verdict or the
  /// first miss of the streak after its batch.
  void arm_detector(net::HostId h, sim::Time at, bool verdict);
  /// The first miss of the streak after a batch: draws the next batch.
  void heartbeat_next_batch(net::HostId h);
  void heartbeat_verdict(net::HostId h);
  void complete_detection(net::HostId h);
  void forget_crash_orphan(net::HostId h);
  /// Wall-clock of a control exchange of `messages` messages with base
  /// latency `base` under the lossy-control model: draws request/reply loss
  /// and pays timeout + exponential-backoff retransmissions, charging every
  /// retry's messages to `stats`. Returns `base` unchanged (and draws
  /// nothing) when the effective loss is zero or lossy_control is off.
  sim::Time lossy_elapsed(net::HostId from, net::HostId with, int messages,
                          sim::Time base, OpStats& stats);
  /// Drops a joiner still waiting for its concurrent drain from the queue
  /// (order kept): it never attached, so it leaves nothing else behind.
  void forget_pending_join(net::HostId h);
  /// Puts `h` on the handshake list (see Scratch::handshakes).
  void list_handshake(net::HostId h);
  /// Takes a departing member out of the in-session count and the
  /// handshake list.
  void end_chunk_stint(net::HostId h);

  /// One chunk's data-plane sums.
  struct ChunkTally {
    std::uint64_t transmissions = 0;
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
  };
  void emit_chunk();
  /// Lossy data plane: floods the chunk over every overlay edge under the
  /// source with one loss draw per delivering edge, scanning the cached
  /// visit order (rebuilt first if the tree changed since the last chunk).
  ChunkTally flood_chunk(sim::Time now, sim::Time buffered_now);
  /// Rebuilds Scratch::flood_order from the tree, refreshing each child's
  /// uplink-loss memo in FloodTable for the parent it now has.
  void build_flood_order();
  /// Charges a missed chunk to every in-session member of the subtree
  /// under `root` (adding them to `missed`); returns the subtree's size.
  std::uint64_t miss_subtree(net::HostId root, sim::Time now,
                             std::uint64_t& missed);
  /// True if the current chunk reaches `h` on a lossless underlay: `h`
  /// hangs under the source and neither it nor any ancestor is inside its
  /// handshake. Memoized per chunk in FloodTable::reach_stamp, so the
  /// checks of one chunk climb each member's uplink at most once.
  bool chunk_reaches(net::HostId h, sim::Time buffered_now);

  /// The time/timer seam every call site below goes through.
  sim::Reactor& reactor_;
  const net::Underlay& underlay_;
  Protocol& protocol_;
  const MetricProvider& metric_;
  SessionParams params_;
  util::Rng rng_;
  /// The failure detector's own stream, split from rng_: probe misses never
  /// shift another consumer's draws.
  util::Rng detector_rng_;
  /// A drain event for the current timestamp's join batch is already in the
  /// simulator queue.
  bool drain_scheduled_ = false;
  /// Current and best same-instant join cohort (see join_cohort_size()).
  sim::Time cohort_at_ = -1.0;
  std::uint64_t cohort_n_ = 0;
  sim::Time cohort_span_ = 0.0;
  std::uint64_t best_cohort_n_ = 0;
  sim::Time best_cohort_span_ = 0.0;

  /// The data-plane chunk clock, a periodic timer.
  sim::EventId stream_event_ = sim::kInvalidEvent;
  /// underlay_.zero_loss(), read once by start(): chunks are then counted
  /// from membership instead of flooded edge by edge.
  bool lossless_ = false;
  /// Alive members whose FloodTable::in_session_at is set: the chunks
  /// expected per emission.
  std::uint64_t in_session_ = 0;
  /// Per-chunk stamp of chunk_reaches(); 0 is never current.
  std::uint32_t reach_epoch_ = 0;

  /// Every buffer the run grows (see Scratch). The leave/crash orphan list
  /// is never re-entered: each departure is a top-level event and the
  /// rejoin path below it never deactivates.
  Scratch scratch_;

  Counters totals_;
  PhaseProfile profile_;
  bool started_ = false;
  MembershipObserver* observer_ = nullptr;
};

}  // namespace vdm::overlay
