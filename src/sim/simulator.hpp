#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/reactor.hpp"

namespace vdm::sim {

/// Single-threaded discrete-event simulator.
///
/// The heart of the reproduction: every protocol message, probe, data chunk,
/// churn action and refinement timer is an event on this queue. Events at
/// equal timestamps execute in scheduling order (stable sequence-number
/// tie-break), which keeps whole experiments bit-deterministic per seed —
/// parallelism lives one level up, across independent seeds.
///
/// Implementation: events live in a free-list slab of fixed slots with
/// generation-stamped ids. Pending events are ordered by (t, seq) in two
/// structures:
///
///  * an indexed 4-ary min-heap (slot -> heap-position back-pointers), which
///    holds every event scheduled with schedule_at/schedule_in, so cancel()
///    removes it with one localized sift instead of leaving a tombstone;
///  * up to kLanes FIFO lanes, one per re-arm delay. An event re-armed with
///    reschedule_current_in(d) lands at now + d, and now never decreases, so
///    every re-arm with the same d arrives in (t, seq) order: appending to
///    the lane keeps it sorted. Only each lane's head sits in the heap. A
///    fired or cancelled head hands its heap entry to its successor, which
///    can only sink (one sift-down); a member behind the head is unlinked in
///    O(1). This is libevent's "common timeouts" idea. A re-arm joins the
///    open lane for its delay; failing that it goes to the heap, and a
///    free lane opens when two such re-arms in a row share a delay, so
///    one-off delays (backoff steps, lone timers) never hold a lane or pay
///    for more than a scan of the open ones.
///
/// The heap top is therefore still the earliest pending event, so events
/// fire in exactly the (t, seq) order a heap-only engine gives, and the
/// periodic timers every member runs (heartbeats, refinement ticks) cost a
/// shallow sift instead of a full-depth one. Lane links reuse slot fields
/// (see Slot) and the lane table is inline, so nothing allocates for them.
/// Callbacks are small-buffer-optimized (InlineFn), so once the slab and
/// heap have grown to a run's working set, schedule/fire/cancel perform
/// zero heap allocations.
///
/// The DES backend of the clock seam (sim::Reactor). `final`, so calls
/// through a Simulator& bind statically; code that must also run on the
/// wall clock holds a Reactor& instead.
class Simulator final : public Reactor {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const override { return now_; }

  /// Requires t >= now().
  EventId schedule_at(Time t, InlineFn fn) override;
  EventId schedule_in(Time delay, InlineFn fn) override;
  void cancel(EventId id) override;
  bool reschedule_current_in(Time delay) override;

  /// Executes the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains (or `max_events` fire). Returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::size_t run_until(Time t) override;

  /// Number of live (non-cancelled) pending events: the heap plus the lane
  /// members queued behind their heads.
  std::size_t pending() const { return heap_.size() + lane_backlog_; }

  /// Timestamp of the earliest pending event, or +infinity when the queue is
  /// empty. The wall-clock reactor (transport::UdpReactor) paces this engine
  /// by sleeping until the next deadline; the DES never needs it.
  Time next_event_time() const {
    return heap_.empty() ? std::numeric_limits<Time>::infinity()
                         : slots_[heap_[0]].t;
  }

  /// Total events executed since construction (or reset()).
  std::uint64_t executed() const { return executed_; }

  /// Of executed(), the events that fired from a re-arm lane rather than
  /// as plain heap entries.
  std::uint64_t lane_fires() const { return lane_fires_; }

  /// Returns the simulator to its just-constructed state — clock at zero,
  /// queue empty — while keeping the slab and heap capacity a previous run
  /// grew. Never call from inside a callback. This is what lets a RunScratch
  /// shuttle one Simulator through back-to-back runs allocation-free.
  void reset() {
    slots_.clear();
    heap_.clear();
    free_head_ = kNoSlot;
    used_lanes_ = 0;
    lane_backlog_ = 0;
    last_miss_delay_ = -1.0;
    now_ = kTimeZero;
    next_seq_ = 1;
    executed_ = 0;
    lane_fires_ = 0;
    firing_slot_ = kNoSlot;
    firing_cancelled_ = false;
    firing_rearm_ = false;
    firing_rearm_delay_ = kTimeZero;
  }

  /// Heap bytes reserved by the slab and heap (arena accounting). The lane
  /// table is inline and lane links live in the slab, so lanes add nothing.
  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           heap_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kNoLane = 0xffffffffu;
  /// Distinct re-arm delays served by lanes at once. A session re-arms with
  /// at most three (heartbeat period, refinement period, chunk interval).
  static constexpr std::size_t kLanes = 8;

  /// One slab entry. The link fields are shared by the three states a slot
  /// can be in: free, in the heap (including a lane head), or queued in a
  /// lane behind its head.
  struct Slot {
    Time t = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break within a timestamp
    std::uint32_t generation = 1;
    /// In the heap: its index in heap_. Queued behind a lane head: the
    /// previous slot in that lane.
    std::uint32_t heap_pos = kNoSlot;
    /// Free: the next free slot. In a lane (head or queued): the next slot
    /// in that lane.
    std::uint32_t next = kNoSlot;
    /// Index into lanes_ while the slot is a lane member (fills what would
    /// otherwise be padding before fn).
    std::uint32_t lane = kNoLane;
    InlineFn fn;
  };
  static_assert(sizeof(Slot) == 96, "lane links must not grow the slot");

  /// A FIFO of slots re-armed with the same delay, in (t, seq) order.
  /// Meaningful only while its bit is set in used_lanes_.
  struct Lane {
    Time delay = 0.0;
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(slot) + 1);  // +1 keeps 0 == kInvalidEvent
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// True if the event keyed by slot `a` fires before the one in slot `b`.
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.t != sb.t) return sa.t < sb.t;
    return sa.seq < sb.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(std::uint32_t slot);
  void heap_remove(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Takes the event at heap position `pos` off the queue; a lane head
  /// passes its heap entry to its successor.
  void dequeue_heap_entry(std::size_t pos);
  /// Queues a re-armed slot (t and seq already set) on the open lane for
  /// `delay`, else on the heap (opening a lane for `delay` when the previous
  /// lane-less re-arm had the same delay).
  void enqueue_rearm(std::uint32_t slot, Time delay);
  void fire_top();

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t lane_fires_ = 0;

  std::vector<Slot> slots_;            // slab; grows, never shrinks
  std::uint32_t free_head_ = kNoSlot;  // free-list through Slot::next
  std::vector<std::uint32_t> heap_;    // indexed 4-ary min-heap of slots
  std::array<Lane, kLanes> lanes_{};
  std::uint32_t used_lanes_ = 0;       // bit i: lanes_[i] holds members
  std::size_t lane_backlog_ = 0;       // lane members not in heap_
  Time last_miss_delay_ = -1.0;        // delay of the last lane-less re-arm

  // State of the callback currently running (kNoSlot outside fire_top).
  std::uint32_t firing_slot_ = kNoSlot;
  bool firing_cancelled_ = false;
  bool firing_rearm_ = false;
  Time firing_rearm_delay_ = kTimeZero;
};

}  // namespace vdm::sim
