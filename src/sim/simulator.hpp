#pragma once

#include <cstdint>
#include <limits>
#include <memory>
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
/// Implementation: pending events are ordered by (t, seq) in two kinds of
/// structure:
///
///  * plain events (schedule_at / schedule_in, and their in-place re-arms
///    through reschedule_current_in) live in a free-list slab of fixed slots
///    with generation-stamped ids, ordered by an indexed 4-ary min-heap whose
///    entries carry their (t, seq) key (a sift compares contiguous entries
///    and touches the slab only to update the slot -> heap-position
///    back-pointer), so cancel() removes one with a single localized sift
///    instead of leaving a tombstone;
///  * members of a periodic group (add_periodic_group / arm_periodic) live
///    as {t, seq, member, payload} entries in the group's ring, a circular
///    buffer in (t, seq) order: a member is due one period after its arm or
///    its last tick, now never decreases and seq only grows, so appending
///    keeps the ring sorted. The whole group holds one heap entry, keyed by
///    its ring head. When that entry reaches the top, the engine takes it
///    off the heap and fires consecutive members while the ring head still
///    precedes the new heap top (and the run bound), then puts it back once
///    — one heap round trip per drain instead of a full-depth sift per
///    tick. A cancelled member leaves a tombstone that the head skips.
///
/// So events fire in exactly the (t, seq) order a heap-only engine gives,
/// and the timers every member runs (refinement ticks) cost a sequential
/// ring read and append. Callbacks are small-buffer-optimized
/// (InlineFn, TickFn), so once the slab, heap and rings have grown to a
/// run's working set, schedule/arm/fire/cancel perform zero heap
/// allocations.
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
  GroupId add_periodic_group(Time period, TickFn tick) override;
  EventId arm_periodic(GroupId group, std::uint32_t payload) override;

  /// Executes the earliest pending event (one group member counts as one).
  /// Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains (or `max_events` fire). Returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::size_t run_until(Time t) override;
  bool in_callback() const override {
    return firing_slot_ != kNone || firing_member_ != kNone;
  }

  /// Number of live (non-cancelled) pending events: plain events in the
  /// heap plus every group's ring members.
  std::size_t pending() const {
    return heap_.size() - heap_groups_ + ring_members_;
  }

  /// Timestamp of the earliest pending event, or +infinity when the queue is
  /// empty. The wall-clock reactor (transport::UdpReactor) paces this engine
  /// by sleeping until the next deadline; the DES never needs it.
  Time next_event_time() const;

  /// Total events executed since construction (or reset()).
  std::uint64_t executed() const { return executed_; }

  /// Of executed(), the ticks that fired from a periodic group's ring
  /// rather than as plain heap entries.
  std::uint64_t group_fires() const { return group_fires_; }

  /// Returns the simulator to its just-constructed state — clock at zero,
  /// queue empty, no groups — while keeping the slab, heap, member-table and
  /// ring capacity a previous run grew (the next run's groups reuse the
  /// rings in registration order). Never call from inside a callback. This
  /// is what lets a RunScratch shuttle one Simulator through back-to-back
  /// runs allocation-free.
  void reset();

  /// Heap bytes reserved by the slab, heap, member table and rings (arena
  /// accounting).
  std::size_t capacity_bytes() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Generations wrap within 31 bits, so bit 63 of an id is free to tell a
  /// group member's id from a plain event's.
  static constexpr std::uint32_t kGenerationMask = 0x7fffffffu;
  static constexpr EventId kMemberBit = EventId{1} << 63;

  /// One slab entry: a plain event, or the heap entry of a periodic group
  /// (`group` set, no callable; its heap key mirrors the group's ring head).
  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNone;  // index in heap_ while queued
    std::uint32_t next = kNone;      // free-list link while free
    std::uint32_t group = kNone;     // the group this slot stands for
    InlineFn fn;
  };
  static_assert(sizeof(Slot) == 48, "the slab holds every pending plain event");

  /// A queued slot and its key; seq is the FIFO tie-break within a
  /// timestamp.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// A group member's place in its ring. `member` is kNone once cancelled
  /// (a tombstone the ring head skips).
  struct RingEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t member;
    std::uint32_t payload;
  };

  /// A member id's target. While pending, `pos` is the member's ring index
  /// (free-running; the slot is pos & mask); while free it links the free
  /// list.
  struct Member {
    std::uint32_t pos = kNone;
    std::uint32_t generation = 1;
    GroupId group = kNone;
  };

  struct Group {
    Time period = 0.0;
    TickFn tick;
    /// Power-of-two sized circular buffer; members occupy the free-running
    /// indices [head, tail), the head always live unless head == tail.
    std::vector<RingEntry> ring;
    std::uint32_t mask = 0;  // ring.size() - 1 once the ring has storage
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    /// The slab slot standing for the group in the heap while the ring is
    /// non-empty and no drain has it off the heap.
    std::uint32_t slot = kNone;

    bool empty() const { return head == tail; }
    const RingEntry& front() const { return ring[head & mask]; }
  };

  static EventId make_id(std::uint32_t index, std::uint32_t generation) {
    return (static_cast<EventId>(generation & kGenerationMask) << 32) |
           (static_cast<EventId>(index) + 1);  // +1 keeps 0 == kInvalidEvent
  }
  static std::uint32_t index_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32) & kGenerationMask;
  }

  /// True if the event keyed by `a` fires before the one keyed by `b`.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(std::uint32_t slot, Time t, std::uint64_t seq);
  void heap_remove(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::uint32_t acquire_member(GroupId group);
  void release_member(std::uint32_t member);
  /// Appends a member due at `t` with the next sequence number.
  void push_member(Group& g, std::uint32_t member, std::uint32_t payload, Time t);
  /// Moves the head past the entry it points at and any tombstones behind it.
  void pop_front(Group& g);
  void grow_ring(Group& g);
  /// Queues the group's heap entry, keyed by its (live) ring head.
  void enter_heap(Group& g);
  void cancel_member(EventId id);

  /// Fires the heap top: one plain event, or a drain of the group on top
  /// firing at most `budget` members, all due by `bound`. Returns the count.
  std::size_t fire_next(Time bound, std::size_t budget);
  void fire_top();
  std::size_t drain_group(Time bound, std::size_t budget);
  /// Puts a drained group back on the heap unless its ring emptied.
  void end_drain(Group& g);

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t group_fires_ = 0;

  std::vector<Slot> slots_;         // slab; grows, never shrinks
  std::uint32_t free_head_ = kNone;  // free-list through Slot::next
  std::vector<HeapEntry> heap_;      // indexed 4-ary min-heap of slots
  std::uint32_t heap_groups_ = 0;    // of heap_, the entries that are groups

  /// Groups by GroupId; entries past num_groups_ are rings kept from
  /// before a reset(). Boxed so a tick may register a group without moving
  /// the one it runs from.
  std::vector<std::unique_ptr<Group>> groups_;
  std::uint32_t num_groups_ = 0;
  std::vector<Member> members_;
  std::uint32_t free_member_ = kNone;
  std::size_t ring_members_ = 0;  // live ring entries across all groups

  // State of the callback currently running: a plain event's slot, or a
  // group member (the group is off the heap for the drain).
  std::uint32_t firing_slot_ = kNone;
  std::uint32_t firing_member_ = kNone;
  GroupId draining_ = kNone;
  bool firing_cancelled_ = false;
  bool firing_rearm_ = false;
  Time firing_rearm_delay_ = kTimeZero;
};

}  // namespace vdm::sim
