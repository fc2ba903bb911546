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
/// Implementation: every timer owns a slot of a free-list slab (its
/// callable and a generation-stamped id) for its life, and pending timers
/// are ordered by (t, seq) in two kinds of structure:
///
///  * one-shots (schedule_at / schedule_in) sit in an indexed 4-ary
///    min-heap whose entries carry their (t, seq) key (a sift compares
///    contiguous entries and touches the slab only to update the slot ->
///    heap-position back-pointer), so cancel() removes one with a single
///    localized sift instead of leaving a tombstone;
///  * periodic timers (schedule_every) sit as {t, seq, slot} entries in the
///    ring of their period, a circular buffer in (t, seq) order, one ring
///    per distinct period: a timer is due one period after its arm or its
///    last deadline, now never decreases and seq only grows, so appending
///    keeps the ring sorted. The whole ring holds one heap entry, keyed by
///    its head. When that entry reaches the top, the engine takes it off
///    the heap and fires consecutive ticks while the ring head still
///    precedes the new heap top (and the run bound), then puts it back
///    once — one heap round trip per drain instead of a full-depth sift per
///    tick. A cancelled timer leaves a tombstone that the head skips.
///
/// So events fire in exactly the (t, seq) order a heap-only engine gives,
/// and the timers every member runs (refinement ticks) cost a sequential
/// ring read and append. Callbacks are small-buffer-optimized (InlineFn),
/// so once the slab, heap and rings have grown to a run's working set,
/// schedule/fire/cancel perform zero heap allocations.
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
  /// First due at now() + period.
  EventId schedule_every(Time period, InlineFn fn) override;
  void cancel(EventId id) override;

  /// Executes the earliest pending event (a periodic tick counts as one).
  /// Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains (or `max_events` fire). Returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::size_t run_until(Time t) override;
  bool in_callback() const override { return in_callback_; }

  /// Number of live (non-cancelled) pending events: one-shots in the heap
  /// plus every ring's periodic timers.
  std::size_t pending() const {
    return heap_.size() - heap_rings_ + ring_timers_;
  }

  /// Timestamp of the earliest pending event, or +infinity when the queue is
  /// empty. The wall-clock reactor (transport::UdpReactor) paces this engine
  /// by sleeping until the next deadline; the DES never needs it.
  Time next_event_time() const;

  /// Total events executed since construction (or reset()).
  std::uint64_t executed() const { return executed_; }

  /// Of executed(), the periodic ticks (fired from a ring) rather than
  /// one-shots.
  std::uint64_t periodic_fires() const { return periodic_fires_; }

  /// Returns the simulator to its just-constructed state — clock at zero,
  /// queue empty, no rings — while keeping the slab, heap and ring capacity
  /// a previous run grew (the next run's periods reuse the rings in the
  /// order of their first use). Never call from inside a callback. This is
  /// what lets a RunScratch shuttle one Simulator through back-to-back runs
  /// allocation-free.
  void reset();

  /// Heap bytes reserved by the slab, heap and rings (arena accounting).
  std::size_t capacity_bytes() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One slab entry: a timer, or the heap entry of a ring (`ring` set, no
  /// callable; its heap key mirrors the ring's head). A periodic timer's
  /// slot has `ring` set too, but never sits in the heap.
  struct Slot {
    std::uint32_t generation = 1;
    /// A one-shot's or a ring's index in heap_ while queued; a periodic
    /// timer's free-running index in its ring while pending.
    std::uint32_t pos = kNone;
    std::uint32_t next = kNone;  // free-list link while free
    /// A periodic timer's ring, or the ring this slot stands for.
    std::uint32_t ring = kNone;
    InlineFn fn;
  };
  static_assert(sizeof(Slot) == 48, "the slab holds every pending timer");

  /// A queued slot and its key; seq is the FIFO tie-break within a
  /// timestamp.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// A periodic timer's place in its ring. `slot` is kNone once cancelled
  /// (a tombstone the ring head skips).
  struct RingEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Ring {
    Time period = 0.0;
    /// Power-of-two sized circular buffer; timers occupy the free-running
    /// indices [head, tail), the head always live unless head == tail.
    std::vector<RingEntry> entries;
    std::uint32_t mask = 0;  // entries.size() - 1 once the ring has storage
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    /// The slab slot standing for the ring in the heap while the ring is
    /// non-empty and no drain has it off the heap.
    std::uint32_t slot = kNone;

    bool empty() const { return head == tail; }
    const RingEntry& front() const { return entries[head & mask]; }
  };

  static EventId make_id(std::uint32_t index, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(index) + 1);  // +1 keeps 0 == kInvalidEvent
  }
  static std::uint32_t index_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
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

  /// The ring of `period`, registered on first use.
  std::uint32_t ring_for(Time period);
  /// Appends a timer due at `t` with the next sequence number.
  void push_timer(Ring& g, std::uint32_t slot, Time t);
  /// Moves the head past the entry it points at and any tombstones behind it.
  void pop_front(Ring& g);
  void grow_ring(Ring& g);
  /// Queues the ring's heap entry, keyed by its (live) head.
  void enter_heap(Ring& g);
  void cancel_periodic(std::uint32_t slot);

  /// Fires the heap top: one one-shot, or a drain of the ring on top
  /// firing at most `budget` ticks, all due by `bound`. Returns the count.
  std::size_t fire_next(Time bound, std::size_t budget);
  void fire_one_shot();
  std::size_t drain_ring(Time bound, std::size_t budget);
  /// Puts a drained ring back on the heap unless it emptied.
  void end_drain(Ring& g);

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t periodic_fires_ = 0;

  std::vector<Slot> slots_;          // slab; grows, never shrinks
  std::uint32_t free_head_ = kNone;  // free-list through Slot::next
  std::vector<HeapEntry> heap_;      // indexed 4-ary min-heap of slots
  std::uint32_t heap_rings_ = 0;     // of heap_, the entries that are rings

  /// Rings in the order of their period's first use; entries past
  /// num_rings_ are rings kept from before a reset(). Boxed so a tick may
  /// register a ring without moving the one it fires from.
  std::vector<std::unique_ptr<Ring>> rings_;
  std::uint32_t num_rings_ = 0;
  std::size_t ring_timers_ = 0;  // live ring entries across all rings

  // The periodic timer whose tick is running, and its ring, off the heap
  // for the drain.
  std::uint32_t firing_slot_ = kNone;
  std::uint32_t draining_ = kNone;
  bool firing_cancelled_ = false;
  bool in_callback_ = false;
};

}  // namespace vdm::sim
