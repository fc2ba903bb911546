#pragma once

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
/// generation-stamped ids, ordered by an indexed 4-ary min-heap (slot ->
/// heap-position back-pointers), so cancel() removes the event with one
/// localized sift instead of accumulating tombstones. Callbacks are
/// small-buffer-optimized (InlineFn), so once the slab and heap have grown
/// to a run's working set, schedule/fire/cancel perform zero heap
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

  /// Executes the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains (or `max_events` fire). Returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::size_t run_until(Time t) override;

  /// Number of live (non-cancelled) pending events.
  std::size_t pending() const { return heap_.size(); }

  /// Timestamp of the earliest pending event, or +infinity when the queue is
  /// empty. The wall-clock reactor (transport::UdpReactor) paces this engine
  /// by sleeping until the next deadline; the DES never needs it.
  Time next_event_time() const {
    return heap_.empty() ? std::numeric_limits<Time>::infinity()
                         : slots_[heap_[0]].t;
  }

  /// Total events executed since construction (for micro-benchmarks).
  std::uint64_t executed() const { return executed_; }

  /// Returns the simulator to its just-constructed state — clock at zero,
  /// queue empty — while keeping the slab and heap capacity a previous run
  /// grew. Never call from inside a callback. This is what lets a RunScratch
  /// shuttle one Simulator through back-to-back runs allocation-free.
  void reset() {
    slots_.clear();
    heap_.clear();
    free_head_ = kNoSlot;
    now_ = kTimeZero;
    next_seq_ = 1;
    executed_ = 0;
    firing_slot_ = kNoSlot;
    firing_cancelled_ = false;
    firing_rearm_ = false;
    firing_rearm_at_ = kTimeZero;
  }

  /// Heap bytes reserved by the slab and heap (arena accounting).
  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           heap_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    Time t = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break within a timestamp
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNoSlot;
    std::uint32_t next_free = kNoSlot;
    InlineFn fn;
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
  void fire_top();

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;

  std::vector<Slot> slots_;            // slab; grows, never shrinks
  std::uint32_t free_head_ = kNoSlot;  // free-list through Slot::next_free
  std::vector<std::uint32_t> heap_;    // indexed 4-ary min-heap of slots

  // State of the callback currently running (kNoSlot outside fire_top).
  std::uint32_t firing_slot_ = kNoSlot;
  bool firing_cancelled_ = false;
  bool firing_rearm_ = false;
  Time firing_rearm_at_ = kTimeZero;
};

}  // namespace vdm::sim
