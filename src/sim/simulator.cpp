#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/require.hpp"

namespace vdm::sim {

namespace {
/// Arity of the event heap. 4 keeps the tree shallow (fewer cache lines per
/// sift) while the min-of-children scan stays register-resident.
constexpr std::size_t kHeapArity = 4;
/// Entries a ring starts with; it doubles when full.
constexpr std::size_t kMinRing = 16;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    slots_[slot].next = kNone;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  // Stale EventIds now fail the generation check.
  ++s.generation;
  s.pos = kNone;
  s.ring = kNone;
  s.next = free_head_;
  free_head_ = slot;
}

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!before(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = pos * kHeapArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_push(std::uint32_t slot, Time t, std::uint64_t seq) {
  heap_.push_back({t, seq, slot});
  sift_up(heap_.size() - 1);
}

void Simulator::heap_remove(std::size_t pos) {
  slots_[heap_[pos].slot].pos = kNone;
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    heap_.pop_back();
    // The displaced element may belong above or below its new position.
    sift_up(pos);
    sift_down(slots_[heap_[pos].slot].pos);
  } else {
    heap_.pop_back();
  }
}

EventId Simulator::schedule_at(Time t, InlineFn fn) {
  VDM_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
  VDM_REQUIRE(fn != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_push(slot, t, next_seq_++);
  return make_id(slot, s.generation);
}

EventId Simulator::schedule_in(Time delay, InlineFn fn) {
  VDM_REQUIRE_MSG(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const std::uint32_t slot = index_of(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation_of(id)) return;  // already fired or cancelled
  if (slot == firing_slot_) {
    // Cancelling the periodic timer whose tick is running: the tick itself
    // cannot be undone, but its re-arm is suppressed.
    firing_cancelled_ = true;
    return;
  }
  if (s.ring != kNone) {
    cancel_periodic(slot);
    return;
  }
  heap_remove(s.pos);
  release_slot(slot);
}

// ---------------------------------------------------------- periodic timers

std::uint32_t Simulator::ring_for(Time period) {
  for (std::uint32_t r = 0; r < num_rings_; ++r) {
    if (rings_[r]->period == period) return r;
  }
  if (num_rings_ == rings_.size()) rings_.push_back(std::make_unique<Ring>());
  Ring& g = *rings_[num_rings_];
  g.period = period;
  g.head = 0;
  g.tail = 0;
  g.slot = acquire_slot();
  slots_[g.slot].ring = num_rings_;
  return num_rings_++;
}

void Simulator::grow_ring(Ring& g) {
  // Entries keep their free-running indices: index i moves to i & new mask,
  // so timers' recorded positions stay valid.
  const std::size_t size = std::max(kMinRing, 2 * g.entries.size());
  std::vector<RingEntry> entries(size);
  const auto mask = static_cast<std::uint32_t>(size - 1);
  for (std::uint32_t i = g.head; i != g.tail; ++i) {
    entries[i & mask] = g.entries[i & g.mask];
  }
  g.entries.swap(entries);
  g.mask = mask;
}

void Simulator::push_timer(Ring& g, std::uint32_t slot, Time t) {
  if (g.tail - g.head == g.entries.size()) grow_ring(g);
  // Field by field from registers: a ring entry built on the stack and
  // block-copied in stalls store forwarding behind the tick's cache misses.
  RingEntry& e = g.entries[g.tail & g.mask];
  e.t = t;
  e.seq = next_seq_++;
  e.slot = slot;
  slots_[slot].pos = g.tail++;
  ++ring_timers_;
}

void Simulator::pop_front(Ring& g) {
  ++g.head;
  while (g.head != g.tail && g.entries[g.head & g.mask].slot == kNone) ++g.head;
}

void Simulator::enter_heap(Ring& g) {
  const RingEntry& front = g.front();
  heap_push(g.slot, front.t, front.seq);
  ++heap_rings_;
}

EventId Simulator::schedule_every(Time period, InlineFn fn) {
  const Time t = now_ + period;
  // Rejects a period that is NaN, not > 0, infinite, or so small that the
  // first deadline rounds back onto now.
  VDM_REQUIRE_MSG(now_ < t && t < std::numeric_limits<Time>::infinity(),
                  "a periodic timer's period must be finite, > 0 and move "
                  "the clock");
  VDM_REQUIRE(fn != nullptr);
  const std::uint32_t r = ring_for(period);
  Ring& g = *rings_[r];
  const bool was_empty = g.empty();
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  slots_[slot].ring = r;
  // now_ never decreases, so one period from now is at or after every
  // timer already in the ring, and the fresh seq breaks the tie: the append
  // keeps the ring in (t, seq) order.
  push_timer(g, slot, t);
  if (was_empty && r != draining_) enter_heap(g);
  return make_id(slot, slots_[slot].generation);
}

void Simulator::cancel_periodic(std::uint32_t slot) {
  const std::uint32_t r = slots_[slot].ring;
  const std::uint32_t pos = slots_[slot].pos;
  Ring& g = *rings_[r];
  g.entries[pos & g.mask].slot = kNone;  // tombstone
  --ring_timers_;
  release_slot(slot);
  if (pos != g.head) return;
  pop_front(g);
  if (r == draining_) return;  // off the heap until the drain ends
  const std::uint32_t at = slots_[g.slot].pos;
  if (g.empty()) {
    heap_remove(at);
    --heap_rings_;
    return;
  }
  // The new head is later in (t, seq) than the old one: the key only grows.
  heap_[at].t = g.front().t;
  heap_[at].seq = g.front().seq;
  sift_down(at);
}

Time Simulator::next_event_time() const {
  Time t = heap_.empty() ? std::numeric_limits<Time>::infinity()
                         : heap_[0].t;
  if (draining_ != kNone && !rings_[draining_]->empty()) {
    t = std::min(t, rings_[draining_]->front().t);
  }
  return t;
}

// ------------------------------------------------------------------- firing

void Simulator::fire_one_shot() {
  const std::uint32_t slot = heap_[0].slot;
  now_ = heap_[0].t;
  heap_remove(0);
  ++executed_;
  // Spent before it runs: its id is stale inside its own callback, and the
  // slot is back on the free list, so a successor the callback schedules
  // (a chain of one-shots, such as a retry backoff) reuses it. The callable
  // runs from a local.
  InlineFn fn = std::move(slots_[slot].fn);
  release_slot(slot);
  in_callback_ = true;
  try {
    fn();
  } catch (...) {
    in_callback_ = false;
    throw;
  }
  in_callback_ = false;
}

std::size_t Simulator::drain_ring(Time bound, std::size_t budget) {
  const std::uint32_t r = slots_[heap_[0].slot].ring;
  Ring& g = *rings_[r];  // boxed: stays put if a tick registers a ring
  heap_remove(0);
  --heap_rings_;
  draining_ = r;
  std::size_t fired = 0;
  for (;;) {
    const Time t = g.front().t;
    const std::uint32_t slot = g.front().slot;
    pop_front(g);
    --ring_timers_;
    now_ = t;
    ++executed_;
    ++periodic_fires_;
    ++fired;
    firing_slot_ = slot;
    firing_cancelled_ = false;
    in_callback_ = true;
    // Run from a local: the tick may schedule events and grow the slab,
    // invalidating any reference into slots_.
    InlineFn fn = std::move(slots_[slot].fn);
    try {
      fn();
    } catch (...) {
      // The timer is spent, as a throwing one-shot is; the rest of the ring
      // goes back on the heap before the exception propagates.
      firing_slot_ = kNone;
      in_callback_ = false;
      release_slot(slot);
      end_drain(g);
      throw;
    }
    firing_slot_ = kNone;
    in_callback_ = false;
    if (firing_cancelled_) {
      release_slot(slot);
    } else {
      // The re-arm takes its seq after everything the tick scheduled, one
      // period after this deadline, which must move the clock here too: a
      // period that moved it at the arm can round away in a coarser binade.
      const Time due = t + g.period;
      if (!(due > t)) {
        release_slot(slot);
        end_drain(g);
        throw util::InvariantError(
            "a periodic timer's period no longer moves the clock at its "
            "deadline");
      }
      slots_[slot].fn = std::move(fn);
      push_timer(g, slot, due);
    }
    if (fired == budget || g.empty()) break;
    const RingEntry& next = g.front();
    if (next.t > bound) break;
    if (!heap_.empty()) {
      const HeapEntry& top = heap_[0];
      if (top.t < next.t || (top.t == next.t && top.seq < next.seq)) break;
    }
  }
  end_drain(g);
  return fired;
}

void Simulator::end_drain(Ring& g) {
  draining_ = kNone;
  if (!g.empty()) enter_heap(g);
}

std::size_t Simulator::fire_next(Time bound, std::size_t budget) {
  if (slots_[heap_[0].slot].ring != kNone) return drain_ring(bound, budget);
  fire_one_shot();
  return 1;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire_next(std::numeric_limits<Time>::infinity(), 1);
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !heap_.empty()) {
    n += fire_next(std::numeric_limits<Time>::infinity(), max_events - n);
  }
  return n;
}

std::size_t Simulator::run_until(Time t) {
  VDM_REQUIRE(t >= now_);
  std::size_t n = 0;
  while (!heap_.empty() && heap_[0].t <= t) n += fire_next(t, SIZE_MAX);
  now_ = t;
  return n;
}

// ------------------------------------------------------------------ upkeep

void Simulator::reset() {
  slots_.clear();  // drops the finished run's callables
  heap_.clear();
  free_head_ = kNone;
  heap_rings_ = 0;
  num_rings_ = 0;
  ring_timers_ = 0;
  now_ = kTimeZero;
  next_seq_ = 1;
  executed_ = 0;
  periodic_fires_ = 0;
  firing_slot_ = kNone;
  draining_ = kNone;
  firing_cancelled_ = false;
  in_callback_ = false;
}

std::size_t Simulator::capacity_bytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Slot) +
                      heap_.capacity() * sizeof(HeapEntry) +
                      rings_.capacity() * sizeof(std::unique_ptr<Ring>);
  for (const std::unique_ptr<Ring>& g : rings_) {
    bytes += sizeof(Ring) + g->entries.capacity() * sizeof(RingEntry);
  }
  return bytes;
}

}  // namespace vdm::sim
