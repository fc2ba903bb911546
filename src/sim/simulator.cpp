#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/require.hpp"

namespace vdm::sim {

namespace {
/// Arity of the event heap. 4 keeps the tree shallow (fewer cache lines per
/// sift) while the min-of-children scan stays register-resident.
constexpr std::size_t kHeapArity = 4;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    slots_[slot].next = kNoSlot;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.generation;  // stale EventIds now fail the generation check
  s.heap_pos = kNoSlot;
  s.lane = kNoLane;
  s.next = free_head_;
  free_head_ = slot;
}

void Simulator::sift_up(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!before(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_down(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = pos * kHeapArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], slot)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_push(std::uint32_t slot) {
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
}

void Simulator::heap_remove(std::size_t pos) {
  slots_[heap_[pos]].heap_pos = kNoSlot;
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    heap_.pop_back();
    // The displaced element may belong above or below its new position.
    sift_up(pos);
    sift_down(slots_[heap_[pos]].heap_pos);
  } else {
    heap_.pop_back();
  }
}

void Simulator::dequeue_heap_entry(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  Slot& s = slots_[slot];
  if (s.lane == kNoLane) {
    heap_remove(pos);
    return;
  }
  Lane& lane = lanes_[s.lane];
  const std::uint32_t successor = s.next;
  s.lane = kNoLane;
  s.next = kNoSlot;
  if (successor == kNoSlot) {
    used_lanes_ &= ~(1u << (&lane - lanes_.data()));  // emptied: free it
    heap_remove(pos);
    return;
  }
  lane.head = successor;
  --lane_backlog_;
  s.heap_pos = kNoSlot;
  // The successor is later in (t, seq) than the head it replaces, so it can
  // only sink.
  heap_[pos] = successor;
  sift_down(pos);
}

void Simulator::enqueue_rearm(std::uint32_t slot, Time delay) {
  Slot& s = slots_[slot];
  for (std::uint32_t used = used_lanes_; used != 0; used &= used - 1) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(used));
    Lane& lane = lanes_[i];
    if (lane.delay != delay) continue;
    // now_ never decreases, so this re-arm is at or after the tail's
    // deadline with a larger seq: appending keeps the lane sorted.
    s.lane = i;
    s.heap_pos = lane.tail;
    s.next = kNoSlot;
    slots_[lane.tail].next = slot;
    lane.tail = slot;
    ++lane_backlog_;
    return;
  }
  // A lane pays off only for a delay many timers share. Open one when two
  // lane-less re-arms in a row use the same delay; a one-off delay (a
  // backoff step, a lone timer) stays in the heap and costs no lane.
  constexpr std::uint32_t kAllLanes = (1u << kLanes) - 1;
  if (delay == last_miss_delay_ && used_lanes_ != kAllLanes) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(~used_lanes_));
    used_lanes_ |= 1u << i;
    lanes_[i] = Lane{delay, slot, slot};
    s.lane = i;
  }
  last_miss_delay_ = delay;
  heap_push(slot);
}

EventId Simulator::schedule_at(Time t, InlineFn fn) {
  VDM_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
  VDM_REQUIRE(fn != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.t = t;
  s.seq = next_seq_++;
  s.fn = std::move(fn);
  heap_push(slot);
  return make_id(slot, s.generation);
}

EventId Simulator::schedule_in(Time delay, InlineFn fn) {
  VDM_REQUIRE_MSG(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation_of(id)) return;  // already fired or cancelled
  if (slot == firing_slot_) {
    // Cancelling the event whose callback is running: the firing itself
    // cannot be undone (matching the old engine, where the callback was
    // extracted before execution), but any pending re-arm is suppressed.
    firing_cancelled_ = true;
    return;
  }
  if (s.lane != kNoLane && lanes_[s.lane].head != slot) {
    // Queued behind its lane head: unlink it from the lane.
    Lane& lane = lanes_[s.lane];
    const std::uint32_t prev = s.heap_pos;
    slots_[prev].next = s.next;
    if (s.next == kNoSlot) {
      lane.tail = prev;
    } else {
      slots_[s.next].heap_pos = prev;
    }
    --lane_backlog_;
  } else {
    dequeue_heap_entry(s.heap_pos);
  }
  release_slot(slot);
}

bool Simulator::reschedule_current_in(Time delay) {
  VDM_REQUIRE_MSG(delay >= 0.0, "negative delay");
  if (firing_slot_ == kNoSlot || firing_cancelled_) return false;
  firing_rearm_ = true;
  firing_rearm_delay_ = delay;
  return true;
}

void Simulator::fire_top() {
  const std::uint32_t slot = heap_[0];
  now_ = slots_[slot].t;
  if (slots_[slot].lane != kNoLane) ++lane_fires_;
  dequeue_heap_entry(0);
  ++executed_;

  firing_slot_ = slot;
  firing_cancelled_ = false;
  firing_rearm_ = false;
  // Run from a local: the callback may schedule events and grow the slab,
  // invalidating any reference into slots_.
  InlineFn fn = std::move(slots_[slot].fn);
  try {
    fn();
  } catch (...) {
    // Keep the engine consistent if a callback throws (the old engine
    // consumed the event before running it): the event is spent, the slot
    // returns to the free list, and the exception propagates to the caller.
    release_slot(slot);
    firing_slot_ = kNoSlot;
    firing_cancelled_ = false;
    firing_rearm_ = false;
    throw;
  }

  Slot& s = slots_[slot];  // re-fetch: the slab may have reallocated
  if (firing_rearm_ && !firing_cancelled_) {
    // Re-arm in place (periodic timers): same slot, same generation — the
    // caller's EventId stays valid — with a fresh sequence number, exactly
    // as if the callback had scheduled a new event at this point.
    s.fn = std::move(fn);
    s.t = now_ + firing_rearm_delay_;  // now_ is still this event's deadline
    s.seq = next_seq_++;
    enqueue_rearm(slot, firing_rearm_delay_);
  } else {
    release_slot(slot);
  }
  firing_slot_ = kNoSlot;
  firing_cancelled_ = false;
  firing_rearm_ = false;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire_top();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !heap_.empty()) {
    fire_top();
    ++n;
  }
  return n;
}

std::size_t Simulator::run_until(Time t) {
  VDM_REQUIRE(t >= now_);
  std::size_t n = 0;
  while (!heap_.empty() && slots_[heap_[0]].t <= t) {
    fire_top();
    ++n;
  }
  now_ = t;
  return n;
}

}  // namespace vdm::sim
