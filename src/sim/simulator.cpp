#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/require.hpp"

namespace vdm::sim {

namespace {
/// Arity of the event heap. 4 keeps the tree shallow (fewer cache lines per
/// sift) while the min-of-children scan stays register-resident.
constexpr std::size_t kHeapArity = 4;
/// Entries a group's ring starts with; it doubles when full.
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
  s.generation = (s.generation + 1) & kGenerationMask;
  s.heap_pos = kNone;
  s.next = free_head_;
  free_head_ = slot;
}

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!before(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
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
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_push(std::uint32_t slot, Time t, std::uint64_t seq) {
  heap_.push_back({t, seq, slot});
  sift_up(heap_.size() - 1);
}

void Simulator::heap_remove(std::size_t pos) {
  slots_[heap_[pos].slot].heap_pos = kNone;
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    heap_.pop_back();
    // The displaced element may belong above or below its new position.
    sift_up(pos);
    sift_down(slots_[heap_[pos].slot].heap_pos);
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
  if ((id & kMemberBit) != 0) {
    cancel_member(id);
    return;
  }
  const std::uint32_t slot = index_of(id);
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
  heap_remove(s.heap_pos);
  release_slot(slot);
}

bool Simulator::reschedule_current_in(Time delay) {
  VDM_REQUIRE_MSG(delay >= 0.0, "negative delay");
  if (firing_slot_ == kNone || firing_cancelled_) return false;
  firing_rearm_ = true;
  firing_rearm_delay_ = delay;
  return true;
}

// ----------------------------------------------------------- periodic groups

GroupId Simulator::add_periodic_group(Time period, TickFn tick) {
  VDM_REQUIRE_MSG(std::isfinite(period) && period > 0.0,
                  "a periodic group's period must be finite and > 0");
  VDM_REQUIRE(tick != nullptr);
  if (num_groups_ == groups_.size()) groups_.push_back(std::make_unique<Group>());
  Group& g = *groups_[num_groups_];
  g.period = period;
  g.tick = std::move(tick);
  g.head = 0;
  g.tail = 0;
  g.slot = acquire_slot();
  slots_[g.slot].group = num_groups_;
  return num_groups_++;
}

std::uint32_t Simulator::acquire_member(GroupId group) {
  std::uint32_t member = free_member_;
  if (member != kNone) {
    free_member_ = members_[member].pos;
  } else {
    member = static_cast<std::uint32_t>(members_.size());
    members_.emplace_back();
  }
  members_[member].group = group;
  return member;
}

void Simulator::release_member(std::uint32_t member) {
  Member& m = members_[member];
  m.generation = (m.generation + 1) & kGenerationMask;
  m.pos = free_member_;
  free_member_ = member;
}

void Simulator::grow_ring(Group& g) {
  // Entries keep their free-running indices: index i moves to i & new mask,
  // so members' recorded positions stay valid.
  const std::size_t size = std::max(kMinRing, 2 * g.ring.size());
  std::vector<RingEntry> ring(size);
  const auto mask = static_cast<std::uint32_t>(size - 1);
  for (std::uint32_t i = g.head; i != g.tail; ++i) ring[i & mask] = g.ring[i & g.mask];
  g.ring.swap(ring);
  g.mask = mask;
}

void Simulator::push_member(Group& g, std::uint32_t member, std::uint32_t payload,
                            Time t) {
  if (g.tail - g.head == g.ring.size()) grow_ring(g);
  // Field by field from registers: a ring entry built on the stack and
  // block-copied in stalls store forwarding behind the tick's cache misses.
  RingEntry& e = g.ring[g.tail & g.mask];
  e.t = t;
  e.seq = next_seq_++;
  e.member = member;
  e.payload = payload;
  members_[member].pos = g.tail++;
  ++ring_members_;
}

void Simulator::pop_front(Group& g) {
  ++g.head;
  while (g.head != g.tail && g.ring[g.head & g.mask].member == kNone) ++g.head;
}

void Simulator::enter_heap(Group& g) {
  const RingEntry& front = g.front();
  heap_push(g.slot, front.t, front.seq);
  ++heap_groups_;
}

EventId Simulator::arm_periodic(GroupId group, std::uint32_t payload) {
  VDM_REQUIRE(group < num_groups_);
  Group& g = *groups_[group];
  const bool was_empty = g.empty();
  const std::uint32_t member = acquire_member(group);
  // now_ never decreases, so one period from now is at or after every
  // member already queued, and the fresh seq breaks the tie: the append
  // keeps the ring in (t, seq) order.
  push_member(g, member, payload, now_ + g.period);
  if (was_empty && group != draining_) enter_heap(g);
  return kMemberBit | make_id(member, members_[member].generation);
}

void Simulator::cancel_member(EventId id) {
  const std::uint32_t member = index_of(id);
  if (member >= members_.size()) return;
  const Member m = members_[member];
  if (m.generation != generation_of(id)) return;  // already cancelled
  if (member == firing_member_) {
    firing_cancelled_ = true;  // suppresses the re-arm, as for a plain event
    return;
  }
  Group& g = *groups_[m.group];
  g.ring[m.pos & g.mask].member = kNone;  // tombstone
  --ring_members_;
  release_member(member);
  if (m.pos != g.head) return;
  pop_front(g);
  if (m.group == draining_) return;  // off the heap until the drain ends
  Slot& s = slots_[g.slot];
  if (g.empty()) {
    heap_remove(s.heap_pos);
    --heap_groups_;
    return;
  }
  // The new head is later in (t, seq) than the old one: the key only grows.
  HeapEntry& key = heap_[s.heap_pos];
  key.t = g.front().t;
  key.seq = g.front().seq;
  sift_down(s.heap_pos);
}

Time Simulator::next_event_time() const {
  Time t = heap_.empty() ? std::numeric_limits<Time>::infinity()
                         : heap_[0].t;
  if (draining_ != kNone && !groups_[draining_]->empty()) {
    t = std::min(t, groups_[draining_]->front().t);
  }
  return t;
}

// ------------------------------------------------------------------- firing

void Simulator::fire_top() {
  const std::uint32_t slot = heap_[0].slot;
  now_ = heap_[0].t;
  heap_remove(0);
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
    firing_slot_ = kNone;
    firing_cancelled_ = false;
    firing_rearm_ = false;
    throw;
  }

  Slot& s = slots_[slot];  // re-fetch: the slab may have reallocated
  if (firing_rearm_ && !firing_cancelled_) {
    // Re-arm in place (single periodic timers): same slot, same generation
    // — the caller's EventId stays valid — with a fresh sequence number,
    // exactly as if the callback had scheduled a new event at this point.
    s.fn = std::move(fn);
    // now_ is still this event's deadline.
    heap_push(slot, now_ + firing_rearm_delay_, next_seq_++);
  } else {
    release_slot(slot);
  }
  firing_slot_ = kNone;
  firing_cancelled_ = false;
  firing_rearm_ = false;
}

std::size_t Simulator::drain_group(Time bound, std::size_t budget) {
  const GroupId group = slots_[heap_[0].slot].group;
  Group& g = *groups_[group];  // boxed: stays put if a tick adds a group
  heap_remove(0);
  --heap_groups_;
  draining_ = group;
  std::size_t fired = 0;
  for (;;) {
    const RingEntry& front = g.front();
    const Time t = front.t;
    const std::uint32_t member = front.member;
    const std::uint32_t payload = front.payload;
    pop_front(g);
    --ring_members_;
    now_ = t;
    ++executed_;
    ++group_fires_;
    ++fired;
    firing_member_ = member;
    firing_cancelled_ = false;
    try {
      g.tick(payload);
    } catch (...) {
      // The member is spent, as a throwing plain event is; the rest of the
      // group goes back on the heap before the exception propagates.
      release_member(member);
      firing_member_ = kNone;
      firing_cancelled_ = false;
      end_drain(g);
      throw;
    }
    // The re-arm takes its seq after everything the tick scheduled.
    if (firing_cancelled_) {
      release_member(member);
    } else {
      push_member(g, member, payload, t + g.period);
    }
    firing_member_ = kNone;
    firing_cancelled_ = false;
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

void Simulator::end_drain(Group& g) {
  draining_ = kNone;
  if (!g.empty()) enter_heap(g);
}

std::size_t Simulator::fire_next(Time bound, std::size_t budget) {
  if (slots_[heap_[0].slot].group != kNone) return drain_group(bound, budget);
  fire_top();
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
  slots_.clear();
  heap_.clear();
  free_head_ = kNone;
  heap_groups_ = 0;
  for (std::uint32_t i = 0; i < num_groups_; ++i) {
    groups_[i]->tick = nullptr;  // drop captures of the finished run
  }
  num_groups_ = 0;
  members_.clear();
  free_member_ = kNone;
  ring_members_ = 0;
  now_ = kTimeZero;
  next_seq_ = 1;
  executed_ = 0;
  group_fires_ = 0;
  firing_slot_ = kNone;
  firing_member_ = kNone;
  draining_ = kNone;
  firing_cancelled_ = false;
  firing_rearm_ = false;
  firing_rearm_delay_ = kTimeZero;
}

std::size_t Simulator::capacity_bytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Slot) +
                      heap_.capacity() * sizeof(HeapEntry) +
                      members_.capacity() * sizeof(Member) +
                      groups_.capacity() * sizeof(std::unique_ptr<Group>);
  for (const std::unique_ptr<Group>& g : groups_) {
    bytes += sizeof(Group) + g->ring.capacity() * sizeof(RingEntry);
  }
  return bytes;
}

}  // namespace vdm::sim
