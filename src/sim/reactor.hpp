#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace vdm::sim {

/// Identifier of a scheduled event, usable to cancel it before it fires.
/// Encodes (generation, slab slot); a stale id — one whose event already
/// fired or was cancelled — fails the generation check and is ignored.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

/// Identifier of a periodic timer group (see Reactor::add_periodic_group).
using GroupId = std::uint32_t;

/// The clock seam (DESIGN.md §14): the one way code reaches time and
/// timers. The protocol core — Session, TreeWalk, EventExecutor,
/// MainController — holds a Reactor&, so the same code runs on two
/// backends:
///
///  * sim::Simulator, the discrete-event engine. A sim-hosted Session calls
///    the simulator itself, so slot order, sequence numbers and firing order
///    are the engine's own (the hexfloat goldens in tests/test_walk.cpp pin
///    this).
///  * transport::UdpReactor, the same slab timer engine paced by the
///    monotonic wall clock with UDP sockets multiplexed into the waits — the
///    backend `vdmd` runs on.
///
/// Timers come in two shapes, one idiom each:
///
///  * a single timer (the chunk clock, a retry backoff, transport's
///    PeriodicTimer) is a plain event that re-arms itself in place with
///    reschedule_current_in;
///  * a population of timers sharing one period and one callback (a
///    refinement tick per member) is a periodic group: add_periodic_group
///    once, then arm_periodic per member with a payload naming it.
///
/// Callbacks ride the small-buffer InlineFn / TickFn, so the steady-state
/// zero-allocation guarantee holds on both backends.
class Reactor {
 public:
  virtual ~Reactor() = default;

  /// Seconds since an epoch the backend defines (simulation start, reactor
  /// construction). Monotonically non-decreasing.
  virtual Time now() const = 0;

  /// Schedules `fn` at absolute time `t`. The DES requires t >= now();
  /// the wall-clock backend clamps, since setup work may overrun a scenario
  /// timestamp. Returns a cancellable id.
  virtual EventId schedule_at(Time t, InlineFn fn) = 0;

  /// Schedules `fn` after `delay` (>= 0) seconds.
  virtual EventId schedule_in(Time delay, InlineFn fn) = 0;

  /// Cancels a pending event or group member; a no-op if it already fired
  /// (one-shot) or was cancelled. Cancelling the currently-firing event or
  /// member suppresses its re-arm but does not interrupt the running
  /// callback.
  virtual void cancel(EventId id) = 0;

  /// From inside a plain event's callback only: re-arms the currently-firing
  /// event to run again `delay` seconds after its own deadline, reusing its
  /// slot, id and callable — no allocation, no id churn. Returns false (and
  /// does nothing) outside such a callback — a group member's tick included,
  /// since members re-arm by themselves — or when the firing event was
  /// cancelled mid-callback.
  virtual bool reschedule_current_in(Time delay) = 0;

  /// Registers a periodic timer group: every member armed on it ticks every
  /// `period` (finite, > 0) seconds by calling `tick` with the member's
  /// payload, and re-arms itself one period after each tick's deadline until
  /// cancelled. Groups live until the backend is reset (the DES) or
  /// destroyed, so register them once per session.
  virtual GroupId add_periodic_group(Time period, TickFn tick) = 0;

  /// Arms a new member of `group`, first due one period from the backend's
  /// timer clock. Returns its id, valid for cancel() across every re-arm.
  /// A member takes a fresh sequence number at arm and at each re-arm, after
  /// whatever its tick scheduled — exactly as a plain event re-armed with
  /// reschedule_current_in at the end of its callback.
  virtual EventId arm_periodic(GroupId group, std::uint32_t payload) = 0;

  /// Runs every event due by time `t` (and, on the UDP backend, socket I/O
  /// until then), then advances the clock to `t`. Returns events run.
  virtual std::size_t run_until(Time t) = 0;

  /// True while a timer callback runs: a plain event or a group member's
  /// tick. Code that keeps virtual timers, such as the failure detector's
  /// unscheduled probes, places one due exactly now by it: inside a callback
  /// that probe has not fired yet, outside (between run_until calls) it has.
  virtual bool in_callback() const = 0;
};

}  // namespace vdm::sim
