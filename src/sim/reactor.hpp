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
/// A timer is a one-shot (schedule_at, schedule_in) or periodic
/// (schedule_every: the chunk clock, every member's refinement tick,
/// transport's PeriodicTimer). A timer whose delay changes from one firing
/// to the next, such as a retry backoff, is a chain of one-shots.
///
/// Callbacks ride the small-buffer InlineFn, so the steady-state
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

  /// Schedules `fn` every `period` seconds, first one period from the
  /// backend's timer clock, until cancelled. Each tick re-arms one period
  /// after its own deadline and takes a fresh sequence number after
  /// whatever it scheduled: the (t, seq) sequence of a one-shot that
  /// schedules its successor at its own deadline + `period` as its last act,
  /// and the id stays valid for cancel() across every re-arm. The
  /// period must be finite, > 0 and large enough to move the clock: an arm
  /// or re-arm whose deadline rounds back onto its start throws.
  virtual EventId schedule_every(Time period, InlineFn fn) = 0;

  /// Cancels a pending one-shot or periodic timer; a no-op if it already
  /// fired (one-shot) or was cancelled. Cancelling the currently firing
  /// timer, from its own callback, stops a periodic one from re-arming but
  /// does not interrupt the running callback.
  virtual void cancel(EventId id) = 0;

  /// Runs every event due by time `t` (and, on the UDP backend, socket I/O
  /// until then), then advances the clock to `t`. Returns events run.
  virtual std::size_t run_until(Time t) = 0;

  /// True while a timer callback runs, one-shot or periodic. Code that
  /// keeps virtual timers, such as the failure detector's unscheduled
  /// probes, places one due exactly now by it: inside a callback that probe
  /// has not fired yet, outside (between run_until calls) it has.
  virtual bool in_callback() const = 0;
};

}  // namespace vdm::sim
