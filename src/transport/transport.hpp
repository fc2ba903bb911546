#pragma once

#include <cstdint>
#include <span>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace vdm::transport {

/// The transport/clock seam (DESIGN.md §14). The protocol core — Session,
/// TreeWalk, Membership, MainController — talks to time and timers only
/// through this interface, so the same code runs on two backends:
///
///  * SimReactor (sim_reactor.hpp): 1:1 delegation to the discrete-event
///    sim::Simulator. Identical slot acquisition, identical sequence
///    numbers, identical firing order — a sim-hosted Session is bit-for-bit
///    the pre-seam Session (the hexfloat goldens in tests/test_walk.cpp
///    pin this).
///  * UdpReactor (udp.hpp): the same slab timer engine paced by the
///    monotonic wall clock, with UDP sockets multiplexed into the waits —
///    the backend `vdmd` runs on.

using Time = sim::Time;

/// Cancellable timer handle. Shares sim::EventId's representation (0 is
/// never valid), so code holding raw ids — the session's refine-event slab —
/// works over either backend unchanged.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Timer callbacks ride the simulator's small-buffer callable, so the
/// steady-state zero-allocation guarantee carries over to both backends.
using TimerFn = sim::InlineFn;

/// Monotonic time source. Seconds since an epoch the backend defines
/// (simulation start / reactor construction).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Time now() const = 0;
};

/// Clock plus a cancellable timer service plus a bounded event pump — the
/// exact surface Session needs from sim::Simulator, abstracted.
class Reactor : public Clock {
 public:
  /// Schedules `fn` at absolute time `t`. Times earlier than now() fire at
  /// the next pump (the DES backend requires t >= now and callers honour
  /// that; the wall-clock backend clamps, since setup work may overrun a
  /// scenario timestamp).
  virtual TimerId schedule_at(Time t, TimerFn fn) = 0;
  virtual TimerId schedule_in(Time delay, TimerFn fn) = 0;

  /// Cancels a pending timer; no-op when already fired or cancelled.
  virtual void cancel(TimerId id) = 0;

  /// From inside a timer callback: re-arm the firing timer `delay` from now,
  /// keeping its id and callable (see sim::Simulator::reschedule_current_in).
  virtual bool reschedule_current_in(Time delay) = 0;

  /// Runs timers (and, on the UDP backend, socket I/O) until time `t`.
  /// Returns the number of timers fired.
  virtual std::size_t run_until(Time t) = 0;
};

/// Where a datagram peer lives. IPv4 + port, both host byte order; the wire
/// codec ships these fields inside SetParent/Adopt/ProbeRequest messages so
/// agents can talk to peers they have never met.
struct PeerAddr {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  friend bool operator==(const PeerAddr&, const PeerAddr&) = default;
};

/// Unreliable datagram transport. The UDP backend is a real socket; tests
/// fake it with an in-memory loopback.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Best-effort send of one frame. False on local failure (peer loss is
  /// invisible, as UDP has it).
  virtual bool send(const PeerAddr& to, std::span<const std::byte> frame) = 0;
  virtual PeerAddr local_addr() const = 0;
};

/// Retransmission policy of request/response exchanges over the lossy
/// transport: initial timeout, exponential backoff with a cap, bounded
/// retries. Field-for-field the PR 3 lossy-control-plane policy
/// (overlay::FaultParams retry knobs) — the daemon retries for real with
/// the same schedule the simulator charges for.
struct RetryPolicy {
  Time timeout = 0.25;
  double backoff_factor = 2.0;
  Time timeout_max = 4.0;
  int max_retries = 8;

  Time next_timeout(Time current) const {
    const Time t = current * backoff_factor;
    return t < timeout_max ? t : timeout_max;
  }
};

/// RAII periodic timer over any Reactor: runs `fn` every `interval` seconds
/// (> 0) starting at now + interval, until destroyed or stop()ped. One slot
/// for life (each tick re-arms in place), and stop() from inside the tick
/// suppresses the re-arm. For timers bound to a scope, such as vdmd's chunk
/// and heartbeat clocks; Session keeps per-member timers as plain TimerIds
/// in slabs instead, re-armed with the same reschedule_current_in idiom.
class PeriodicTimer {
 public:
  PeriodicTimer(Reactor& reactor, Time interval, TimerFn fn);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  Reactor& reactor_;
  Time interval_;
  TimerFn fn_;
  TimerId pending_ = kInvalidTimer;
  bool running_ = true;
};

}  // namespace vdm::transport
