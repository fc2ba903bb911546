#pragma once

#include <cstdint>
#include <span>

#include "sim/reactor.hpp"

namespace vdm::transport {

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

/// RAII periodic timer over any sim::Reactor: runs `fn` every `interval`
/// seconds (> 0) starting at now() + interval, until destroyed or
/// stop()ped; stop() from inside a tick suppresses the re-arm. For timers
/// bound to a scope, such as vdmd's chunk and heartbeat clocks; Session
/// keeps its timers as plain EventIds instead. The first tick is a one-shot
/// from now() that arms a Reactor::schedule_every timer at its own
/// deadline, so each later tick is due one interval after the previous
/// deadline: on the DES, at exactly the (t, seq) of a chain of one-shots.
class PeriodicTimer {
 public:
  PeriodicTimer(sim::Reactor& reactor, sim::Time interval, sim::InlineFn fn);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  sim::Reactor& reactor_;
  sim::Time interval_;
  sim::InlineFn fn_;
  sim::EventId pending_ = sim::kInvalidEvent;
  bool running_ = true;
};

}  // namespace vdm::transport
