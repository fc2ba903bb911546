#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/retry.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "util/function_ref.hpp"
#include "wire/wire.hpp"

namespace vdm::transport {

/// Slab of fixed-size, recycled message buffers — the msgb discipline of the
/// osmocom virt_um layer: buffers are acquired from a free list, handed
/// around by slot index, and released back, so a steady-state daemon sends
/// and retries without touching the heap.
class BufferPool {
 public:
  static constexpr std::size_t kBufferBytes = 2048;

  struct Buffer {
    std::uint32_t slot = 0;
    std::span<std::byte> bytes;
  };

  Buffer acquire();
  void release(std::uint32_t slot);
  std::span<std::byte> bytes(std::uint32_t slot);
  std::size_t in_use() const { return in_use_; }
  std::size_t capacity() const { return slabs_.size(); }

 private:
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<std::uint32_t> free_;
  std::size_t in_use_ = 0;
};

/// "ip:port" or "port" (binds 127.0.0.1). Throws util::InvariantError on
/// malformed input.
PeerAddr parse_peer(const std::string& text);
std::string format_peer(const PeerAddr& addr);

/// One non-blocking IPv4 UDP socket. Port 0 binds an ephemeral port;
/// local_addr() reports what the kernel picked.
class UdpSocket final : public Transport {
 public:
  explicit UdpSocket(const PeerAddr& bind_addr);
  ~UdpSocket() override;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  bool send(const PeerAddr& to, std::span<const std::byte> frame) override;
  PeerAddr local_addr() const override { return local_; }
  int fd() const { return fd_; }

  using RecvHandler =
      std::function<void(const PeerAddr& from, std::span<const std::byte>)>;

  /// Reads every queued datagram into `scratch` and hands each to `handler`.
  /// Returns datagrams delivered.
  std::size_t drain(std::span<std::byte> scratch, const RecvHandler& handler);

 private:
  int fd_ = -1;
  PeerAddr local_;
};

/// The wall-clock backend of the clock seam (sim::Reactor): the same slab
/// timer engine the DES uses (a private sim::Simulator), paced by the
/// monotonic clock, with UDP sockets poll(2)-multiplexed into the waits.
/// Timer semantics — ids, cancel, one-shot and periodic timers — are
/// therefore identical to the simulation backend by construction; only the
/// pacing differs.
class UdpReactor final : public sim::Reactor {
 public:
  UdpReactor();

  sim::Time now() const override;
  sim::EventId schedule_at(sim::Time t, sim::InlineFn fn) override;
  sim::EventId schedule_in(sim::Time delay, sim::InlineFn fn) override;
  /// Due one period from the timer clock (the deadline being dispatched, or
  /// the wall time of the last timer pump), not from now(): a wall-clock
  /// deadline could fall after a re-arm appended later (deadline + period
  /// on the timer clock) and break its ring's (t, seq) order. After an
  /// I/O-only wait the timer clock lags wall time, so a timer armed there
  /// would fire the ticks that fall behind wall time in one burst; arm from
  /// inside a callback, as transport::PeriodicTimer's first tick does.
  sim::EventId schedule_every(sim::Time period, sim::InlineFn fn) override {
    return timers_.schedule_every(period, std::move(fn));
  }
  void cancel(sim::EventId id) override { timers_.cancel(id); }

  /// Runs timers and socket I/O until wall time `t` (seconds since
  /// construction) or stop(). Returns timers fired.
  std::size_t run_until(sim::Time t) override;
  bool in_callback() const override { return timers_.in_callback(); }

  /// Breaks out of run_until at the next pump.
  void stop() { stopped_ = true; }

  /// Registers a socket; every datagram that arrives while the reactor runs
  /// (or pumps) is decoded-agnostically handed to `handler`.
  void add_socket(UdpSocket& socket, UdpSocket::RecvHandler handler);

  /// Services socket I/O only — no timers fire — waiting at most `max_wait`
  /// for the first datagram. Returns datagrams delivered. This is the
  /// re-entrancy-safe pump blocking request/response transactions use from
  /// inside a timer callback (a nested timer dispatch could re-enter the
  /// protocol core; a nested I/O dispatch cannot).
  std::size_t pump_io(sim::Time max_wait);

  /// One blocking request/reply exchange over pump_io, so it too may run
  /// inside a timer callback: calls `send`, then services socket I/O until
  /// `answered()` or the attempt's wait ends, and retries. The first wait
  /// is `policy.timeout`, each later one policy.next_timeout of the one
  /// before, for at most 1 + policy.max_retries attempts; no wait runs past
  /// now() == `deadline`, and no attempt starts there. Returns the answered
  /// attempt's round trip (from its send to the pump that delivered the
  /// answer), or nullopt when the exchange gave up.
  std::optional<sim::Time> exchange(const sim::RetryPolicy& policy,
                                    sim::Time deadline,
                                    util::FunctionRef<void()> send,
                                    util::FunctionRef<bool()> answered);

  BufferPool& buffers() { return buffers_; }

 private:
  struct Entry {
    UdpSocket* socket;
    UdpSocket::RecvHandler handler;
  };
  sim::Time wall() const;
  /// poll + drain all sockets once, waiting at most `max_wait`.
  std::size_t poll_once(sim::Time max_wait);

  std::chrono::steady_clock::time_point epoch_;
  sim::Simulator timers_;
  std::vector<Entry> sockets_;
  BufferPool buffers_;
  bool stopped_ = false;
};

/// Reliable-with-retries request sender over an unreliable transport: each
/// tracked request keeps its encoded frame in a recycled pool buffer and
/// retransmits on a sim::RetryPolicy schedule until complete(token) or
/// retries exhaust (a WARN log, matching the simulator's reliable-with-
/// retries semantics where exhaustion is latency, not failure). Each retransmission
/// is a one-shot that schedules the next at its own deadline plus the next
/// backoff timeout.
class RetrySender {
 public:
  RetrySender(sim::Reactor& reactor, Transport& transport, BufferPool& buffers,
              sim::RetryPolicy policy);
  ~RetrySender();
  RetrySender(const RetrySender&) = delete;
  RetrySender& operator=(const RetrySender&) = delete;

  std::uint32_t next_token() { return ++last_token_; }

  /// Encodes and sends `m`, retrying until complete(token). `token` must be
  /// the token field already carried inside `m`.
  void send_tracked(std::uint32_t token, const PeerAddr& to,
                    const wire::Message& m);

  /// The reply for `token` arrived: stop retrying. False if unknown (late
  /// duplicate reply).
  bool complete(std::uint32_t token);

  void cancel_all();
  std::size_t in_flight() const { return pending_.size(); }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t give_ups() const { return give_ups_; }

 private:
  struct Pending {
    PeerAddr to;
    std::uint32_t slot = 0;
    std::uint16_t len = 0;
    int attempts = 0;
    sim::Time cur_timeout = 0.0;
    /// When the pending timer fires; the next retry counts from it, not
    /// from the wall time at which its callback runs.
    sim::Time deadline = 0.0;
    sim::EventId timer = sim::kInvalidEvent;
  };

  /// The retry timer of `token` fired: retransmit and schedule the next
  /// retry, or give up.
  void retransmit(std::uint32_t token);

  sim::Reactor& reactor_;
  Transport& transport_;
  BufferPool& buffers_;
  sim::RetryPolicy policy_;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::uint32_t last_token_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t give_ups_ = 0;
};

}  // namespace vdm::transport
