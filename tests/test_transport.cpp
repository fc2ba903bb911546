// Transport tests (DESIGN.md §14): PeriodicTimer's equivalence with a
// chain of one-shots, the UdpReactor over real loopback sockets, and
// the RetrySender's retransmission schedule (driven deterministically on the
// DES backend, the simulator itself).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"
#include "util/require.hpp"
#include "wire/wire.hpp"

namespace vdm {
namespace {

using transport::PeerAddr;

// -------------------------------------------------------------- PeriodicTimer

TEST(PeriodicTimer, MatchesInPlaceRearmFireTimes) {
  // The exact reference: a one-shot that schedules its successor as its
  // last act. Every tick also schedules a one-shot due with the next tick;
  // that one took the earlier seq, so it must fire first on both sides.
  using Log = std::vector<std::pair<sim::Time, int>>;
  struct Chain {
    sim::Simulator* s;
    Log* log;
    void operator()() const {
      log->emplace_back(s->now(), 0);
      s->schedule_in(0.25, [s = s, log = log] { log->emplace_back(s->now(), 1); });
      s->schedule_in(0.25, Chain{*this});
    }
  };
  sim::Simulator sim_a;
  Log log_a;
  sim_a.schedule_in(0.25, Chain{&sim_a, &log_a});

  sim::Simulator sim_b;
  Log log_b;
  transport::PeriodicTimer timer(sim_b, 0.25, [&] {
    log_b.emplace_back(sim_b.now(), 0);
    sim_b.schedule_in(0.25, [&] { log_b.emplace_back(sim_b.now(), 1); });
  });

  sim_a.run_until(2.0);
  sim_b.run_until(2.0);
  ASSERT_EQ(log_a.size(), 15u);  // 8 ticks, 7 one-shots due by 2.0
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(sim_a.executed(), sim_b.executed());
  // After the first tick, a one-shot, the timer fires from its ring.
  EXPECT_EQ(sim_b.periodic_fires(), 7u);
}

TEST(PeriodicTimer, FiresRepeatedly) {
  sim::Simulator sim;
  int fires = 0;
  transport::PeriodicTimer timer(sim, 1.0, [&] { ++fires; });
  sim.run_until(5.5);
  EXPECT_EQ(fires, 5);
  EXPECT_TRUE(timer.running());
}

TEST(PeriodicTimer, DestructionCancelsPending) {
  sim::Simulator sim;
  int fires = 0;
  {
    transport::PeriodicTimer timer(sim, 1.0, [&] { ++fires; });
    sim.run_until(2.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTimer, StopHaltsFiring) {
  sim::Simulator sim;
  int fires = 0;
  transport::PeriodicTimer* self = nullptr;
  transport::PeriodicTimer timer(sim, 1.0, [&] {
    ++fires;
    if (fires == 3) self->stop();
  });
  self = &timer;
  sim.run_until(10.0);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTimer, RejectsNonPositiveInterval) {
  sim::Simulator sim;
  EXPECT_THROW(transport::PeriodicTimer(sim, 0.0, [] {}),
               util::InvariantError);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTimer, StopFromInsideTickSuppressesRearm) {
  sim::Simulator sim;
  int ticks = 0;
  transport::PeriodicTimer* self = nullptr;
  transport::PeriodicTimer timer(sim, 0.1, [&] {
    if (++ticks == 3) self->stop();
  });
  self = &timer;
  sim.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StopBeforeFirstTickFiresNothing) {
  sim::Simulator sim;
  int ticks = 0;
  transport::PeriodicTimer timer(sim, 0.5, [&] { ++ticks; });
  timer.stop();
  sim.run_until(5.0);
  EXPECT_EQ(ticks, 0);
}

// ----------------------------------------------------------------- BufferPool

TEST(BufferPool, RecyclesSlots) {
  transport::BufferPool pool;
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  EXPECT_NE(a.slot, b.slot);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(a.bytes.size(), transport::BufferPool::kBufferBytes);

  pool.release(a.slot);
  EXPECT_EQ(pool.in_use(), 1u);
  const auto c = pool.acquire();
  EXPECT_EQ(c.slot, a.slot);  // LIFO reuse, no new slab
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(b.slot);
  pool.release(c.slot);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(BufferPool, DoubleCapacityGrowsButKeepsOldSlabs) {
  transport::BufferPool pool;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(pool.acquire().slot);
  EXPECT_EQ(pool.capacity(), 8u);
  for (const std::uint32_t s : slots) pool.release(s);
  for (int i = 0; i < 8; ++i) pool.acquire();
  EXPECT_EQ(pool.capacity(), 8u);  // steady state: zero new slabs
}

// ------------------------------------------------------------------ PeerAddr

TEST(PeerAddr, ParseAndFormatRoundTrip) {
  const PeerAddr a = transport::parse_peer("127.0.0.1:9000");
  EXPECT_EQ(a.ip, 0x7f000001u);
  EXPECT_EQ(a.port, 9000);
  EXPECT_EQ(transport::format_peer(a), "127.0.0.1:9000");

  // Bare port binds loopback.
  const PeerAddr b = transport::parse_peer("8080");
  EXPECT_EQ(b.ip, 0x7f000001u);
  EXPECT_EQ(b.port, 8080);

  EXPECT_THROW(transport::parse_peer("not-an-ip:1"), util::InvariantError);
  EXPECT_THROW(transport::parse_peer("127.0.0.1:99999"), util::InvariantError);
  EXPECT_THROW(transport::parse_peer("127.0.0.1:pony"), util::InvariantError);
}

// ----------------------------------------------------------------- UdpReactor

TEST(UdpReactor, LoopbackPingPong) {
  transport::UdpReactor reactor;
  transport::UdpSocket a(PeerAddr{0x7f000001, 0});
  transport::UdpSocket b(PeerAddr{0x7f000001, 0});
  ASSERT_NE(a.local_addr().port, 0);
  ASSERT_NE(b.local_addr().port, 0);

  std::vector<std::uint32_t> b_saw;
  bool a_saw_pong = false;
  reactor.add_socket(a, [&](const PeerAddr&, std::span<const std::byte> f) {
    wire::Message m;
    ASSERT_TRUE(wire::decode(f, m).ok());
    ASSERT_TRUE(std::holds_alternative<wire::Pong>(m));
    a_saw_pong = true;
    reactor.stop();
  });
  reactor.add_socket(b, [&](const PeerAddr& from, std::span<const std::byte> f) {
    wire::Message m;
    ASSERT_TRUE(wire::decode(f, m).ok());
    const auto& ping = std::get<wire::Ping>(m);
    b_saw.push_back(ping.token);
    std::array<std::byte, wire::kMaxFrame> buf;
    const std::size_t n = wire::encode(wire::Pong{.token = ping.token}, buf);
    b.send(from, std::span<const std::byte>(buf.data(), n));
  });

  std::array<std::byte, wire::kMaxFrame> buf;
  const std::size_t n = wire::encode(wire::Ping{.token = 7}, buf);
  ASSERT_TRUE(a.send(b.local_addr(), std::span<const std::byte>(buf.data(), n)));
  reactor.run_until(5.0);  // stop() fires on the pong, long before 5s
  EXPECT_TRUE(a_saw_pong);
  EXPECT_EQ(b_saw, (std::vector<std::uint32_t>{7}));
}

TEST(UdpReactor, TimersFireInOrderAndNowNeverRewinds) {
  transport::UdpReactor reactor;
  std::vector<int> order;
  std::vector<sim::Time> at;
  reactor.schedule_in(0.02, [&] { order.push_back(2); at.push_back(reactor.now()); });
  reactor.schedule_in(0.01, [&] { order.push_back(1); at.push_back(reactor.now()); });
  const sim::EventId dead = reactor.schedule_in(0.015, [&] { order.push_back(9); });
  reactor.cancel(dead);
  EXPECT_EQ(reactor.run_until(0.05), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(at.size(), 2u);
  EXPECT_GE(at[0], 0.01);
  EXPECT_GE(at[1], 0.02);
  EXPECT_LE(at[0], at[1]);
  EXPECT_GE(reactor.now(), 0.05);
}

TEST(UdpReactor, PeriodicGroupMembersTickUntilCancelled) {
  // Per-member periodic timers run on the wall clock too: two 10 ms timers
  // share one ring and tick in arm order, and a timer cancelled from its own
  // tick (a verdict) stops while the other keeps ticking.
  transport::UdpReactor reactor;
  std::vector<std::uint32_t> ticks;
  sim::EventId first = sim::kInvalidEvent;
  first = reactor.schedule_every(0.01, [&] {
    ticks.push_back(1);
    if (ticks.size() >= 3) reactor.cancel(first);
  });
  reactor.schedule_every(0.01, [&] { ticks.push_back(2); });
  reactor.run_until(0.055);
  ASSERT_GE(ticks.size(), 5u);
  EXPECT_EQ(std::vector<std::uint32_t>(ticks.begin(), ticks.begin() + 5),
            (std::vector<std::uint32_t>{1, 2, 1, 2, 2}));
  EXPECT_EQ(std::count(ticks.begin(), ticks.end(), 1u), 2);
}

TEST(UdpReactor, ScheduleAtInThePastClampsInsteadOfThrowing) {
  transport::UdpReactor reactor;
  // Burn a little wall clock so "now" is past the target.
  reactor.run_until(0.01);
  int fired = 0;
  reactor.schedule_at(0.0, [&] { ++fired; });
  reactor.run_until(0.02);
  EXPECT_EQ(fired, 1);
}

TEST(UdpReactor, PumpIoDeliversDatagramsButFiresNoTimers) {
  transport::UdpReactor reactor;
  transport::UdpSocket a(PeerAddr{0x7f000001, 0});
  transport::UdpSocket b(PeerAddr{0x7f000001, 0});
  int datagrams = 0;
  int timer_fired = 0;
  reactor.add_socket(b, [&](const PeerAddr&, std::span<const std::byte>) {
    ++datagrams;
  });
  reactor.add_socket(a, [](const PeerAddr&, std::span<const std::byte>) {});
  reactor.schedule_in(0.0, [&] { ++timer_fired; });

  std::array<std::byte, wire::kMaxFrame> buf;
  const std::size_t n = wire::encode(wire::Ping{.token = 1}, buf);
  ASSERT_TRUE(a.send(b.local_addr(), std::span<const std::byte>(buf.data(), n)));
  EXPECT_GE(reactor.pump_io(1.0), 1u);
  EXPECT_EQ(datagrams, 1);
  EXPECT_EQ(timer_fired, 0);  // the due timer waits for run_until
  reactor.run_until(reactor.now());
  EXPECT_EQ(timer_fired, 1);
}

// ---------------------------------------------------------------- RetrySender

/// In-memory transport: records every frame so the retransmission schedule
/// can be asserted deterministically (driven on the DES backend).
class RecordingTransport final : public transport::Transport {
 public:
  bool send(const PeerAddr& to, std::span<const std::byte> frame) override {
    sends.push_back({to, std::vector<std::byte>(frame.begin(), frame.end())});
    return true;
  }
  PeerAddr local_addr() const override { return PeerAddr{0x7f000001, 1}; }

  struct Sent {
    PeerAddr to;
    std::vector<std::byte> frame;
  };
  std::vector<Sent> sends;
};

TEST(RetrySender, RetransmitsOnScheduleUntilCompleted) {
  sim::Simulator sim;
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetryPolicy policy;  // 0.25s, x2, cap 4s, 8 retries
  transport::RetrySender sender(sim, transport, pool, policy);

  const std::uint32_t token = sender.next_token();
  const PeerAddr to{0x7f000001, 4242};
  sender.send_tracked(token, to, wire::Ack{.token = token});
  EXPECT_EQ(transport.sends.size(), 1u);
  EXPECT_EQ(sender.in_flight(), 1u);

  // First retransmit at 0.25, second at 0.25 + 0.5.
  sim.run_until(0.8);
  EXPECT_EQ(transport.sends.size(), 3u);
  EXPECT_EQ(sender.retransmissions(), 2u);

  // Every copy is byte-identical, to the same peer.
  for (const auto& s : transport.sends) {
    EXPECT_EQ(s.to, to);
    EXPECT_EQ(s.frame, transport.sends[0].frame);
  }

  EXPECT_TRUE(sender.complete(token));
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);  // buffer back in the pool
  sim.run_until(60.0);
  EXPECT_EQ(transport.sends.size(), 3u);  // silence after completion
  EXPECT_FALSE(sender.complete(token));   // late duplicate reply
}

TEST(RetrySender, GivesUpAfterRetryBudget) {
  sim::Simulator sim;
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetryPolicy policy;
  policy.max_retries = 3;
  transport::RetrySender sender(sim, transport, pool, policy);

  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 4242},
                      wire::Shutdown{.token = token});
  sim.run_until(120.0);
  // Initial send + max_retries retransmissions, then the give-up.
  EXPECT_EQ(transport.sends.size(), 4u);
  EXPECT_EQ(sender.retransmissions(), 3u);
  EXPECT_EQ(sender.give_ups(), 1u);
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(RetrySender, BackoffCapsAtTimeoutMax) {
  sim::Simulator sim;
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetryPolicy policy;  // 0.25 -> 0.5 -> 1 -> 2 -> 4 -> 4 -> ...
  transport::RetrySender sender(sim, transport, pool, policy);

  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 4242},
                      wire::Ack{.token = token});
  // Cumulative schedule: 0.25, 0.75, 1.75, 3.75, 7.75, 11.75, 15.75, 19.75.
  sim.run_until(12.0);
  EXPECT_EQ(sender.retransmissions(), 6u);
  sim.run_until(16.0);
  EXPECT_EQ(sender.retransmissions(), 7u);
  sender.complete(token);
}

TEST(RetrySender, OneTimerPerRequestForLife) {
  // Each retransmission is a one-shot that schedules the next; a one-shot
  // is spent before its callback runs, so the next one reuses its slot: the
  // simulator never holds a second slot for it, however many retries run.
  sim::Simulator sim;
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetrySender sender(sim, transport, pool, transport::RetryPolicy{});
  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token});
  const std::size_t slab_bytes = sim.capacity_bytes();
  sim.run_until(12.0);
  EXPECT_EQ(sender.retransmissions(), 6u);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.capacity_bytes(), slab_bytes);
  EXPECT_TRUE(sender.complete(token));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(RetrySender, DuplicateTokenTrips) {
  sim::Simulator sim;
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetrySender sender(sim, transport, pool,
                                transport::RetryPolicy{});
  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token});
  EXPECT_THROW(
      sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token}),
      util::InvariantError);
  sender.complete(token);
}

TEST(RetrySender, CancelAllReleasesEveryBuffer) {
  sim::Simulator sim;
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetrySender sender(sim, transport, pool,
                                transport::RetryPolicy{});
  for (int i = 0; i < 5; ++i) {
    const std::uint32_t token = sender.next_token();
    sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token});
  }
  EXPECT_EQ(sender.in_flight(), 5u);
  EXPECT_EQ(pool.in_use(), 5u);
  sender.cancel_all();
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  sim.run_until(60.0);
  EXPECT_EQ(transport.sends.size(), 5u);  // no retransmissions after cancel
}

}  // namespace
}  // namespace vdm
