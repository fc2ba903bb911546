#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/log.hpp"
#include "util/require.hpp"

namespace vdm::transport {

// ---------------------------------------------------------------- BufferPool

BufferPool::Buffer BufferPool::acquire() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slabs_.size());
    slabs_.push_back(std::make_unique<std::byte[]>(kBufferBytes));
  }
  ++in_use_;
  return Buffer{slot, {slabs_[slot].get(), kBufferBytes}};
}

void BufferPool::release(std::uint32_t slot) {
  VDM_REQUIRE(slot < slabs_.size());
  VDM_REQUIRE(in_use_ > 0);
  free_.push_back(slot);
  --in_use_;
}

std::span<std::byte> BufferPool::bytes(std::uint32_t slot) {
  VDM_REQUIRE(slot < slabs_.size());
  return {slabs_[slot].get(), kBufferBytes};
}

// ------------------------------------------------------------------ PeerAddr

PeerAddr parse_peer(const std::string& text) {
  std::string ip_text = "127.0.0.1";
  std::string port_text = text;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos) {
    ip_text = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  in_addr parsed{};
  VDM_REQUIRE_MSG(inet_pton(AF_INET, ip_text.c_str(), &parsed) == 1,
                  "bad IPv4 address: " + ip_text);
  unsigned long port = 0;
  try {
    port = std::stoul(port_text);
  } catch (const std::exception&) {
    port = 65536;  // force the range check below to fail with context
  }
  VDM_REQUIRE_MSG(port <= 65535, "bad port: " + port_text);
  return PeerAddr{ntohl(parsed.s_addr), static_cast<std::uint16_t>(port)};
}

std::string format_peer(const PeerAddr& addr) {
  std::ostringstream os;
  os << ((addr.ip >> 24) & 0xff) << '.' << ((addr.ip >> 16) & 0xff) << '.'
     << ((addr.ip >> 8) & 0xff) << '.' << (addr.ip & 0xff) << ':' << addr.port;
  return os.str();
}

namespace {

sockaddr_in to_sockaddr(const PeerAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip);
  sa.sin_port = htons(addr.port);
  return sa;
}

PeerAddr from_sockaddr(const sockaddr_in& sa) {
  return PeerAddr{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

// ----------------------------------------------------------------- UdpSocket

UdpSocket::UdpSocket(const PeerAddr& bind_addr) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  VDM_REQUIRE_MSG(fd_ >= 0, "socket() failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  VDM_REQUIRE(flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0);
  sockaddr_in sa = to_sockaddr(bind_addr);
  VDM_REQUIRE_MSG(
      ::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0,
      "bind(" + format_peer(bind_addr) + ") failed: " + std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  VDM_REQUIRE(
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0);
  local_ = from_sockaddr(bound);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpSocket::send(const PeerAddr& to, std::span<const std::byte> frame) {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t n =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  return n == static_cast<ssize_t>(frame.size());
}

std::size_t UdpSocket::drain(std::span<std::byte> scratch,
                             const RecvHandler& handler) {
  std::size_t delivered = 0;
  for (;;) {
    sockaddr_in from{};
    socklen_t len = sizeof(from);
    const ssize_t n =
        ::recvfrom(fd_, scratch.data(), scratch.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), &len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      VDM_WARN() << "recvfrom failed: " << std::strerror(errno);
      break;
    }
    ++delivered;
    handler(from_sockaddr(from),
            std::span<const std::byte>(scratch.data(),
                                       static_cast<std::size_t>(n)));
  }
  return delivered;
}

// ---------------------------------------------------------------- UdpReactor

UdpReactor::UdpReactor() : epoch_(std::chrono::steady_clock::now()) {}

sim::Time UdpReactor::wall() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

sim::Time UdpReactor::now() const {
  // Never behind the timer clock: a callback observing now() mid-dispatch
  // must see a time >= its own deadline, as on the DES backend.
  const sim::Time w = wall();
  const sim::Time t = timers_.now();
  return w > t ? w : t;
}

sim::EventId UdpReactor::schedule_at(sim::Time t, sim::InlineFn fn) {
  // Wall-clock setup can overrun a scenario timestamp; clamp instead of
  // tripping the DES precondition — the timer fires at the next pump.
  const sim::Time floor = timers_.now();
  return timers_.schedule_at(t > floor ? t : floor, std::move(fn));
}

sim::EventId UdpReactor::schedule_in(sim::Time delay, sim::InlineFn fn) {
  return schedule_at(now() + delay, std::move(fn));
}

void UdpReactor::add_socket(UdpSocket& socket, UdpSocket::RecvHandler handler) {
  sockets_.push_back(Entry{&socket, std::move(handler)});
}

std::size_t UdpReactor::poll_once(sim::Time max_wait) {
  if (sockets_.empty()) {
    if (max_wait > 0) {
      timespec ts;
      ts.tv_sec = static_cast<time_t>(max_wait);
      ts.tv_nsec = static_cast<long>((max_wait - std::floor(max_wait)) * 1e9);
      ::nanosleep(&ts, nullptr);
    }
    return 0;
  }
  std::vector<pollfd> fds;
  fds.reserve(sockets_.size());
  for (const Entry& e : sockets_) {
    fds.push_back(pollfd{e.socket->fd(), POLLIN, 0});
  }
  const int timeout_ms =
      max_wait <= 0 ? 0 : static_cast<int>(std::ceil(max_wait * 1e3));
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return 0;
  std::size_t delivered = 0;
  // Fresh pool buffer per drain: a handler that nests a pump_io (blocking
  // probe transactions do) must not have its in-flight frame overwritten by
  // the nested drain — the pool hands the inner pump a different slot while
  // this one is held. Recycled, so steady state still allocates nothing.
  const BufferPool::Buffer scratch = buffers_.acquire();
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    delivered += sockets_[i].socket->drain(scratch.bytes, sockets_[i].handler);
  }
  buffers_.release(scratch.slot);
  return delivered;
}

std::size_t UdpReactor::run_until(sim::Time t) {
  std::size_t fired = 0;
  while (!stopped_) {
    const sim::Time w = wall();
    // Fire every timer that is due by wall time (bounded by the target).
    fired += timers_.run_until(w < t ? w : t);
    if (stopped_ || wall() >= t) break;
    const sim::Time next = timers_.next_event_time();
    const sim::Time deadline = next < t ? next : t;
    sim::Time wait = deadline - wall();
    // Cap the sleep so stop() from another dispatch path stays responsive.
    if (wait > 0.05) wait = 0.05;
    if (wait < 0) wait = 0;
    poll_once(wait);
  }
  if (!stopped_ && timers_.now() < t) fired += timers_.run_until(t);
  return fired;
}

std::size_t UdpReactor::pump_io(sim::Time max_wait) {
  const sim::Time deadline = wall() + max_wait;
  for (;;) {
    sim::Time wait = deadline - wall();
    if (wait < 0) wait = 0;
    const std::size_t delivered = poll_once(wait);
    if (delivered > 0 || wall() >= deadline) return delivered;
  }
}

// --------------------------------------------------------------- RetrySender

RetrySender::RetrySender(sim::Reactor& reactor, Transport& transport,
                         BufferPool& buffers, RetryPolicy policy)
    : reactor_(reactor),
      transport_(transport),
      buffers_(buffers),
      policy_(policy) {}

RetrySender::~RetrySender() { cancel_all(); }

void RetrySender::send_tracked(std::uint32_t token, const PeerAddr& to,
                               const wire::Message& m) {
  VDM_REQUIRE_MSG(pending_.find(token) == pending_.end(),
                  "duplicate in-flight token");
  const BufferPool::Buffer buf = buffers_.acquire();
  Pending p;
  p.to = to;
  p.slot = buf.slot;
  p.len = static_cast<std::uint16_t>(wire::encode(m, buf.bytes));
  p.attempts = 1;
  p.cur_timeout = policy_.timeout;
  transport_.send(to, buf.bytes.first(p.len));
  p.deadline = reactor_.now() + p.cur_timeout;
  p.timer =
      reactor_.schedule_at(p.deadline, [this, token] { retransmit(token); });
  pending_.emplace(token, p);
}

void RetrySender::retransmit(std::uint32_t token) {
  const auto it = pending_.find(token);
  if (it == pending_.end()) return;
  Pending& pend = it->second;
  if (pend.attempts > policy_.max_retries) {
    VDM_WARN() << "retry budget exhausted for token " << token << " to "
               << format_peer(pend.to) << " after " << pend.attempts
               << " attempts";
    ++give_ups_;
    buffers_.release(pend.slot);
    pending_.erase(it);
    return;
  }
  ++pend.attempts;
  ++retransmissions_;
  transport_.send(pend.to, buffers_.bytes(pend.slot).first(pend.len));
  // The backoff grows, so each retry is a one-shot that schedules the next.
  pend.cur_timeout = policy_.next_timeout(pend.cur_timeout);
  pend.deadline += pend.cur_timeout;
  pend.timer =
      reactor_.schedule_at(pend.deadline, [this, token] { retransmit(token); });
}

bool RetrySender::complete(std::uint32_t token) {
  const auto it = pending_.find(token);
  if (it == pending_.end()) return false;
  reactor_.cancel(it->second.timer);
  buffers_.release(it->second.slot);
  pending_.erase(it);
  return true;
}

void RetrySender::cancel_all() {
  for (auto& [token, p] : pending_) {
    reactor_.cancel(p.timer);
    buffers_.release(p.slot);
  }
  pending_.clear();
}

}  // namespace vdm::transport
