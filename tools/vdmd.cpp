// vdmd — the real-socket VDM daemon (DESIGN.md §14).
//
// One binary, two roles:
//
//   vdmd --source [FLAG...]        (vdmd --help lists the flags)
//     The controller: the dissertation's MainController over real UDP. It
//     waits for --agents agents to hello on 127.0.0.1, builds a MeasuredUnderlay
//     whose delays are real probed RTTs, and runs the UNCHANGED protocol
//     core (Session / TreeWalk / Membership, the same objects every
//     simulation uses) on a UdpReactor. Every tree mutation the protocol
//     decides is mirrored to the agents as SetParent / Adopt / DropChild
//     (acked, retried per the PR 3 lossy-control-plane policy), and the
//     controller streams real chunks to its tree children.
//
//   vdmd --agent --controller ip:port
//     A thin relay: hellos in, answers pings and probe requests, obeys
//     re-parenting orders, heartbeats its parent, and forwards every chunk
//     to its adopted children.
//
// The centralized-controller shape is the paper's Chapter 5 deployment: the
// agents measure and relay; the protocol brain runs in one place.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/vdm_protocol.hpp"
#include "overlay/metric.hpp"
#include "overlay/session.hpp"
#include "overlay/workload.hpp"
#include "testbed/controller.hpp"
#include "transport/measured_underlay.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "wire/wire.hpp"

namespace vdm {
namespace {

using transport::PeerAddr;

constexpr double kHelloTimeout = 0.2;
constexpr double kPingTimeout = 0.3;
constexpr int kPingAttempts = 3;
constexpr double kAgentProbeTimeout = 2.0;
constexpr double kHeartbeatPeriod = 0.5;

/// The command line, as read_options reads it from kFlags (which holds
/// each flag's meaning and default).
struct Options {
  bool source = false, agent = false, spawn = false, verbose = false;
  std::string self, controller, scenario_path, port_file;  // self: argv[0], for --spawn
  std::size_t agents = 0;
  double chunk_rate = 0.0, stream_secs = 0.0, deadline = 0.0;
  std::uint16_t port = 0;
  int degree = 0;
};

/// Every flag vdmd reads, for both roles; --help prints this table.
constexpr util::Flag kFlags[] = {
    {"source", "", "", "run the controller"},
    {"agent", "", "", "run an agent relay (needs --controller)"},
    {"controller", "IP:PORT", "", "--agent: the controller's address"},
    {"agents", "N", "4", "--source: agents to expect, in [1, 65535]"},
    {"spawn", "", "", "--source: fork and exec the agents"},
    {"scenario", "FILE", "", "--source: trace to run (default: all join, then --stream-secs)"},
    {"chunk-rate", "R", "10", "chunks per second, in (0, 1000]"},
    {"stream-secs", "S", "3", "streaming time after the synthesized joins, finite"},
    {"deadline", "D", "60", "hard wall-clock cap on the whole run, s, finite"},
    {"port", "P", "0", "--source: listen port, in [0, 65535]; 0 = ephemeral"},
    {"port-file", "PATH", "", "--source: write \"ip:port\" here once bound"},
    {"degree", "K", "4", "degree limit handed to every join, in [1, 65535]"},
    {"verbose", "", "", "log at info level"},
};

constexpr util::Usage kUsage{.about = "The real-socket VDM daemon: a controller or an agent.",
                             .flags = kFlags};

/// `--name`'s value, which must lie in [lo, hi]; anything else throws
/// std::invalid_argument naming the flag (exit 2 through run_main).
template <typename T>
T in_range(const util::Flags& flags, const char* name, T lo, T hi, const char* want) {
  T out{};
  const std::string v = flags.get(name);
  if (!util::parse_whole(v, out) || !(out >= lo && out <= hi)) {
    throw std::invalid_argument("--" + std::string(name) + ": expected " + want +
                                ", got '" + v + "'");
  }
  return out;
}

Options read_options(const util::Flags& flags) {
  constexpr double kPositive = std::numeric_limits<double>::min();
  constexpr double kFinite = std::numeric_limits<double>::max();
  const Options opt{
      .source = flags.get_bool("source"),
      .agent = flags.get_bool("agent"),
      .spawn = flags.get_bool("spawn"),
      .verbose = flags.get_bool("verbose"),
      .self = flags.program(),
      .controller = flags.get("controller"),
      .scenario_path = flags.get("scenario"),
      .port_file = flags.get("port-file"),
      .agents = in_range(flags, "agents", std::size_t{1}, std::size_t{65535},
                         "a count in [1, 65535]"),
      .chunk_rate = in_range(flags, "chunk-rate", kPositive, 1000.0, "a rate in (0, 1000]"),
      .stream_secs = in_range(flags, "stream-secs", 0.0, kFinite, "a finite number >= 0"),
      .deadline = in_range(flags, "deadline", kPositive, kFinite, "a finite number > 0"),
      .port = in_range(flags, "port", std::uint16_t{0}, std::uint16_t{65535},
                       "a port in [0, 65535]"),
      .degree = in_range(flags, "degree", 1, 65535, "a degree in [1, 65535]")};
  if (opt.source == opt.agent) {
    throw std::invalid_argument("give exactly one of --source and --agent");
  }
  if (opt.agent && opt.controller.empty()) {
    throw std::invalid_argument("--agent needs --controller IP:PORT");
  }
  return opt;
}

/// The controller's scenario with times relative to the session start:
/// the --scenario file (any trace: join/leave/crash/flash/terminate lines),
/// or every agent joining back to back, then --stream-secs of streaming.
testbed::Scenario load_scenario(const Options& opt) {
  testbed::Scenario scenario;
  if (!opt.scenario_path.empty()) {
    scenario.end_time =
        overlay::load_trace_file(opt.scenario_path, scenario.events);
    return scenario;
  }
  for (std::size_t i = 1; i <= opt.agents; ++i) {
    scenario.events.push_back({0.05 * static_cast<double>(i),
                               overlay::WorkloadEvent::Kind::kJoin,
                               static_cast<net::HostId>(i), opt.degree});
  }
  scenario.end_time = 0.05 * static_cast<double>(opt.agents) + opt.stream_secs;
  return scenario;
}

void send_message(transport::UdpSocket& sock, const PeerAddr& to,
                  const wire::Message& m) {
  std::array<std::byte, wire::kMaxFrame> buf;
  const std::size_t n = wire::encode(m, buf);
  sock.send(to, std::span<const std::byte>(buf.data(), n));
}

// ---------------------------------------------------------------- agent role

/// The per-node relay: keeps a parent, a child set and counters, and reacts
/// to every controller/peer message. All state mutations happen inside the
/// reactor's single-threaded dispatch.
class Agent {
 public:
  Agent(const Options& opt)
      : controller_(transport::parse_peer(opt.controller)),
        sock_(PeerAddr{0x7f000001, 0}) {
    reactor_.add_socket(sock_, [this](const PeerAddr& from,
                                      std::span<const std::byte> frame) {
      on_datagram(from, frame);
    });
  }

  int run(double deadline) {
    if (!hello(deadline)) {
      std::cerr << "vdmd-agent: no welcome from "
                << transport::format_peer(controller_) << "\n";
      return 1;
    }
    transport::PeriodicTimer heartbeat(reactor_, kHeartbeatPeriod,
                                       [this] { heartbeat_tick(); });
    reactor_.run_until(deadline);
    return clean_exit_ ? 0 : 1;
  }

 private:
  bool hello(double deadline) {
    double timeout = kHelloTimeout;
    while (reactor_.now() < deadline && host_id_ == net::kInvalidHost) {
      send_message(sock_, controller_,
                   wire::Hello{.listen_port = sock_.local_addr().port});
      const double wait_until = std::min(deadline, reactor_.now() + timeout);
      while (reactor_.now() < wait_until && host_id_ == net::kInvalidHost) {
        reactor_.pump_io(wait_until - reactor_.now());
      }
      timeout = retry_.next_timeout(timeout);
    }
    return host_id_ != net::kInvalidHost;
  }

  void heartbeat_tick() {
    if (parent_ == net::kInvalidHost) return;
    ++heartbeats_sent_;
    send_message(sock_, parent_addr_,
                 wire::Heartbeat{.from_host = host_id_, .seq = heartbeat_seq_++});
  }

  /// Blocking ping transaction against a peer agent; returns the RTT of the
  /// first answered ping, or a large sentinel when all attempts time out.
  double ping_rtt(const PeerAddr& target) {
    double timeout = kPingTimeout;
    for (int attempt = 0; attempt < kPingAttempts; ++attempt) {
      const std::uint32_t token = ++ping_token_;
      awaited_pong_ = token;
      pong_seen_ = false;
      const double t0 = reactor_.now();
      send_message(sock_, target, wire::Ping{.token = token});
      const double wait_until = reactor_.now() + timeout;
      while (!pong_seen_ && reactor_.now() < wait_until) {
        reactor_.pump_io(wait_until - reactor_.now());
      }
      if (pong_seen_) return reactor_.now() - t0;
      timeout = retry_.next_timeout(timeout);
    }
    return 1.0;
  }

  void on_datagram(const PeerAddr& from, std::span<const std::byte> frame) {
    wire::Message m;
    const wire::DecodeError err = wire::decode(frame, m);
    if (!err.ok()) {
      VDM_WARN() << "vdmd-agent: dropping frame: " << wire::describe(err);
      return;
    }
    ++control_received_;
    std::visit([&](auto& body) { handle(from, body); }, m);
  }

  // Catch-all: message types an agent never receives (Hello, Ack etc.).
  template <typename M>
  void handle(const PeerAddr&, const M&) {}

  void handle(const PeerAddr&, const wire::Welcome& m) {
    host_id_ = m.host_id;
  }
  void handle(const PeerAddr& from, const wire::Ping& m) {
    send_message(sock_, from, wire::Pong{.token = m.token});
  }
  void handle(const PeerAddr&, const wire::Pong& m) {
    if (m.token == awaited_pong_) pong_seen_ = true;
  }
  void handle(const PeerAddr& from, const wire::ProbeRequest& m) {
    // Duplicate request (our reply was lost): answer from the cache without
    // re-probing, so controller retries converge fast.
    const auto it = probe_cache_.find(m.token);
    const double rtt =
        it != probe_cache_.end()
            ? it->second
            : ping_rtt(PeerAddr{m.target_ip, m.target_port});
    probe_cache_[m.token] = rtt;
    send_message(sock_, from,
                 wire::ProbeReply{.token = m.token,
                                  .target_host = m.target_host,
                                  .rtt_seconds = rtt});
  }
  void handle(const PeerAddr& from, const wire::SetParent& m) {
    parent_ = m.parent_host;
    parent_addr_ = PeerAddr{m.parent_ip, m.parent_port};
    send_message(sock_, from, wire::Ack{.token = m.token});
  }
  void handle(const PeerAddr& from, const wire::Adopt& m) {
    if (std::find(child_ids_.begin(), child_ids_.end(), m.child_host) ==
        child_ids_.end()) {
      child_ids_.push_back(m.child_host);
      child_addrs_.push_back(PeerAddr{m.child_ip, m.child_port});
    }
    send_message(sock_, from, wire::Ack{.token = m.token});
  }
  void handle(const PeerAddr& from, const wire::DropChild& m) {
    const auto it = std::find(child_ids_.begin(), child_ids_.end(), m.child_host);
    if (it != child_ids_.end()) {
      const std::size_t at = static_cast<std::size_t>(it - child_ids_.begin());
      child_ids_.erase(it);
      child_addrs_.erase(child_addrs_.begin() + static_cast<std::ptrdiff_t>(at));
    }
    send_message(sock_, from, wire::Ack{.token = m.token});
  }
  void handle(const PeerAddr& from, const wire::Heartbeat& m) {
    send_message(sock_, from, wire::HeartbeatAck{.seq = m.seq});
  }
  void handle(const PeerAddr&, const wire::Chunk& m) {
    ++chunks_received_;
    // Relay down: re-encode once, fan out to every adopted child.
    std::array<std::byte, wire::kMaxFrame> buf;
    const std::size_t n = wire::encode(wire::Message{m}, buf);
    for (const PeerAddr& child : child_addrs_) {
      sock_.send(child, std::span<const std::byte>(buf.data(), n));
      ++chunks_relayed_;
    }
  }
  void handle(const PeerAddr& from, const wire::StatsRequest& m) {
    send_message(sock_, from,
                 wire::StatsReply{.token = m.token,
                                  .host = host_id_,
                                  .chunks_received = chunks_received_,
                                  .chunks_relayed = chunks_relayed_,
                                  .heartbeats_sent = heartbeats_sent_,
                                  .control_received = control_received_});
  }
  void handle(const PeerAddr& from, const wire::Shutdown& m) {
    send_message(sock_, from, wire::Ack{.token = m.token});
    clean_exit_ = true;
    reactor_.stop();
  }

  PeerAddr controller_;
  transport::UdpReactor reactor_;
  transport::UdpSocket sock_;
  transport::RetryPolicy retry_;

  net::HostId host_id_ = net::kInvalidHost;
  net::HostId parent_ = net::kInvalidHost;
  PeerAddr parent_addr_;
  std::vector<net::HostId> child_ids_;
  std::vector<PeerAddr> child_addrs_;

  std::uint32_t ping_token_ = 0;
  std::uint32_t awaited_pong_ = 0;
  bool pong_seen_ = false;
  std::unordered_map<std::uint32_t, double> probe_cache_;

  std::uint32_t heartbeat_seq_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t chunks_received_ = 0;
  std::uint64_t chunks_relayed_ = 0;
  std::uint64_t control_received_ = 0;
  bool clean_exit_ = false;
};

// ----------------------------------------------------------- controller role

/// The controller: ProbeService for the MeasuredUnderlay (real RTTs via the
/// agents), MembershipObserver mirroring every protocol decision out to the
/// agents, and the real chunk stream.
class Controller final : public transport::ProbeService,
                         public overlay::MembershipObserver {
 public:
  Controller(const Options& opt, testbed::Scenario scenario)
      : opt_(opt),
        scenario_(std::move(scenario)),
        sock_(PeerAddr{0x7f000001, opt.port}),
        retry_(reactor_, sock_, reactor_.buffers(), transport::RetryPolicy{}) {
    reactor_.add_socket(sock_, [this](const PeerAddr& from,
                                      std::span<const std::byte> frame) {
      on_datagram(from, frame);
    });
    agents_.resize(opt.agents + 1);  // index == HostId; 0 is the controller
    agents_[0].addr = sock_.local_addr();
    agents_[0].ready = true;
  }

  int run() {
    std::cout << "vdmd: controller listening on "
              << transport::format_peer(sock_.local_addr()) << std::endl;
    if (!opt_.port_file.empty()) {
      std::ofstream pf(opt_.port_file);
      pf << transport::format_peer(sock_.local_addr()) << "\n";
    }
    if (opt_.spawn) spawn_agents();
    if (!gather_agents()) {
      std::cerr << "vdmd: only " << ready_agents() << "/" << opt_.agents
                << " agents helloed before the deadline\n";
      reap_agents(true);
      return 1;
    }
    std::cout << "vdmd: " << opt_.agents << " agents ready" << std::endl;

    transport::MeasuredUnderlay underlay(opt_.agents + 1, *this);
    core::VdmProtocol protocol;
    overlay::DelayMetric metric(0.0);
    testbed::ControllerParams params;
    params.source_degree = opt_.degree + 1;  // root pays no uplink
    params.chunk_rate = opt_.chunk_rate;
    params.data_plane = false;  // chunks are real datagrams, not a model
    testbed::MainController controller(reactor_, underlay, protocol, metric,
                                       params, util::Rng(1));
    session_ = &controller.session();
    session_->set_observer(this);  // mirror every tree change to the agents

    // Scenario timestamps are relative to "now": setup (hello gathering)
    // already burned wall clock, and the reactor clock never rewinds.
    const double base = reactor_.now() + 0.1;
    for (overlay::WorkloadEvent& e : scenario_.events) e.at += base;
    scenario_.end_time += base;
    transport::PeriodicTimer stream(reactor_, 1.0 / opt_.chunk_rate,
                                    [this] { emit_chunk(); });
    testbed::SessionReport report;
    try {
      report = controller.run(scenario_);
    } catch (...) {
      // A scenario the executor rejects (a host beyond --agents, a leave of
      // a non-member) must not leave the spawned agents running.
      reap_agents(true);
      throw;
    }
    stream.stop();

    std::cout << "vdmd: members=" << session_->tree().alive_count()
              << " depth=" << tree_depth() << std::endl;
    std::cout << "vdmd: chunks emitted=" << chunks_emitted_
              << " fanned=" << chunks_fanned_ << std::endl;
    std::cout << "vdmd: control messages (modeled)="
              << report.totals.control_messages
              << " probes=" << probes_issued_
              << " retransmissions=" << retry_.retransmissions()
              << " give-ups=" << retry_.give_ups() << std::endl;

    const bool stats_ok = collect_stats();
    shutdown_agents();
    const bool reaped = reap_agents(false);
    session_ = nullptr;
    if (!stats_ok || !reaped) return 1;
    std::cout << "vdmd: clean shutdown" << std::endl;
    return 0;
  }

  // ---------------------------------------------------- ProbeService (real)
  double probe_rtt(net::HostId a, net::HostId b) override {
    ++probes_issued_;
    VDM_REQUIRE(a < agents_.size() && b < agents_.size());
    if (a == 0 || b == 0) return controller_ping(a == 0 ? b : a);
    // Delegated probe: ask agent a to ping agent b. Manual retry loop —
    // we are inside a blocked transaction, so only I/O pumps run here.
    double timeout = kPingTimeout;
    const double deadline = reactor_.now() + kAgentProbeTimeout;
    while (reactor_.now() < deadline) {
      const std::uint32_t token = retry_.next_token();
      awaited_probe_ = token;
      probe_result_.reset();
      send_message(sock_, agents_[a].addr,
                   wire::ProbeRequest{.token = token,
                                      .target_host = b,
                                      .target_ip = agents_[b].addr.ip,
                                      .target_port = agents_[b].addr.port});
      const double wait_until = std::min(deadline, reactor_.now() + timeout);
      while (!probe_result_ && reactor_.now() < wait_until) {
        reactor_.pump_io(wait_until - reactor_.now());
      }
      if (probe_result_) return *probe_result_;
      timeout = transport::RetryPolicy{}.next_timeout(timeout);
    }
    VDM_WARN() << "vdmd: probe " << a << "->" << b << " timed out";
    return 1.0;
  }

  // ------------------------------------------- MembershipObserver (mirror)
  void on_attach(net::HostId child, net::HostId parent) override {
    if (child == 0) return;
    send_tracked(child, wire::SetParent{.token = 0,
                                        .parent_host = parent,
                                        .parent_ip = agents_[parent].addr.ip,
                                        .parent_port = agents_[parent].addr.port});
    if (parent != 0) {
      send_tracked(parent, wire::Adopt{.token = 0,
                                       .child_host = child,
                                       .child_ip = agents_[child].addr.ip,
                                       .child_port = agents_[child].addr.port});
    }
  }
  void on_detach(net::HostId child, net::HostId parent) override {
    if (parent != 0 && parent != net::kInvalidHost) {
      send_tracked(parent, wire::DropChild{.token = 0, .child_host = child});
    }
    if (child != 0) {
      send_tracked(child, wire::SetParent{.token = 0,
                                          .parent_host = net::kInvalidHost,
                                          .parent_ip = 0,
                                          .parent_port = 0});
    }
  }

 private:
  struct AgentSlot {
    PeerAddr addr;
    bool ready = false;
    pid_t pid = -1;
    std::optional<wire::StatsReply> stats;
  };

  /// Stamps a fresh token into `m` and sends it through the acked/retried
  /// path (RetrySender timers fire while the session's reactor runs).
  template <typename M>
  void send_tracked(net::HostId to, M m) {
    m.token = retry_.next_token();
    retry_.send_tracked(m.token, agents_[to].addr, wire::Message{m});
  }

  std::size_t ready_agents() const {
    std::size_t n = 0;
    for (const AgentSlot& a : agents_) n += a.ready ? 1 : 0;
    return n - 1;  // minus the controller itself
  }

  void spawn_agents() {
    const std::string addr = transport::format_peer(sock_.local_addr());
    const std::string deadline = std::to_string(opt_.deadline);
    for (std::size_t i = 0; i < opt_.agents; ++i) {
      const pid_t pid = ::fork();
      VDM_REQUIRE_MSG(pid >= 0, "fork failed");
      if (pid == 0) {
        ::execlp(opt_.self.c_str(), opt_.self.c_str(), "--agent", "--controller",
                 addr.c_str(), "--deadline", deadline.c_str(),
                 static_cast<char*>(nullptr));
        std::perror("vdmd: execlp");
        std::_Exit(127);
      }
      agents_[i + 1].pid = pid;
    }
  }

  bool gather_agents() {
    const double deadline = std::min(opt_.deadline * 0.5, 20.0);
    while (reactor_.now() < deadline && ready_agents() < opt_.agents) {
      reactor_.pump_io(0.1);
    }
    return ready_agents() == opt_.agents;
  }

  void emit_chunk() {
    if (session_ == nullptr) return;
    const overlay::MemberState& self = session_->tree().member(0);
    std::array<std::byte, 64> payload;
    payload.fill(std::byte{0x5a});
    std::array<std::byte, wire::kMaxFrame> buf;
    const std::size_t n = wire::encode(
        wire::Chunk{.seq = ++chunk_seq_,
                    .emitted_at = reactor_.now(),
                    .payload = payload},
        buf);
    ++chunks_emitted_;
    for (const net::HostId child : self.children) {
      sock_.send(agents_[child].addr, std::span<const std::byte>(buf.data(), n));
      ++chunks_fanned_;
    }
  }

  /// One blocking request/reply transaction with every agent.
  bool collect_stats() {
    bool all = true;
    for (std::size_t h = 1; h < agents_.size(); ++h) {
      double timeout = kPingTimeout;
      const double deadline = reactor_.now() + kAgentProbeTimeout;
      agents_[h].stats.reset();
      while (reactor_.now() < deadline && !agents_[h].stats) {
        const std::uint32_t token = retry_.next_token();
        send_message(sock_, agents_[h].addr, wire::StatsRequest{.token = token});
        const double wait_until = std::min(deadline, reactor_.now() + timeout);
        while (!agents_[h].stats && reactor_.now() < wait_until) {
          reactor_.pump_io(wait_until - reactor_.now());
        }
        timeout = transport::RetryPolicy{}.next_timeout(timeout);
      }
      if (agents_[h].stats) {
        const wire::StatsReply& s = *agents_[h].stats;
        std::cout << "vdmd: stats host=" << h
                  << " received=" << s.chunks_received
                  << " relayed=" << s.chunks_relayed
                  << " heartbeats=" << s.heartbeats_sent
                  << " control=" << s.control_received << std::endl;
      } else {
        std::cerr << "vdmd: no stats from host " << h << "\n";
        all = false;
      }
    }
    return all;
  }

  void shutdown_agents() {
    // Acked + retried; drive the retry timers with short run_until slices
    // until every shutdown is acknowledged (or retries exhaust).
    for (std::size_t h = 1; h < agents_.size(); ++h) {
      send_tracked(static_cast<net::HostId>(h), wire::Shutdown{.token = 0});
    }
    const double deadline = reactor_.now() + 5.0;
    while (retry_.in_flight() > 0 && reactor_.now() < deadline) {
      reactor_.resume();
      reactor_.run_until(reactor_.now() + 0.05);
    }
  }

  bool reap_agents(bool kill_now) {
    if (!opt_.spawn) return true;
    bool all = true;
    for (std::size_t h = 1; h < agents_.size(); ++h) {
      const pid_t pid = agents_[h].pid;
      if (pid < 0) continue;
      if (kill_now) ::kill(pid, SIGKILL);
      int status = 0;
      pid_t got = 0;
      const double deadline = reactor_.now() + 5.0;
      while ((got = ::waitpid(pid, &status, WNOHANG)) == 0 &&
             reactor_.now() < deadline) {
        reactor_.pump_io(0.05);
      }
      if (got == 0) {  // still running: force it down
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        all = false;
      } else if (!kill_now &&
                 (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
        std::cerr << "vdmd: agent " << h << " exited with status " << status
                  << "\n";
        all = false;
      }
    }
    return all || kill_now;
  }

  double controller_ping(net::HostId target) {
    double timeout = kPingTimeout;
    for (int attempt = 0; attempt < kPingAttempts; ++attempt) {
      const std::uint32_t token = retry_.next_token();
      awaited_pong_ = token;
      pong_seen_ = false;
      const double t0 = reactor_.now();
      send_message(sock_, agents_[target].addr, wire::Ping{.token = token});
      const double wait_until = reactor_.now() + timeout;
      while (!pong_seen_ && reactor_.now() < wait_until) {
        reactor_.pump_io(wait_until - reactor_.now());
      }
      if (pong_seen_) return reactor_.now() - t0;
      timeout = transport::RetryPolicy{}.next_timeout(timeout);
    }
    VDM_WARN() << "vdmd: ping of host " << target << " timed out";
    return 1.0;
  }

  void on_datagram(const PeerAddr& from, std::span<const std::byte> frame) {
    wire::Message m;
    const wire::DecodeError err = wire::decode(frame, m);
    if (!err.ok()) {
      VDM_WARN() << "vdmd: dropping frame: " << wire::describe(err);
      return;
    }
    std::visit([&](auto& body) { handle(from, body); }, m);
  }

  template <typename M>
  void handle(const PeerAddr&, const M&) {}

  void handle(const PeerAddr& from, const wire::Hello&) {
    // Source addr IS the agent's socket (one socket per agent); a duplicate
    // hello (lost welcome) just gets the same id again.
    for (std::size_t h = 1; h < agents_.size(); ++h) {
      if (agents_[h].ready && agents_[h].addr == from) {
        send_welcome(static_cast<net::HostId>(h), from);
        return;
      }
    }
    for (std::size_t h = 1; h < agents_.size(); ++h) {
      if (!agents_[h].ready) {
        agents_[h].ready = true;
        agents_[h].addr = from;
        send_welcome(static_cast<net::HostId>(h), from);
        return;
      }
    }
    VDM_WARN() << "vdmd: hello from " << transport::format_peer(from)
               << " but the roster is full";
  }
  void send_welcome(net::HostId h, const PeerAddr& to) {
    send_message(sock_, to,
                 wire::Welcome{.host_id = h,
                               .num_hosts = static_cast<std::uint32_t>(
                                   agents_.size())});
  }
  void handle(const PeerAddr&, const wire::Pong& m) {
    if (m.token == awaited_pong_) pong_seen_ = true;
  }
  void handle(const PeerAddr&, const wire::ProbeReply& m) {
    if (m.token == awaited_probe_) probe_result_ = m.rtt_seconds;
  }
  void handle(const PeerAddr&, const wire::Ack& m) { retry_.complete(m.token); }
  void handle(const PeerAddr& from, const wire::Heartbeat& m) {
    send_message(sock_, from, wire::HeartbeatAck{.seq = m.seq});
  }
  void handle(const PeerAddr&, const wire::StatsReply& m) {
    if (m.host >= 1 && m.host < agents_.size()) agents_[m.host].stats = m;
  }

  int tree_depth() const {
    int depth = 0;
    for (std::size_t h = 0; h < agents_.size(); ++h) {
      int d = 0;
      net::HostId cur = static_cast<net::HostId>(h);
      if (!session_->tree().member(cur).alive) continue;
      while (session_->tree().member(cur).parent != net::kInvalidHost) {
        cur = session_->tree().member(cur).parent;
        ++d;
      }
      depth = std::max(depth, d);
    }
    return depth;
  }

  Options opt_;
  testbed::Scenario scenario_;
  transport::UdpReactor reactor_;
  transport::UdpSocket sock_;
  transport::RetrySender retry_;
  std::vector<AgentSlot> agents_;
  overlay::Session* session_ = nullptr;

  std::uint32_t awaited_pong_ = 0;
  bool pong_seen_ = false;
  std::uint32_t awaited_probe_ = 0;
  std::optional<double> probe_result_;

  std::uint32_t chunk_seq_ = 0;
  std::uint64_t chunks_emitted_ = 0;
  std::uint64_t chunks_fanned_ = 0;
  std::uint64_t probes_issued_ = 0;
};

/// Usage errors (util::Flags, read_options, a malformed --scenario) exit
/// 2; a failure once sockets exist exits 1.
int run(const util::Flags& flags) {
  const Options opt = read_options(flags);
  if (opt.verbose) util::set_log_level(util::LogLevel::kInfo);
  try {
    if (opt.agent) return Agent(opt).run(opt.deadline);
    testbed::Scenario scenario;
    try {
      scenario = load_scenario(opt);
    } catch (const util::InvariantError& e) {
      std::cerr << "vdmd: --scenario " << opt.scenario_path << ": " << e.what() << "\n";
      return 2;
    }
    return Controller(opt, std::move(scenario)).run();
  } catch (const std::exception& e) {
    std::cerr << "vdmd: fatal: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace vdm

int main(int argc, char** argv) {
  using namespace vdm;
  // Agents outlive a controller that dies mid-send; never crash on EPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  return util::run_main(argc, argv, kUsage, run);
}
