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
//     (acked, retried per sim::RetryPolicy), and the controller streams
//     real chunks to its tree children.
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
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/vdm_protocol.hpp"
#include "overlay/metric.hpp"
#include "overlay/session.hpp"
#include "overlay/workload.hpp"
#include "sim/retry.hpp"
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

/// Retry schedules of the blocking calls, each from 0.3 s (0.2 s for the
/// hello), doubling up to 4 s: a hello retries until --deadline, a ping
/// tries three times, and a delegated probe or a stats request retries for
/// kRequestDeadline.
constexpr int kUntilDeadline = std::numeric_limits<int>::max();
constexpr sim::RetryPolicy kHelloRetry{.timeout = 0.2, .max_retries = kUntilDeadline};
constexpr sim::RetryPolicy kPingRetry{.timeout = 0.3, .max_retries = 2};
constexpr sim::RetryPolicy kRequestRetry{.timeout = 0.3, .max_retries = kUntilDeadline};
constexpr double kRequestDeadline = 2.0;
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
/// The RTT a probe reports once it gives up.
constexpr double kUnansweredRtt = 1.0;
constexpr double kHeartbeatPeriod = 0.5;

/// The command line, as read_options reads it from kFlags (which holds
/// each flag's meaning and default).
struct Options {
  bool agent = false, spawn = false, verbose = false;  // agent: else the controller
  std::string self, controller, scenario_path, port_file;  // self: argv[0], for --spawn
  std::size_t agents = 0;
  double chunk_rate = 0.0, stream_secs = 0.0, deadline = 0.0;
  std::uint16_t port = 0;
  int degree = 0;
};

/// Every flag vdmd reads; --help prints this table. A row whose help starts
/// with "--source: " or "--agent: " is read by that role only, and the
/// other role rejects it.
constexpr util::Flag kFlags[] = {
    {"source", "", "", "run the controller"},
    {"agent", "", "", "run an agent relay (needs --controller)"},
    {"controller", "IP:PORT", "", "--agent: the controller's address"},
    {"agents", "N", "4", "--source: agents to expect, in [1, 65535]"},
    {"spawn", "", "", "--source: fork and exec the agents"},
    {"scenario", "FILE", "", "--source: trace to run (default: all join, then --stream-secs)"},
    {"chunk-rate", "R", "10", "--source: chunks per second, in (0, 1000]"},
    {"stream-secs", "S", "3", "--source: streaming time after the synthesized joins, finite"},
    {"deadline", "D", "60", "hard wall-clock cap on the whole run, s, finite"},
    {"port", "P", "0", "--source: listen port, in [0, 65535]; 0 = ephemeral"},
    {"port-file", "PATH", "", "--source: write \"ip:port\" here once bound"},
    {"degree", "K", "4", "--source: degree limit handed to every join, in [1, 65535]"},
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
  const bool source = flags.get_bool("source");
  const bool agent = flags.get_bool("agent");
  if (source == agent) {
    throw std::invalid_argument("give exactly one of --source and --agent");
  }
  // A flag the chosen role never reads would be ignored: name them all.
  const std::string_view other_role = agent ? "--source: " : "--agent: ";
  std::string unread;
  for (const util::Flag& f : kFlags) {
    if (f.help.starts_with(other_role) && flags.has(f.name)) {
      unread += " --" + std::string(f.name);
    }
  }
  if (!unread.empty()) {
    throw std::invalid_argument(std::string(agent ? "--agent" : "--source") +
                                " never reads" + unread);
  }
  const Options opt{
      .agent = agent,
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

// ----------------------------------------------------------------- peer core

/// What both roles do the same way: one socket on 127.0.0.1 and the
/// reactor that polls it, the one send path, decode and dispatch, blocking
/// calls, the ping, and the answers to Ping and Heartbeat. A role derives
/// from Peer<Role>, takes the core's handlers in with `using Peer::handle`
/// and adds its own; a message that no handler names is dropped.
template <typename Role>
class Peer {
 public:
  explicit Peer(std::uint16_t port) : sock_(PeerAddr{0x7f000001, port}) {
    reactor_.add_socket(sock_, [this](const PeerAddr& from,
                                      std::span<const std::byte> frame) {
      on_datagram(from, frame);
    });
  }

 protected:
  void send(const PeerAddr& to, const wire::Message& m) {
    std::array<std::byte, wire::kMaxFrame> buf;
    sock_.send(to, std::span<const std::byte>(buf.data(), wire::encode(m, buf)));
  }

  /// Sends `request`, under a fresh token on each attempt if it carries
  /// one, and waits (UdpReactor::exchange) for the `Reply` with that token,
  /// or for any `Reply` to a request without one. nullopt once `policy` or
  /// `deadline` gives up; `rtt`, if given, receives the answered attempt's
  /// round trip.
  template <typename Reply, typename Request>
  std::optional<Reply> call(const PeerAddr& to, Request request,
                            const sim::RetryPolicy& policy, sim::Time deadline,
                            sim::Time* rtt = nullptr) {
    Awaited awaited{.type = wire::type_of(Reply{})};
    // A handler may call while another call waits (an agent pings for a
    // probe request); the inner call takes the replies until it returns.
    Awaited* const outer = std::exchange(awaited_, &awaited);
    const std::optional<sim::Time> took = reactor_.exchange(
        policy, deadline,
        [&] {
          if constexpr (requires { request.token; }) {
            request.token = awaited.token = ++last_token_;
          }
          send(to, request);
        },
        [&] { return awaited.reply.has_value(); });
    awaited_ = outer;
    if (!took) return std::nullopt;
    if (rtt != nullptr) *rtt = *took;
    return std::get<Reply>(*awaited.reply);
  }

  /// The round trip of a Ping/Pong exchange with `to`; kUnansweredRtt once
  /// all three attempts time out.
  double ping(const PeerAddr& to) {
    sim::Time rtt = kUnansweredRtt;
    if (!call<wire::Pong>(to, wire::Ping{}, kPingRetry, kNoDeadline, &rtt)) {
      VDM_WARN() << "vdmd: ping of " << transport::format_peer(to) << " timed out";
    }
    return rtt;
  }

  // Catch-all: a message this role never acts on.
  template <typename M>
  void handle(const PeerAddr&, const M&) {}
  void handle(const PeerAddr& from, const wire::Ping& m) {
    send(from, wire::Pong{.token = m.token});
  }
  void handle(const PeerAddr& from, const wire::Heartbeat& m) {
    send(from, wire::HeartbeatAck{.seq = m.seq});
  }

  transport::UdpReactor reactor_;
  transport::UdpSocket sock_;
  std::uint64_t frames_received_ = 0;

 private:
  /// The reply a call waits for.
  struct Awaited {
    wire::Type type;
    std::uint32_t token = 0;  // 0: the request carries none
    std::optional<wire::Message> reply = std::nullopt;
  };

  static std::uint32_t token_of(const wire::Message& m) {
    return std::visit(
        [](const auto& body) -> std::uint32_t {
          if constexpr (requires { body.token; }) {
            return body.token;
          } else {
            return 0;
          }
        },
        m);
  }

  void on_datagram(const PeerAddr& from, std::span<const std::byte> frame) {
    wire::Message m;
    const wire::DecodeError err = wire::decode(frame, m);
    if (!err.ok()) {
      VDM_WARN() << "vdmd: dropping frame: " << wire::describe(err);
      return;
    }
    ++frames_received_;
    if (awaited_ != nullptr && wire::type_of(m) == awaited_->type &&
        token_of(m) == awaited_->token) {
      awaited_->reply = m;
      return;
    }
    std::visit([&](const auto& body) { static_cast<Role&>(*this).handle(from, body); },
               m);
  }

  Awaited* awaited_ = nullptr;
  std::uint32_t last_token_ = 0;
};

// ---------------------------------------------------------------- agent role

/// The per-node relay: keeps a parent, a child set and counters, and reacts
/// to every controller/peer message. All state mutations happen inside the
/// reactor's single-threaded dispatch.
class Agent final : public Peer<Agent> {
 public:
  explicit Agent(const Options& opt)
      : Peer(0), controller_(transport::parse_peer(opt.controller)) {}

  int run(double deadline) {
    const std::optional<wire::Welcome> welcome = call<wire::Welcome>(
        controller_, wire::Hello{.listen_port = sock_.local_addr().port},
        kHelloRetry, deadline);
    if (!welcome) {
      std::cerr << "vdmd-agent: no welcome from "
                << transport::format_peer(controller_) << "\n";
      return 1;
    }
    host_id_ = welcome->host_id;
    transport::PeriodicTimer heartbeat(reactor_, kHeartbeatPeriod,
                                       [this] { heartbeat_tick(); });
    reactor_.run_until(deadline);
    return clean_exit_ ? 0 : 1;
  }

 private:
  friend class Peer<Agent>;
  using Peer::handle;

  void heartbeat_tick() {
    if (parent_ == net::kInvalidHost) return;
    send(parent_addr_,
         wire::Heartbeat{.from_host = host_id_,
                         .seq = static_cast<std::uint32_t>(heartbeats_sent_++)});
  }

  void handle(const PeerAddr& from, const wire::ProbeRequest& m) {
    send(from, wire::ProbeReply{.token = m.token,
                                .target_host = m.target_host,
                                .rtt_seconds = ping(PeerAddr{m.target_ip, m.target_port})});
  }
  void handle(const PeerAddr& from, const wire::SetParent& m) {
    parent_ = m.parent_host;
    parent_addr_ = PeerAddr{m.parent_ip, m.parent_port};
    send(from, wire::Ack{.token = m.token});
  }
  void handle(const PeerAddr& from, const wire::Adopt& m) {
    if (std::ranges::find(children_, m.child_host, &Child::host) == children_.end()) {
      children_.push_back({m.child_host, PeerAddr{m.child_ip, m.child_port}});
    }
    send(from, wire::Ack{.token = m.token});
  }
  void handle(const PeerAddr& from, const wire::DropChild& m) {
    std::erase_if(children_, [&](const Child& c) { return c.host == m.child_host; });
    send(from, wire::Ack{.token = m.token});
  }
  void handle(const PeerAddr&, const wire::Chunk& m) {
    ++chunks_received_;
    for (const Child& child : children_) {  // relay down the tree
      send(child.addr, m);
      ++chunks_relayed_;
    }
  }
  void handle(const PeerAddr& from, const wire::StatsRequest& m) {
    send(from, wire::StatsReply{.token = m.token,
                                .host = host_id_,
                                .chunks_received = chunks_received_,
                                .chunks_relayed = chunks_relayed_,
                                .heartbeats_sent = heartbeats_sent_,
                                .control_received = frames_received_});
  }
  void handle(const PeerAddr& from, const wire::Shutdown& m) {
    send(from, wire::Ack{.token = m.token});
    clean_exit_ = true;
    reactor_.stop();
  }

  PeerAddr controller_;
  net::HostId host_id_ = net::kInvalidHost;
  net::HostId parent_ = net::kInvalidHost;
  PeerAddr parent_addr_;
  struct Child {
    net::HostId host;
    PeerAddr addr;
  };
  std::vector<Child> children_;

  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t chunks_received_ = 0;
  std::uint64_t chunks_relayed_ = 0;
  bool clean_exit_ = false;
};

// ----------------------------------------------------------- controller role

/// The controller: ProbeService for the MeasuredUnderlay (real RTTs via the
/// agents), MembershipObserver mirroring every protocol decision out to the
/// agents, and the real chunk stream.
class Controller final : public Peer<Controller>,
                         public transport::ProbeService,
                         public overlay::MembershipObserver {
 public:
  Controller(const Options& opt, testbed::Scenario scenario)
      : Peer(opt.port),
        opt_(opt),
        scenario_(std::move(scenario)),
        retry_(reactor_, sock_, reactor_.buffers(), sim::RetryPolicy{}) {
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
              << " depth=" << report.final_tree.hop_max << std::endl;
    std::cout << "vdmd: chunks emitted=" << chunks_emitted_
              << " fanned=" << chunks_fanned_ << std::endl;
    std::cout << "vdmd: control messages (modeled)="
              << report.totals.control_messages
              << " probes=" << underlay.probes_issued()
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
    VDM_REQUIRE(a < agents_.size() && b < agents_.size());
    if (a == 0 || b == 0) return ping(agents_[a == 0 ? b : a].addr);
    // Delegated: agent a pings agent b and reports the round trip.
    const std::optional<wire::ProbeReply> reply = call<wire::ProbeReply>(
        agents_[a].addr,
        wire::ProbeRequest{.target_host = b,
                           .target_ip = agents_[b].addr.ip,
                           .target_port = agents_[b].addr.port},
        kRequestRetry, reactor_.now() + kRequestDeadline);
    if (reply) return reply->rtt_seconds;
    VDM_WARN() << "vdmd: probe " << a << "->" << b << " timed out";
    return kUnansweredRtt;
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
  friend class Peer<Controller>;
  using Peer::handle;

  struct AgentSlot {
    PeerAddr addr;
    bool ready = false;
    pid_t pid = -1;
  };

  /// Stamps a fresh token into `m` and sends it through the acked/retried
  /// path (RetrySender timers fire while the session's reactor runs).
  template <typename M>
  void send_tracked(net::HostId to, M m) {
    m.token = retry_.next_token();
    retry_.send_tracked(m.token, agents_[to].addr, wire::Message{m});
  }

  std::size_t ready_agents() const {  // not counting the controller itself
    return static_cast<std::size_t>(
        std::count_if(agents_.begin() + 1, agents_.end(),
                      [](const AgentSlot& a) { return a.ready; }));
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
    std::array<std::byte, 64> payload;
    payload.fill(std::byte{0x5a});
    const wire::Chunk chunk{
        .seq = static_cast<std::uint32_t>(++chunks_emitted_),
        .emitted_at = reactor_.now(),
        .payload = payload};
    for (const net::HostId child : session_->tree().member(0).children) {
      send(agents_[child].addr, chunk);
      ++chunks_fanned_;
    }
  }

  /// One blocking stats call to every agent.
  bool collect_stats() {
    bool all = true;
    for (std::size_t h = 1; h < agents_.size(); ++h) {
      const std::optional<wire::StatsReply> s = call<wire::StatsReply>(
          agents_[h].addr, wire::StatsRequest{}, kRequestRetry,
          reactor_.now() + kRequestDeadline);
      if (!s) {
        std::cerr << "vdmd: no stats from host " << h << "\n";
        all = false;
        continue;
      }
      std::cout << "vdmd: stats host=" << h
                << " received=" << s->chunks_received
                << " relayed=" << s->chunks_relayed
                << " heartbeats=" << s->heartbeats_sent
                << " control=" << s->control_received << std::endl;
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

  void handle(const PeerAddr& from, const wire::Hello&) {
    // Source addr IS the agent's socket (one socket per agent); a duplicate
    // hello (lost welcome) just gets the same id again.
    const auto agents = std::span(agents_).subspan(1);
    auto slot = std::ranges::find_if(
        agents, [&](const AgentSlot& a) { return a.ready && a.addr == from; });
    if (slot == agents.end()) slot = std::ranges::find(agents, false, &AgentSlot::ready);
    if (slot == agents.end()) {
      VDM_WARN() << "vdmd: hello from " << transport::format_peer(from)
                 << " but the roster is full";
      return;
    }
    slot->ready = true;
    slot->addr = from;
    send(from, wire::Welcome{
                   .host_id = static_cast<net::HostId>(slot - agents.begin() + 1),
                   .num_hosts = static_cast<std::uint32_t>(agents_.size())});
  }
  void handle(const PeerAddr&, const wire::Ack& m) { retry_.complete(m.token); }

  Options opt_;
  testbed::Scenario scenario_;
  transport::RetrySender retry_;
  std::vector<AgentSlot> agents_;
  overlay::Session* session_ = nullptr;

  std::uint64_t chunks_emitted_ = 0;
  std::uint64_t chunks_fanned_ = 0;
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
