#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "net/types.hpp"

namespace vdm::wire {

/// Compact, versioned binary codec for every control/data exchange the
/// protocol performs (DESIGN.md §14). One datagram carries one frame:
///
///   magic(2) version(1) type(1) length(2) payload(length)
///
/// All integers are little-endian, encoded byte-by-byte so the format is
/// identical on any host. Doubles travel as their IEEE-754 bit pattern in a
/// u64. Encode and decode are zero-allocation: encode writes into a
/// caller-provided span, decode reads field-by-field out of the input span,
/// and variable payloads (chunk bodies) stay views into the input buffer.
///
/// The catalogue is what vdmd's roles actually send: probe request/reply
/// and ping/pong, the re-parenting mirror of the controller's tree
/// (set-parent/adopt/drop-child, acked), heartbeats, chunk relay, plus the
/// bootstrap and reporting messages the dissertation's
/// MainController/VDMAgent deployment needed (hello/welcome, stats,
/// shutdown). The controller decides every join and departure itself, so
/// no join or leave message travels.

inline constexpr std::uint16_t kMagic = 0x564d;  // "VM"
/// Bumped whenever the catalogue's numbering changes, so a frame from an
/// older binary fails as kBadVersion instead of decoding as another type.
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 6;
/// Fits one UDP datagram on any sane MTU; the length field is validated
/// against this before any payload read.
inline constexpr std::size_t kMaxPayload = 1400;
inline constexpr std::size_t kMaxFrame = kHeaderBytes + kMaxPayload;

enum class Type : std::uint8_t {
  kHello = 1,       // agent -> controller: here I am, my receive port
  kWelcome,         // controller -> agent: your HostId and the session shape
  kProbeRequest,    // controller -> agent: measure RTT to target
  kProbeReply,      // agent -> controller: measured RTT
  kPing,            // agent -> agent: RTT probe echo request
  kPong,            // agent -> agent: RTT probe echo reply
  kSetParent,       // controller -> agent: re-parent (splice); invalid = detach
  kAdopt,           // controller -> agent: add this child to your relay set
  kDropChild,       // controller -> agent: remove this child
  kAck,             // generic acknowledgement of a token-carrying request
  kHeartbeat,       // child -> parent: are you alive
  kHeartbeatAck,    // parent -> child: yes
  kChunk,           // parent -> child: one data chunk, relayed down the tree
  kStatsRequest,    // controller -> agent: report your counters
  kStatsReply,      // agent -> controller: delivery/relay/heartbeat counters
  kShutdown,        // controller -> agent: clean exit
};
inline constexpr std::uint8_t kMaxType = static_cast<std::uint8_t>(Type::kShutdown);

const char* type_name(Type t);

// ------------------------------------------------------------- message types
//
// A message's fields, in declaration order, are its payload, and nothing
// else lists them: encode and decode both walk them (wire.cpp, each_field).
// Integers travel little-endian in their own width, doubles as their bits;
// a byte span, only ever the last field, takes the rest of the payload.

struct Hello {
  std::uint16_t listen_port = 0;
  friend bool operator==(const Hello&, const Hello&) = default;
};

struct Welcome {
  net::HostId host_id = net::kInvalidHost;
  std::uint32_t num_hosts = 0;
  friend bool operator==(const Welcome&, const Welcome&) = default;
};

struct ProbeRequest {
  std::uint32_t token = 0;
  net::HostId target_host = net::kInvalidHost;
  std::uint32_t target_ip = 0;  // IPv4, host byte order
  std::uint16_t target_port = 0;
  friend bool operator==(const ProbeRequest&, const ProbeRequest&) = default;
};

struct ProbeReply {
  std::uint32_t token = 0;
  net::HostId target_host = net::kInvalidHost;
  double rtt_seconds = 0.0;
  friend bool operator==(const ProbeReply&, const ProbeReply&) = default;
};

struct Ping {
  std::uint32_t token = 0;
  friend bool operator==(const Ping&, const Ping&) = default;
};

struct Pong {
  std::uint32_t token = 0;
  friend bool operator==(const Pong&, const Pong&) = default;
};

struct SetParent {
  std::uint32_t token = 0;
  net::HostId parent_host = net::kInvalidHost;  // kInvalidHost = detach
  std::uint32_t parent_ip = 0;
  std::uint16_t parent_port = 0;
  friend bool operator==(const SetParent&, const SetParent&) = default;
};

struct Adopt {
  std::uint32_t token = 0;
  net::HostId child_host = net::kInvalidHost;
  std::uint32_t child_ip = 0;
  std::uint16_t child_port = 0;
  friend bool operator==(const Adopt&, const Adopt&) = default;
};

struct DropChild {
  std::uint32_t token = 0;
  net::HostId child_host = net::kInvalidHost;
  friend bool operator==(const DropChild&, const DropChild&) = default;
};

struct Ack {
  std::uint32_t token = 0;
  friend bool operator==(const Ack&, const Ack&) = default;
};

struct Heartbeat {
  net::HostId from_host = net::kInvalidHost;
  std::uint32_t seq = 0;
  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

struct HeartbeatAck {
  std::uint32_t seq = 0;
  friend bool operator==(const HeartbeatAck&, const HeartbeatAck&) = default;
};

/// Chunk payloads are views into the frame they were decoded from (zero
/// copy); equality compares contents so round-trip tests stay EXPECT_EQ.
struct Chunk {
  std::uint32_t seq = 0;
  double emitted_at = 0.0;
  std::span<const std::byte> payload;
  friend bool operator==(const Chunk& a, const Chunk& b) {
    if (a.seq != b.seq || a.emitted_at != b.emitted_at) return false;
    if (a.payload.size() != b.payload.size()) return false;
    for (std::size_t i = 0; i < a.payload.size(); ++i) {
      if (a.payload[i] != b.payload[i]) return false;
    }
    return true;
  }
};

struct StatsRequest {
  std::uint32_t token = 0;
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

struct StatsReply {
  std::uint32_t token = 0;
  net::HostId host = net::kInvalidHost;
  std::uint64_t chunks_received = 0;
  std::uint64_t chunks_relayed = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t control_received = 0;
  friend bool operator==(const StatsReply&, const StatsReply&) = default;
};

struct Shutdown {
  std::uint32_t token = 0;
  friend bool operator==(const Shutdown&, const Shutdown&) = default;
};

/// One decoded (or to-be-encoded) message. Alternative order matches Type
/// numbering exactly; type_of() maps between them.
using Message =
    std::variant<Hello, Welcome, ProbeRequest, ProbeReply, Ping, Pong,
                 SetParent, Adopt, DropChild, Ack, Heartbeat, HeartbeatAck,
                 Chunk, StatsRequest, StatsReply, Shutdown>;

Type type_of(const Message& m);

// ------------------------------------------------------------ encode/decode

/// Why a frame was rejected. `offset` is the exact byte the decoder was
/// looking at; describe() renders a precise one-line diagnosis.
enum class DecodeStatus {
  kOk = 0,
  kTruncatedHeader,   // fewer than kHeaderBytes bytes
  kBadMagic,          // first two bytes are not kMagic
  kBadVersion,        // version byte != kVersion
  kBadType,           // type byte outside the catalogue
  kOversizedLength,   // header length field exceeds kMaxPayload
  kTruncatedPayload,  // header length field exceeds the bytes provided
  kTrailingBytes,     // frame longer than header + length
  kShortPayload,      // payload ends mid-field for this message type
  kExcessPayload,     // payload longer than this message type's fields
};

struct DecodeError {
  DecodeStatus status = DecodeStatus::kOk;
  std::size_t offset = 0;    // byte offset the decoder stopped at
  std::uint64_t expected = 0;  // meaning depends on status (see describe)
  std::uint64_t actual = 0;
  bool ok() const { return status == DecodeStatus::kOk; }
};

/// Renders "wire: truncated header at byte 3: need 6 header bytes, got 3".
/// Allocates; only ever called on the error path.
std::string describe(const DecodeError& err);

/// Encodes `m` into `out` (header + payload). Returns the number of bytes
/// written. Requires out.size() >= kMaxFrame-worth of room for the actual
/// message; throws util::InvariantError when the buffer is too small or a
/// chunk payload exceeds kMaxPayload. Never allocates.
std::size_t encode(const Message& m, std::span<std::byte> out);

/// Encoded size of `m` without writing it (header included).
std::size_t encoded_size(const Message& m);

/// Decodes one frame. On success fills `out` and returns an ok() error.
/// On failure `out` is unspecified and the returned error pinpoints the
/// offending byte. Never allocates.
DecodeError decode(std::span<const std::byte> frame, Message& out);

}  // namespace vdm::wire
