#include "wire/wire.hpp"

#include <bit>
#include <cstring>

#include "util/require.hpp"

namespace vdm::wire {

namespace {

// Field-by-field little-endian writer/reader. Bounds are checked once per
// field; the reader records the exact offset of the first missing byte so
// decode errors can name it.

class Writer {
 public:
  explicit Writer(std::span<std::byte> out) : out_(out) {}

  void u8(std::uint8_t v) {
    VDM_REQUIRE_MSG(pos_ + 1 <= out_.size(), "wire encode buffer too small");
    out_[pos_++] = static_cast<std::byte>(v);
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::byte> b) {
    VDM_REQUIRE_MSG(pos_ + b.size() <= out_.size(),
                    "wire encode buffer too small");
    // An empty span may carry a null data pointer, which memcpy must never
    // see, even for a zero-byte copy.
    if (b.empty()) return;
    std::memcpy(out_.data() + pos_, b.data(), b.size());
    pos_ += b.size();
  }
  std::size_t pos() const { return pos_; }
  /// Patches the u16 length field at `at` after the payload is written.
  void patch_u16(std::size_t at, std::uint16_t v) {
    out_[at] = static_cast<std::byte>(v);
    out_[at + 1] = static_cast<std::byte>(v >> 8);
  }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  Reader(std::span<const std::byte> in, std::size_t start, std::size_t end)
      : in_(in), pos_(start), end_(end) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > end_) return fail();
    v = static_cast<std::uint8_t>(in_[pos_++]);
    return true;
  }
  bool u16(std::uint16_t& v) {
    std::uint8_t lo = 0, hi = 0;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (hi << 8));
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t lo = 0, hi = 0;
    if (!u16(lo) || !u16(hi)) return false;
    v = static_cast<std::uint32_t>(lo) |
        (static_cast<std::uint32_t>(hi) << 16);
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    if (!u32(lo) || !u32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  /// The rest of the payload as a view (chunk bodies).
  std::span<const std::byte> rest() {
    const std::span<const std::byte> r = in_.subspan(pos_, end_ - pos_);
    pos_ = end_;
    return r;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return end_ - pos_; }
  bool failed() const { return failed_; }

 private:
  bool fail() {
    failed_ = true;
    return false;
  }
  std::span<const std::byte> in_;
  std::size_t pos_;
  std::size_t end_;
  bool failed_ = false;
};

void encode_body(const Hello& m, Writer& w) { w.u16(m.listen_port); }
void encode_body(const Welcome& m, Writer& w) {
  w.u32(m.host_id);
  w.u32(m.num_hosts);
}
void encode_body(const ProbeRequest& m, Writer& w) {
  w.u32(m.token);
  w.u32(m.target_host);
  w.u32(m.target_ip);
  w.u16(m.target_port);
}
void encode_body(const ProbeReply& m, Writer& w) {
  w.u32(m.token);
  w.u32(m.target_host);
  w.f64(m.rtt_seconds);
}
void encode_body(const Ping& m, Writer& w) { w.u32(m.token); }
void encode_body(const Pong& m, Writer& w) { w.u32(m.token); }
void encode_body(const SetParent& m, Writer& w) {
  w.u32(m.token);
  w.u32(m.parent_host);
  w.u32(m.parent_ip);
  w.u16(m.parent_port);
}
void encode_body(const Adopt& m, Writer& w) {
  w.u32(m.token);
  w.u32(m.child_host);
  w.u32(m.child_ip);
  w.u16(m.child_port);
}
void encode_body(const DropChild& m, Writer& w) {
  w.u32(m.token);
  w.u32(m.child_host);
}
void encode_body(const Ack& m, Writer& w) { w.u32(m.token); }
void encode_body(const Heartbeat& m, Writer& w) {
  w.u32(m.from_host);
  w.u32(m.seq);
}
void encode_body(const HeartbeatAck& m, Writer& w) { w.u32(m.seq); }
void encode_body(const Chunk& m, Writer& w) {
  VDM_REQUIRE_MSG(m.payload.size() + 12 <= kMaxPayload,
                  "chunk payload exceeds kMaxPayload");
  w.u32(m.seq);
  w.f64(m.emitted_at);
  w.bytes(m.payload);
}
void encode_body(const StatsRequest& m, Writer& w) { w.u32(m.token); }
void encode_body(const StatsReply& m, Writer& w) {
  w.u32(m.token);
  w.u32(m.host);
  w.u64(m.chunks_received);
  w.u64(m.chunks_relayed);
  w.u64(m.heartbeats_sent);
  w.u64(m.control_received);
}
void encode_body(const Shutdown& m, Writer& w) { w.u32(m.token); }

template <typename M>
bool decode_body(M&, Reader&);

template <>
bool decode_body(Hello& m, Reader& r) { return r.u16(m.listen_port); }
template <>
bool decode_body(Welcome& m, Reader& r) {
  return r.u32(m.host_id) && r.u32(m.num_hosts);
}
template <>
bool decode_body(ProbeRequest& m, Reader& r) {
  return r.u32(m.token) && r.u32(m.target_host) && r.u32(m.target_ip) &&
         r.u16(m.target_port);
}
template <>
bool decode_body(ProbeReply& m, Reader& r) {
  return r.u32(m.token) && r.u32(m.target_host) && r.f64(m.rtt_seconds);
}
template <>
bool decode_body(Ping& m, Reader& r) { return r.u32(m.token); }
template <>
bool decode_body(Pong& m, Reader& r) { return r.u32(m.token); }
template <>
bool decode_body(SetParent& m, Reader& r) {
  return r.u32(m.token) && r.u32(m.parent_host) && r.u32(m.parent_ip) &&
         r.u16(m.parent_port);
}
template <>
bool decode_body(Adopt& m, Reader& r) {
  return r.u32(m.token) && r.u32(m.child_host) && r.u32(m.child_ip) &&
         r.u16(m.child_port);
}
template <>
bool decode_body(DropChild& m, Reader& r) {
  return r.u32(m.token) && r.u32(m.child_host);
}
template <>
bool decode_body(Ack& m, Reader& r) { return r.u32(m.token); }
template <>
bool decode_body(Heartbeat& m, Reader& r) {
  return r.u32(m.from_host) && r.u32(m.seq);
}
template <>
bool decode_body(HeartbeatAck& m, Reader& r) { return r.u32(m.seq); }
template <>
bool decode_body(Chunk& m, Reader& r) {
  if (!r.u32(m.seq) || !r.f64(m.emitted_at)) return false;
  m.payload = r.rest();
  return true;
}
template <>
bool decode_body(StatsRequest& m, Reader& r) { return r.u32(m.token); }
template <>
bool decode_body(StatsReply& m, Reader& r) {
  return r.u32(m.token) && r.u32(m.host) && r.u64(m.chunks_received) &&
         r.u64(m.chunks_relayed) && r.u64(m.heartbeats_sent) &&
         r.u64(m.control_received);
}
template <>
bool decode_body(Shutdown& m, Reader& r) { return r.u32(m.token); }

template <typename M>
DecodeError decode_as(std::span<const std::byte> frame, std::size_t payload_len,
                      Message& out) {
  Reader r(frame, kHeaderBytes, kHeaderBytes + payload_len);
  M m{};
  if (!decode_body(m, r)) {
    // The reader stopped at the first byte it could not fetch.
    return {DecodeStatus::kShortPayload, r.pos(), 0, payload_len};
  }
  if (r.remaining() > 0) {
    return {DecodeStatus::kExcessPayload, r.pos(), 0, r.remaining()};
  }
  out = std::move(m);
  return {};
}

}  // namespace

const char* type_name(Type t) {
  switch (t) {
    case Type::kHello: return "hello";
    case Type::kWelcome: return "welcome";
    case Type::kProbeRequest: return "probe-request";
    case Type::kProbeReply: return "probe-reply";
    case Type::kPing: return "ping";
    case Type::kPong: return "pong";
    case Type::kSetParent: return "set-parent";
    case Type::kAdopt: return "adopt";
    case Type::kDropChild: return "drop-child";
    case Type::kAck: return "ack";
    case Type::kHeartbeat: return "heartbeat";
    case Type::kHeartbeatAck: return "heartbeat-ack";
    case Type::kChunk: return "chunk";
    case Type::kStatsRequest: return "stats-request";
    case Type::kStatsReply: return "stats-reply";
    case Type::kShutdown: return "shutdown";
  }
  return "?";
}

Type type_of(const Message& m) {
  // Alternative order mirrors Type numbering (which starts at 1).
  return static_cast<Type>(m.index() + 1);
}

std::size_t encode(const Message& m, std::span<std::byte> out) {
  Writer w(out);
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type_of(m)));
  const std::size_t len_at = w.pos();
  w.u16(0);  // patched below
  std::visit([&w](const auto& body) { encode_body(body, w); }, m);
  const std::size_t payload = w.pos() - kHeaderBytes;
  VDM_REQUIRE_MSG(payload <= kMaxPayload, "wire payload exceeds kMaxPayload");
  w.patch_u16(len_at, static_cast<std::uint16_t>(payload));
  return w.pos();
}

std::size_t encoded_size(const Message& m) {
  // Small upper bound: messages are tiny, so sizing via a stack buffer costs
  // nothing and cannot drift from encode().
  std::byte buf[kMaxFrame];
  return encode(m, buf);
}

DecodeError decode(std::span<const std::byte> frame, Message& out) {
  if (frame.size() < kHeaderBytes) {
    return {DecodeStatus::kTruncatedHeader, frame.size(), kHeaderBytes,
            frame.size()};
  }
  Reader h(frame, 0, kHeaderBytes);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t length = 0;
  h.u16(magic);
  h.u8(version);
  h.u8(type);
  h.u16(length);
  if (magic != kMagic) return {DecodeStatus::kBadMagic, 0, kMagic, magic};
  if (version != kVersion) {
    return {DecodeStatus::kBadVersion, 2, kVersion, version};
  }
  if (type == 0 || type > kMaxType) {
    return {DecodeStatus::kBadType, 3, kMaxType, type};
  }
  if (length > kMaxPayload) {
    return {DecodeStatus::kOversizedLength, 4, kMaxPayload, length};
  }
  if (kHeaderBytes + length > frame.size()) {
    return {DecodeStatus::kTruncatedPayload, frame.size(),
            kHeaderBytes + length, frame.size()};
  }
  if (kHeaderBytes + length < frame.size()) {
    return {DecodeStatus::kTrailingBytes, kHeaderBytes + length,
            kHeaderBytes + length, frame.size()};
  }
  switch (static_cast<Type>(type)) {
    case Type::kHello: return decode_as<Hello>(frame, length, out);
    case Type::kWelcome: return decode_as<Welcome>(frame, length, out);
    case Type::kProbeRequest: return decode_as<ProbeRequest>(frame, length, out);
    case Type::kProbeReply: return decode_as<ProbeReply>(frame, length, out);
    case Type::kPing: return decode_as<Ping>(frame, length, out);
    case Type::kPong: return decode_as<Pong>(frame, length, out);
    case Type::kSetParent: return decode_as<SetParent>(frame, length, out);
    case Type::kAdopt: return decode_as<Adopt>(frame, length, out);
    case Type::kDropChild: return decode_as<DropChild>(frame, length, out);
    case Type::kAck: return decode_as<Ack>(frame, length, out);
    case Type::kHeartbeat: return decode_as<Heartbeat>(frame, length, out);
    case Type::kHeartbeatAck: return decode_as<HeartbeatAck>(frame, length, out);
    case Type::kChunk: return decode_as<Chunk>(frame, length, out);
    case Type::kStatsRequest: return decode_as<StatsRequest>(frame, length, out);
    case Type::kStatsReply: return decode_as<StatsReply>(frame, length, out);
    case Type::kShutdown: return decode_as<Shutdown>(frame, length, out);
  }
  return {DecodeStatus::kBadType, 3, kMaxType, type};
}

std::string describe(const DecodeError& err) {
  switch (err.status) {
    case DecodeStatus::kOk:
      return "wire: ok";
    case DecodeStatus::kTruncatedHeader:
      return "wire: truncated header at byte " + std::to_string(err.offset) +
             ": need " + std::to_string(err.expected) + " header bytes, got " +
             std::to_string(err.actual);
    case DecodeStatus::kBadMagic:
      return "wire: bad magic at byte 0: expected 0x" +
             std::to_string(err.expected) + ", got " +
             std::to_string(err.actual);
    case DecodeStatus::kBadVersion:
      return "wire: unsupported version at byte 2: expected " +
             std::to_string(err.expected) + ", got " +
             std::to_string(err.actual);
    case DecodeStatus::kBadType:
      return "wire: unknown message type at byte 3: got " +
             std::to_string(err.actual) + " (max " +
             std::to_string(err.expected) + ")";
    case DecodeStatus::kOversizedLength:
      return "wire: oversized length field at byte 4: " +
             std::to_string(err.actual) + " exceeds max payload " +
             std::to_string(err.expected);
    case DecodeStatus::kTruncatedPayload:
      return "wire: truncated payload at byte " + std::to_string(err.offset) +
             ": header promises " + std::to_string(err.expected) +
             " total bytes, frame has " + std::to_string(err.actual);
    case DecodeStatus::kTrailingBytes:
      return "wire: trailing bytes at byte " + std::to_string(err.offset) +
             ": frame has " + std::to_string(err.actual) +
             " bytes, message ends at " + std::to_string(err.expected);
    case DecodeStatus::kShortPayload:
      return "wire: payload ends mid-field at byte " +
             std::to_string(err.offset) + " (declared payload " +
             std::to_string(err.actual) + " bytes)";
    case DecodeStatus::kExcessPayload:
      return "wire: " + std::to_string(err.actual) +
             " excess payload bytes at byte " + std::to_string(err.offset);
  }
  return "wire: ?";
}

}  // namespace vdm::wire
