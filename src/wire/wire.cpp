#include "wire/wire.hpp"

#include <bit>
#include <concepts>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

#include "util/require.hpp"

namespace vdm::wire {

namespace {

// A message's fields, in declaration order, are its payload: each integer
// little-endian in its own width, a double as its IEEE-754 bits in a u64,
// and a byte span as the rest of the payload. Encode and decode both walk
// the fields through each_field, so the two cannot disagree.

/// Converts to any field type, so `M{AnyField{}, ...}` compiles for as
/// many initializers as the aggregate M has fields, and no more.
struct AnyField {
  template <typename T>
  operator T() const;  // declared only: named in unevaluated operands
};

template <typename M, typename... Counted>
constexpr std::size_t field_count() {
  if constexpr (requires { M{Counted{}..., AnyField{}}; }) {
    return field_count<M, Counted..., AnyField>();
  } else {
    return sizeof...(Counted);
  }
}

/// Calls `f` on each field of `m` in declaration order until one returns
/// false; true when none did.
template <typename M, typename F>
bool each_field(M& m, F&& f) {
  constexpr std::size_t n = field_count<std::remove_const_t<M>>();
  if constexpr (n == 1) {
    auto& [a] = m;
    return f(a);
  } else if constexpr (n == 2) {
    auto& [a, b] = m;
    return f(a) && f(b);
  } else if constexpr (n == 3) {
    auto& [a, b, c] = m;
    return f(a) && f(b) && f(c);
  } else if constexpr (n == 4) {
    auto& [a, b, c, d] = m;
    return f(a) && f(b) && f(c) && f(d);
  } else {
    static_assert(n == 6, "each_field takes messages of 1 to 4 or 6 fields");
    auto& [a, b, c, d, e, g] = m;
    return f(a) && f(b) && f(c) && f(d) && f(e) && f(g);
  }
}

// Field writer and reader. The writer checks room once per field; the
// reader goes byte by byte and stops at the first missing one, so a decode
// error names its exact offset.

class Writer {
 public:
  explicit Writer(std::span<std::byte> out) : out_(out) {}

  template <std::unsigned_integral T>
  void put(T v) {
    VDM_REQUIRE_MSG(pos_ + sizeof(T) <= out_.size(), "wire encode buffer too small");
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_[pos_++] = static_cast<std::byte>(v >> (8 * i));
    }
  }
  void put(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put(std::span<const std::byte> b) {
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

  template <std::unsigned_integral T>
  bool get(T& v) {
    v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      if (pos_ == end_) return false;
      v |= static_cast<T>(std::to_integer<T>(in_[pos_++]) << (8 * i));
    }
    return true;
  }
  bool get(double& v) {
    std::uint64_t bits = 0;
    if (!get(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  /// The rest of the payload, as a view into the frame.
  bool get(std::span<const std::byte>& v) {
    v = in_.subspan(pos_, end_ - pos_);
    pos_ = end_;
    return true;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return end_ - pos_; }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_;
  std::size_t end_;
};

template <typename M>
DecodeError decode_as(std::span<const std::byte> frame, std::size_t payload_len,
                      Message& out) {
  Reader r(frame, kHeaderBytes, kHeaderBytes + payload_len);
  M m{};
  if (!each_field(m, [&r](auto& field) { return r.get(field); })) {
    // The reader stopped at the first byte it could not fetch.
    return {DecodeStatus::kShortPayload, r.pos(), 0, payload_len};
  }
  if (r.remaining() > 0) {
    return {DecodeStatus::kExcessPayload, r.pos(), 0, r.remaining()};
  }
  out = std::move(m);
  return {};
}

/// decode_as for the alternative at index `i` (type byte `i` + 1).
template <std::size_t... I>
DecodeError decode_alternative(std::size_t i, std::span<const std::byte> frame,
                               std::size_t payload_len, Message& out,
                               std::index_sequence<I...>) {
  using Decoder = DecodeError (*)(std::span<const std::byte>, std::size_t, Message&);
  static constexpr Decoder kDecoders[] = {
      &decode_as<std::variant_alternative_t<I, Message>>...};
  return kDecoders[i](frame, payload_len, out);
}

/// In Type order.
constexpr const char* kTypeNames[] = {
    "hello", "welcome", "probe-request", "probe-reply", "ping", "pong",
    "set-parent", "adopt", "drop-child", "ack", "heartbeat", "heartbeat-ack",
    "chunk", "stats-request", "stats-reply", "shutdown"};
static_assert(std::size(kTypeNames) == kMaxType);

}  // namespace

const char* type_name(Type t) {
  const auto i = static_cast<std::size_t>(t);
  return i >= 1 && i <= kMaxType ? kTypeNames[i - 1] : "?";
}

Type type_of(const Message& m) {
  // Alternative order mirrors Type numbering (which starts at 1).
  return static_cast<Type>(m.index() + 1);
}

std::size_t encode(const Message& m, std::span<std::byte> out) {
  Writer w(out);
  w.put(kMagic);
  w.put(kVersion);
  w.put(static_cast<std::uint8_t>(type_of(m)));
  const std::size_t len_at = w.pos();
  w.put(std::uint16_t{0});  // patched below
  std::visit(
      [&w](const auto& body) {
        each_field(body, [&w](const auto& field) {
          w.put(field);
          return true;
        });
      },
      m);
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
  h.get(magic);
  h.get(version);
  h.get(type);
  h.get(length);
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
  return decode_alternative(type - 1U, frame, length, out,
                            std::make_index_sequence<std::variant_size_v<Message>>{});
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
