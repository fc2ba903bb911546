// Round-trip and rejection tests of the wire codec (DESIGN.md §14): every
// message type must survive encode -> decode EXPECT_EQ-exact, and every way
// a frame can be malformed must be rejected with a line-precise error.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "util/require.hpp"
#include "wire/wire.hpp"

namespace vdm::wire {
namespace {

std::vector<std::byte> encode_to_vec(const Message& m) {
  std::vector<std::byte> buf(kMaxFrame);
  const std::size_t n = encode(m, buf);
  EXPECT_EQ(n, encoded_size(m)) << type_name(type_of(m));
  buf.resize(n);
  return buf;
}

void expect_round_trip(const Message& m) {
  const std::vector<std::byte> frame = encode_to_vec(m);
  // Header sanity: magic, version, type, length all as documented.
  ASSERT_GE(frame.size(), kHeaderBytes);
  EXPECT_EQ(std::to_integer<unsigned>(frame[0]), kMagic & 0xffu);
  EXPECT_EQ(std::to_integer<unsigned>(frame[1]), kMagic >> 8);
  EXPECT_EQ(std::to_integer<unsigned>(frame[2]), kVersion);
  EXPECT_EQ(std::to_integer<unsigned>(frame[3]),
            static_cast<unsigned>(type_of(m)));
  const std::size_t length = std::to_integer<std::size_t>(frame[4]) |
                             (std::to_integer<std::size_t>(frame[5]) << 8);
  EXPECT_EQ(length, frame.size() - kHeaderBytes);

  Message out;
  const DecodeError err = decode(frame, out);
  ASSERT_TRUE(err.ok()) << describe(err) << " for " << type_name(type_of(m));
  EXPECT_EQ(out, m) << "round trip mutated a " << type_name(type_of(m));
}

const std::array<std::byte, 5> kChunkBody = {
    std::byte{0xde}, std::byte{0xad}, std::byte{0xbe}, std::byte{0xef},
    std::byte{0x42}};

/// One fully-populated exemplar of every message type, every field set to a
/// value that would expose a swapped/omitted/truncated field.
std::vector<Message> all_messages() {
  std::vector<Message> all;
  all.push_back(Hello{.listen_port = 45123});
  all.push_back(Welcome{.host_id = 17, .num_hosts = 33});
  all.push_back(ProbeRequest{.token = 0xdeadbeef,
                             .target_host = 9,
                             .target_ip = 0x7f000001,
                             .target_port = 60001});
  all.push_back(
      ProbeReply{.token = 7, .target_host = 9, .rtt_seconds = 0.0123456789});
  all.push_back(Ping{.token = 0xffffffff});
  all.push_back(Pong{.token = 1});
  all.push_back(SetParent{.token = 55,
                          .parent_host = 2,
                          .parent_ip = 0x7f000001,
                          .parent_port = 40000});
  all.push_back(Adopt{.token = 56,
                      .child_host = 21,
                      .child_ip = 0x7f000001,
                      .child_port = 40001});
  all.push_back(DropChild{.token = 57, .child_host = 21});
  all.push_back(Ack{.token = 57});
  all.push_back(Heartbeat{.from_host = 8, .seq = 1024});
  all.push_back(HeartbeatAck{.seq = 1024});
  all.push_back(
      Chunk{.seq = 99, .emitted_at = 12.5, .payload = kChunkBody});
  all.push_back(StatsRequest{.token = 77});
  all.push_back(StatsReply{.token = 77,
                           .host = 4,
                           .chunks_received = 100000,
                           .chunks_relayed = 0x1234567890abcdefULL,
                           .heartbeats_sent = 42,
                           .control_received = 7});
  all.push_back(Shutdown{.token = 88});
  return all;
}

TEST(Wire, CatalogueCoversEveryType) {
  const std::vector<Message> all = all_messages();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kMaxType));
  ASSERT_EQ(all.size(), std::variant_size_v<Message>);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(type_of(all[i])), i + 1)
        << "variant order diverges from Type numbering at " << i;
  }
}

TEST(Wire, RoundTripEveryMessageType) {
  for (const Message& m : all_messages()) expect_round_trip(m);
}

TEST(Wire, RoundTripDefaultConstructedMessages) {
  // All-zero / kInvalidHost fields are legal on the wire (e.g. SetParent's
  // detach form) and must survive too.
  expect_round_trip(Hello{});
  expect_round_trip(SetParent{});
  expect_round_trip(Chunk{});
}

TEST(Wire, RoundTripDoubleBitPatterns) {
  // Doubles travel as IEEE-754 bits: denormals, negatives and exact binary
  // fractions must come back bit-identical, not printf-identical.
  for (const double rtt : {0.0, -0.0, 1e-308, 0.1, 0.062499999999999993}) {
    expect_round_trip(ProbeReply{.token = 1, .target_host = 2, .rtt_seconds = rtt});
  }
}

TEST(Wire, RoundTripMaxPayloadChunk) {
  // Chunk fields (seq + emitted_at) take 12 bytes; the body may fill the
  // remaining payload budget exactly.
  std::vector<std::byte> body(kMaxPayload - 12, std::byte{0xab});
  expect_round_trip(Chunk{.seq = 1, .emitted_at = 2.0, .payload = body});
}

TEST(Wire, OversizedChunkThrows) {
  std::vector<std::byte> body(kMaxPayload, std::byte{0xab});
  std::vector<std::byte> out(2 * kMaxFrame);
  EXPECT_THROW(
      encode(Chunk{.seq = 1, .emitted_at = 2.0, .payload = body}, out),
      util::InvariantError);
}

TEST(Wire, EncodeIntoTightBuffer) {
  // encode() must work with exactly encoded_size() bytes of room and REQUIRE
  // on one byte less.
  const Message m = Heartbeat{.from_host = 3, .seq = 9};
  std::vector<std::byte> tight(encoded_size(m));
  EXPECT_EQ(encode(m, tight), tight.size());
  std::vector<std::byte> short_buf(encoded_size(m) - 1);
  EXPECT_THROW(encode(m, short_buf), util::InvariantError);
}

// ------------------------------------------------------- malformed frames

TEST(Wire, RejectsTruncatedHeader) {
  const std::vector<std::byte> frame = encode_to_vec(Ack{.token = 1});
  for (std::size_t keep = 0; keep < kHeaderBytes; ++keep) {
    Message out;
    const DecodeError err =
        decode(std::span<const std::byte>(frame.data(), keep), out);
    EXPECT_EQ(err.status, DecodeStatus::kTruncatedHeader) << keep;
    EXPECT_EQ(err.offset, keep);
    EXPECT_EQ(err.expected, kHeaderBytes);
    EXPECT_EQ(err.actual, keep);
  }
  Message out;
  const DecodeError err = decode(std::span<const std::byte>(frame.data(), 3), out);
  EXPECT_EQ(describe(err),
            "wire: truncated header at byte 3: need 6 header bytes, got 3");
}

TEST(Wire, RejectsBadMagic) {
  std::vector<std::byte> frame = encode_to_vec(Ack{.token = 1});
  frame[0] = std::byte{0x00};
  Message out;
  const DecodeError err = decode(frame, out);
  EXPECT_EQ(err.status, DecodeStatus::kBadMagic);
  EXPECT_EQ(err.offset, 0u);
  EXPECT_EQ(err.expected, kMagic);
}

TEST(Wire, RejectsBadVersion) {
  std::vector<std::byte> frame = encode_to_vec(Ack{.token = 1});
  frame[2] = std::byte{9};
  Message out;
  const DecodeError err = decode(frame, out);
  EXPECT_EQ(err.status, DecodeStatus::kBadVersion);
  EXPECT_EQ(err.offset, 2u);
  EXPECT_EQ(err.expected, kVersion);
  EXPECT_EQ(err.actual, 9u);
  EXPECT_EQ(describe(err), "wire: unsupported version at byte 2: expected 2, got 9");
}

TEST(Wire, RejectsBadType) {
  std::vector<std::byte> frame = encode_to_vec(Ack{.token = 1});
  for (const unsigned bad : {0u, static_cast<unsigned>(kMaxType) + 1, 255u}) {
    frame[3] = static_cast<std::byte>(bad);
    Message out;
    const DecodeError err = decode(frame, out);
    EXPECT_EQ(err.status, DecodeStatus::kBadType) << bad;
    EXPECT_EQ(err.offset, 3u);
    EXPECT_EQ(err.actual, bad);
  }
}

TEST(Wire, RejectsOversizedLength) {
  std::vector<std::byte> frame = encode_to_vec(Ack{.token = 1});
  // Patch the length field to kMaxPayload + 1 (little-endian).
  const std::size_t huge = kMaxPayload + 1;
  frame[4] = static_cast<std::byte>(huge & 0xff);
  frame[5] = static_cast<std::byte>(huge >> 8);
  Message out;
  const DecodeError err = decode(frame, out);
  EXPECT_EQ(err.status, DecodeStatus::kOversizedLength);
  EXPECT_EQ(err.offset, 4u);
  EXPECT_EQ(err.actual, huge);
  EXPECT_EQ(describe(err),
            "wire: oversized length field at byte 4: 1401 exceeds max payload 1400");
}

TEST(Wire, RejectsTruncatedPayload) {
  const std::vector<std::byte> frame =
      encode_to_vec(StatsReply{.token = 1, .host = 2});
  Message out;
  const DecodeError err = decode(
      std::span<const std::byte>(frame.data(), frame.size() - 1), out);
  EXPECT_EQ(err.status, DecodeStatus::kTruncatedPayload);
  EXPECT_EQ(err.expected, frame.size());
  EXPECT_EQ(err.actual, frame.size() - 1);
}

TEST(Wire, RejectsTrailingBytes) {
  std::vector<std::byte> frame = encode_to_vec(Ping{.token = 3});
  frame.push_back(std::byte{0x00});
  Message out;
  const DecodeError err = decode(frame, out);
  EXPECT_EQ(err.status, DecodeStatus::kTrailingBytes);
  EXPECT_EQ(err.offset, frame.size() - 1);
  EXPECT_EQ(err.actual, frame.size());
  EXPECT_EQ(err.expected, frame.size() - 1);
}

TEST(Wire, RejectsShortPayloadForType) {
  // A Welcome whose header claims only 4 payload bytes: the second field
  // is missing, which the per-type decoder must flag (not silently zero).
  std::vector<std::byte> frame = encode_to_vec(Welcome{.host_id = 1, .num_hosts = 2});
  frame.resize(kHeaderBytes + 4);
  frame[4] = std::byte{4};
  frame[5] = std::byte{0};
  Message out;
  const DecodeError err = decode(frame, out);
  EXPECT_EQ(err.status, DecodeStatus::kShortPayload);
  EXPECT_EQ(err.offset, kHeaderBytes + 4);
}

TEST(Wire, RejectsExcessPayloadForType) {
  // An Ack padded with 2 extra declared payload bytes: length field and
  // frame agree, but the Ack decoder knows its exact size.
  std::vector<std::byte> frame = encode_to_vec(Ack{.token = 5});
  frame.push_back(std::byte{0x00});
  frame.push_back(std::byte{0x00});
  const std::size_t payload = frame.size() - kHeaderBytes;
  frame[4] = static_cast<std::byte>(payload & 0xff);
  frame[5] = static_cast<std::byte>(payload >> 8);
  Message out;
  const DecodeError err = decode(frame, out);
  EXPECT_EQ(err.status, DecodeStatus::kExcessPayload);
  EXPECT_EQ(err.actual, 2u);
}

TEST(Wire, RejectsEveryTruncationOfEveryType) {
  // Exhaustive: every proper prefix of every encoded message must be
  // rejected (never accepted, never crash), and the error must carry a
  // sensible offset within the frame.
  for (const Message& m : all_messages()) {
    const std::vector<std::byte> frame = encode_to_vec(m);
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
      Message out;
      const DecodeError err =
          decode(std::span<const std::byte>(frame.data(), keep), out);
      EXPECT_FALSE(err.ok())
          << type_name(type_of(m)) << " accepted a " << keep << "-byte prefix";
      EXPECT_LE(err.offset, frame.size()) << type_name(type_of(m));
    }
  }
}

TEST(Wire, ChunkPayloadIsViewIntoFrame) {
  const std::vector<std::byte> frame =
      encode_to_vec(Chunk{.seq = 1, .emitted_at = 0.5, .payload = kChunkBody});
  Message out;
  ASSERT_TRUE(decode(frame, out).ok());
  const Chunk& chunk = std::get<Chunk>(out);
  ASSERT_EQ(chunk.payload.size(), kChunkBody.size());
  // Zero copy: the decoded span points into the input buffer.
  EXPECT_GE(chunk.payload.data(), frame.data());
  EXPECT_LT(chunk.payload.data(), frame.data() + frame.size());
}

TEST(Wire, TypeNamesAreStable) {
  EXPECT_STREQ(type_name(Type::kHello), "hello");
  EXPECT_STREQ(type_name(Type::kChunk), "chunk");
  EXPECT_STREQ(type_name(Type::kShutdown), "shutdown");
}

}  // namespace
}  // namespace vdm::wire
