// Message framing over byte streams, and the datagram frame format used by
// the ARQ protocols.
//
// "Application protocol design" in the RIT course starts here: a byte
// stream has no message boundaries, so applications add them. The stream
// codec is length-prefix + Fletcher checksum; the datagram frame adds the
// type/sequence header ARQ needs.
#pragma once

#include <cstdint>
#include <optional>

#include "net/address.hpp"
#include "net/network.hpp"
#include "obs/span.hpp"
#include "support/status.hpp"

namespace pdc::net {

/// Non-owning view of a message payload parsed in place inside a
/// connection's receive buffer (zero-copy framing). Valid only until the
/// buffer is next mutated — consume or copy before draining again.
struct BytesView {
  const std::byte* data = nullptr;
  std::size_t size = 0;

  [[nodiscard]] Bytes to_owned() const { return Bytes(data, data + size); }
};

/// Length-prefixed, checksummed message framing over a StreamSocket.
///
/// Wire format: u32 length (LE) | u16 fletcher16 | payload. The length
/// word's top bit (kTraceFlag — kMaxMessage leaves it free) marks a
/// traced frame, which carries a 16-byte trace header (u64 trace id |
/// u64 span id, LE) between the fixed header and the payload. Untraced
/// frames are byte-identical to the pre-tracing format: tracing off
/// costs zero wire bytes and one mask on parse.
class MessageCodec {
 public:
  static constexpr std::size_t kMaxMessage = 16 * 1024 * 1024;
  static constexpr std::size_t kHeaderBytes = 6;
  static constexpr std::uint32_t kTraceFlag = 0x8000'0000u;
  static constexpr std::size_t kTraceHeaderBytes = 16;

  /// Sends one framed message (header and payload in one buffer — one
  /// socket send, one fabric event), embedding `trace` when valid.
  static support::Status send_message(StreamSocket& socket,
                                      const Bytes& payload,
                                      obs::SpanContext trace = {});

  /// Appends the full wire frame (header + payload) for `payload` to
  /// `wire`, with `trace` in the header when valid (an invalid context
  /// writes the plain frame). Lets callers batch several frames into one
  /// send.
  static void encode_message(const Bytes& payload, Bytes& wire,
                             obs::SpanContext trace = {});

  /// Receives one framed message (the client side; servers parse in place
  /// with scan_message); kAborted on checksum mismatch, kClosed when the
  /// peer closed cleanly between messages. A traced frame's context is
  /// skipped.
  static support::Result<Bytes> recv_message(StreamSocket& socket);

  enum class Scan {
    kFrame,     // a complete frame was parsed; `out` points into `buffer`
    kNeedMore,  // the buffer holds only a partial frame
    kCorrupt,   // implausible length or checksum mismatch — poison the stream
  };

  /// Zero-copy parse of the next frame at `offset` in a receive buffer:
  /// on kFrame, `out` views the payload *in place* and `offset` advances
  /// past the frame. The view dies with the next mutation of `buffer`.
  /// A traced frame's header is skipped (context discarded).
  static Scan scan_message(const Bytes& buffer, std::size_t& offset,
                           BytesView& out);

  /// Trace-aware scan: on kFrame, `trace` holds the frame's context
  /// (zeroed for untraced frames).
  static Scan scan_message(const Bytes& buffer, std::size_t& offset,
                           BytesView& out, obs::SpanContext& trace);
};

/// Datagram frame used by the ARQ implementations.
struct Frame {
  enum class Type : std::uint8_t { kData = 1, kAck = 2 };

  Type type = Type::kData;
  std::uint32_t seq = 0;
  bool final = false;  // last data frame of the transfer
  Bytes payload;

  /// Serializes with a trailing Fletcher-16 over everything.
  [[nodiscard]] Bytes encode() const;

  /// Parses; nullopt on truncation or checksum failure.
  static std::optional<Frame> decode(const Bytes& wire);
};

}  // namespace pdc::net
