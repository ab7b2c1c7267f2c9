#include "net/framing.hpp"

#include "net/checksum.hpp"
#include "support/check.hpp"

namespace pdc::net {

using support::Status;
using support::StatusCode;

namespace {

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xff));
  out.push_back(static_cast<std::byte>(v >> 8));
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(const Bytes& in, std::size_t at) {
  return static_cast<std::uint16_t>(static_cast<unsigned>(in[at]) |
                                    (static_cast<unsigned>(in[at + 1]) << 8));
}

std::uint32_t get_u32(const Bytes& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64(const Bytes& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

}  // namespace

void MessageCodec::encode_message(const Bytes& payload, Bytes& wire,
                                  obs::SpanContext trace) {
  PDC_CHECK_MSG(payload.size() <= kMaxMessage, "message exceeds kMaxMessage");
  const bool traced = trace.valid();
  wire.reserve(wire.size() + kHeaderBytes +
               (traced ? kTraceHeaderBytes : 0) + payload.size());
  put_u32(wire, static_cast<std::uint32_t>(payload.size()) |
                    (traced ? kTraceFlag : 0));
  put_u16(wire, fletcher16(payload));
  if (traced) {
    put_u64(wire, trace.trace_id);
    put_u64(wire, trace.span_id);
  }
  wire.insert(wire.end(), payload.begin(), payload.end());
}

Status MessageCodec::send_message(StreamSocket& socket, const Bytes& payload,
                                  obs::SpanContext trace) {
  Bytes wire;
  encode_message(payload, wire, trace);
  return socket.send(wire);
}

namespace {

MessageCodec::Scan scan_core(const Bytes& buffer, std::size_t& offset,
                             BytesView& out, obs::SpanContext* trace) {
  using Scan = MessageCodec::Scan;
  const std::size_t avail = buffer.size() - offset;
  if (avail < MessageCodec::kHeaderBytes) return Scan::kNeedMore;
  const std::uint32_t word = get_u32(buffer, offset);
  const bool traced = (word & MessageCodec::kTraceFlag) != 0;
  const std::uint32_t length = word & ~MessageCodec::kTraceFlag;
  if (length > MessageCodec::kMaxMessage) return Scan::kCorrupt;
  const std::size_t header =
      MessageCodec::kHeaderBytes +
      (traced ? MessageCodec::kTraceHeaderBytes : 0);
  if (avail < header + length) return Scan::kNeedMore;
  const std::uint16_t checksum = get_u16(buffer, offset + 4);
  const std::byte* payload = buffer.data() + offset + header;
  if (fletcher16(payload, length) != checksum) return Scan::kCorrupt;
  if (trace != nullptr) {
    *trace = obs::SpanContext{};
    if (traced) {
      trace->trace_id = get_u64(buffer, offset + MessageCodec::kHeaderBytes);
      trace->span_id = get_u64(buffer, offset + MessageCodec::kHeaderBytes + 8);
    }
  }
  out = BytesView{payload, length};
  offset += header + length;
  return Scan::kFrame;
}

}  // namespace

MessageCodec::Scan MessageCodec::scan_message(const Bytes& buffer,
                                              std::size_t& offset,
                                              BytesView& out) {
  return scan_core(buffer, offset, out, nullptr);
}

MessageCodec::Scan MessageCodec::scan_message(const Bytes& buffer,
                                              std::size_t& offset,
                                              BytesView& out,
                                              obs::SpanContext& trace) {
  return scan_core(buffer, offset, out, &trace);
}

support::Result<Bytes> MessageCodec::recv_message(StreamSocket& socket) {
  auto header = socket.recv_exact(kHeaderBytes);
  if (!header.is_ok()) return header.status();
  const std::uint32_t word = get_u32(header.value(), 0);
  const std::uint32_t length = word & ~kTraceFlag;
  const std::uint16_t checksum = get_u16(header.value(), 4);
  if (length > kMaxMessage) {
    return Status{StatusCode::kAborted, "frame length implausible"};
  }
  if ((word & kTraceFlag) != 0) {
    auto extra = socket.recv_exact(kTraceHeaderBytes);
    if (!extra.is_ok()) return extra.status();
  }
  auto payload = socket.recv_exact(length);
  if (!payload.is_ok()) return payload.status();
  if (fletcher16(payload.value()) != checksum) {
    return Status{StatusCode::kAborted, "checksum mismatch"};
  }
  return payload;
}

Bytes Frame::encode() const {
  Bytes wire;
  wire.push_back(static_cast<std::byte>(type));
  wire.push_back(static_cast<std::byte>(final ? 1 : 0));
  put_u32(wire, seq);
  put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  put_u16(wire, fletcher16(wire));
  return wire;
}

std::optional<Frame> Frame::decode(const Bytes& wire) {
  constexpr std::size_t kHeader = 1 + 1 + 4 + 4;
  if (wire.size() < kHeader + 2) return std::nullopt;
  const std::uint16_t stored = get_u16(wire, wire.size() - 2);
  Bytes body(wire.begin(), wire.end() - 2);
  if (fletcher16(body) != stored) return std::nullopt;

  Frame frame;
  const auto type_raw = static_cast<std::uint8_t>(wire[0]);
  if (type_raw != static_cast<std::uint8_t>(Type::kData) &&
      type_raw != static_cast<std::uint8_t>(Type::kAck)) {
    return std::nullopt;
  }
  frame.type = static_cast<Type>(type_raw);
  frame.final = wire[1] == std::byte{1};
  frame.seq = get_u32(wire, 2);
  const std::uint32_t length = get_u32(wire, 6);
  if (wire.size() != kHeader + length + 2) return std::nullopt;
  frame.payload.assign(wire.begin() + kHeader, wire.end() - 2);
  return frame;
}

}  // namespace pdc::net
