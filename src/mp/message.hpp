// Message envelope and payload types for the message-passing runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace pdc::mp {

/// Wildcard source rank for receives (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receives (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

/// Raw message bytes; the same type as the dist::wire codec buffers, so a
/// taken payload decodes in place.
using Payload = std::vector<std::uint8_t>;

/// Envelope carried with every payload. `context` isolates communicators
/// and separates collective traffic from user point-to-point traffic.
/// `trace` piggybacks the sender's causal metadata (Lamport time + flow
/// id, plus the request-trace context) so an obs::TraceCollector can
/// stitch send→recv across ranks; it is all-zero (and free) when no
/// collector is running.
struct Envelope {
  std::uint32_t context = 0;
  int source = 0;
  int tag = 0;
  obs::WireTrace trace;
};

/// Receive completion information (MPI_Status analogue).
struct RecvInfo {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;

  /// Element count given the receive's element type.
  template <typename T>
  [[nodiscard]] std::size_t count() const {
    return bytes / sizeof(T);
  }
};

/// Delivered message: envelope + payload bytes.
struct Message {
  Envelope envelope;
  Payload payload;

  [[nodiscard]] RecvInfo info() const {
    return RecvInfo{envelope.source, envelope.tag, payload.size()};
  }

  /// Copies the payload into `out`, which has room for `capacity`
  /// elements, and returns the element count. The payload must be whole
  /// elements and fit.
  template <typename T>
  std::size_t copy_to(T* out, std::size_t capacity) const {
    static_assert(std::is_trivially_copyable_v<T>);
    PDC_CHECK_MSG(payload.size() % sizeof(T) == 0,
                  "payload size not a multiple of the element size");
    PDC_CHECK_MSG(payload.size() <= capacity * sizeof(T),
                  "message larger than the receive buffer");
    // memcpy needs valid pointers even for zero bytes; an empty vector's
    // data() may be null.
    if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
    return payload.size() / sizeof(T);
  }

  /// The payload as one T; its size must be exactly sizeof(T).
  template <typename T>
  [[nodiscard]] T as() const {
    T value{};
    PDC_CHECK_MSG(copy_to(&value, 1) == 1,
                  "payload size does not match the value type");
    return value;
  }

  /// The payload as a vector of T, sized from the payload.
  template <typename T>
  [[nodiscard]] std::vector<T> as_vector() const {
    std::vector<T> values(payload.size() / sizeof(T));
    copy_to(values.data(), values.size());
    return values;
  }
};

}  // namespace pdc::mp
