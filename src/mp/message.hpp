// Message envelope and payload types for the message-passing runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hpp"

namespace pdc::mp {

/// Wildcard source rank for receives (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receives (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

using Payload = std::vector<std::byte>;

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

/// Delivered message: envelope + payload bytes.
struct Message {
  Envelope envelope;
  Payload payload;
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

}  // namespace pdc::mp
