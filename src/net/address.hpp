// Addressing types for the simulated network.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pdc::net {

using Bytes = std::vector<std::byte>;

/// (host, port) endpoint in a simulated network.
struct Address {
  int host = 0;
  std::uint16_t port = 0;

  auto operator<=>(const Address&) const = default;

  [[nodiscard]] std::string to_string() const {
    return "host" + std::to_string(host) + ":" + std::to_string(port);
  }
};

/// A delivered datagram. `trace` carries the sender's causal metadata
/// (Lamport time + flow id, plus the request-trace context) for obs trace
/// stitching; all-zero when no collector is running.
struct Datagram {
  Address from;
  Bytes payload;
  obs::WireTrace trace;
};

/// Bytes <-> string helpers (application payloads are often text).
inline Bytes to_bytes(const std::string& s) {
  Bytes b(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) b[i] = static_cast<std::byte>(s[i]);
  return b;
}

inline std::string to_string(const Bytes& b) {
  std::string s(b.size(), '\0');
  for (std::size_t i = 0; i < b.size(); ++i) s[i] = static_cast<char>(b[i]);
  return s;
}

}  // namespace pdc::net
