// Open-loop load generator for the simulated fabric.
//
// "Capacity, tail latency and load balancing" are the under-taught
// performance topics PAPERS.md calls out; a server model cannot teach them
// without a workload that stresses it honestly. LoadGen is *open-loop*:
// every request has a scheduled arrival time drawn from a configurable
// arrival curve, and it is sent at that time whether or not earlier
// requests were answered. Latency is measured from the SCHEDULED time, so
// a server that stalls accrues the queueing delay in its tail percentiles
// instead of silently slowing the generator down (the coordinated-omission
// trap of closed-loop harnesses).
//
// Scale: connections are opened with Network::connect_async (no per-
// connection round-trip wait), partitioned across driver threads, and each
// driver multiplexes its partition over one ReadySet — the same readiness
// machinery the event-driven server uses — so 10^5..10^6 concurrent
// connections cost two threads, not two hundred thousand.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/address.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace pdc::net {

/// Shape of the request-arrival rate over the run window.
enum class ArrivalCurve {
  kConstant,        // flat rate
  kDiurnal,         // 1 + amplitude * sin(2*pi*x): a day compressed into the window
  kBurst,           // flat baseline with periodic high-rate windows
  kThunderingHerd,  // near-zero baseline; the load arrives in instantaneous spikes
};

struct LoadGenConfig {
  std::size_t connections = 10'000;
  std::size_t requests = 100'000;    // total, spread over the window
  double duration_s = 1.0;           // arrival window length
  ArrivalCurve curve = ArrivalCurve::kConstant;
  double diurnal_amplitude = 0.8;    // kDiurnal rate swing fraction
  int bursts = 4;                    // kBurst: number of high-rate windows
  double burst_height = 8.0;         // kBurst: in-window rate multiplier
  int herds = 2;                     // kThunderingHerd: number of spikes
  std::size_t payload_bytes = 16;
  std::size_t drivers = 2;           // generator threads
  int first_client_host = 1;         // client hosts [first, first + hosts)
  int client_hosts = 1;
  double grace_s = 5.0;              // extra wait for stragglers after the window
  std::uint64_t seed = 0x10ad;       // payload content

  /// Request tracing: mint a root span per request (trace id = request
  /// sequence + 1, backdated to the SCHEDULED send time so queueing is
  /// attributed, with a client.queue child covering schedule -> send) and
  /// embed the context in the frame header. No-op unless a SpanCollector
  /// is running.
  bool trace = false;

  /// Leader routing: before the storm, probe the cluster and follow
  /// redirects until a node claims leadership, then aim every connection
  /// at it. Requires probe_request + redirect_of.
  bool route_to_leader = false;
  std::vector<Address> cluster;      // candidate targets (first is probed first);
                                     // empty = start from the ctor target
  std::size_t max_redirect_hops = 8;
  /// Builds the discovery probe (e.g. "LEADER?" in traced_kv's protocol).
  std::function<Bytes()> probe_request;
  /// Parses a probe reply: an Address to re-probe, nullopt when the
  /// replying node is the leader.
  std::function<std::optional<Address>(const Bytes& reply)> redirect_of;

  /// Per-request payload builder (by global request sequence). Unset =
  /// one seeded constant payload, encoded once and reused (the perf
  /// fast path).
  std::function<Bytes(std::uint64_t seq)> request_of;
};

struct LoadGenReport {
  std::uint64_t connected = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t closed_early = 0;  // requests lost to a closed connection
                                   // (a peer FIN or a corrupt reply)
  double elapsed_s = 0.0;          // first scheduled send → last driver done
  double rps = 0.0;                // received / elapsed_s
  double mean_us = 0.0;            // open-loop latency (scheduled → reply)
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double send_lag_p99_us = 0.0;    // scheduled → actually sent (generator health)
  obs::Histogram::Snapshot latency;  // full distribution (exact merge algebra)
  std::uint64_t redirects = 0;     // leader-discovery hops taken
  Address target{};                // where the storm was aimed (the leader
                                   // when route_to_leader found one)
};

class LoadGen {
 public:
  LoadGen(Network& net, Address server) : net_(net), server_(server) {}

  /// Opens the connections, drives the arrival schedule, waits for
  /// stragglers (bounded by grace_s), closes the connections, and reports.
  LoadGenReport run(const LoadGenConfig& config);

  /// The deterministic arrival schedule (seconds from run start, sorted):
  /// inverse-CDF sampling of the curve's normalized rate, request i at
  /// quantile (i+0.5)/requests. Exposed for tests — identical config means
  /// identical schedule, no RNG involved.
  static std::vector<double> arrival_times(const LoadGenConfig& config);

 private:
  Network& net_;
  Address server_;
};

}  // namespace pdc::net
