// TelemetryServer: PDCkit's live telemetry plane, served over its own
// client-server stack.
//
// The case-study courses teach performance *observation* of running
// systems; this is the piece that makes PDCkit queryable while it runs.
// A TelemetryServer is an ordinary net::Server speaking the framed text
// protocol (request = endpoint string, reply = body). Its endpoints are
// one route table (TelemetryServer::make_routes in telemetry.cpp; the
// reference is the endpoint table in docs/observability.md), served by
// serve_route() — the same dispatcher the federating Aggregator uses:
//
//   - a route matches `path`, `path?query` or `path args`, so route order
//     never matters and no path shadows a longer one;
//   - a route's family picks the one body it answers under
//     PDCKIT_OBS_NOOP (metrics routes serve in every build);
//   - an unmatched request answers an error listing every route.
//
// The snapshot-rendering routes (/metrics, /metrics.json, /metrics.wire,
// snapshot-now, /profile/contention) are written once in snapshot_routes()
// and shared with the Aggregator, which renders its federated merge
// through them instead of a registry scrape.
//
// Delta subscriptions use net::ServerConfig::raw_handler: the serving
// thread scrapes, diffs against the previous scrape it sent *this client*
// (the per-client cursor state lives on the connection's stack), and
// pushes one framed JSON object per tick with a cursor that starts at 1
// and increments by 1 per frame. Frame 1 diffs against an empty snapshot,
// i.e. it carries full totals.
//
// Determinism contract: serving a scrape never perturbs the scrape it
// renders. Stream traffic bumps no pdc.* metrics (by design in net), and
// the server's self-metrics are registered eagerly in the constructor and
// incremented only *after* a reply is rendered — so the first /metrics
// body after a fixed-seed sim run is byte-identical across runs (golden
// test in tests/obs_test.cpp).
//
// This header lives under src/obs/ with the pdc::obs namespace, but the
// implementation links the net stack — which itself links pdc_obs — so it
// builds as its own target (pdc_telemetry) to keep the module graph
// acyclic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace pdc::obs {

class TimeSeriesStore;
class SloMonitor;
class FlightRecorder;

/// Prometheus-style text exposition of a scrape. Grammar per metric (names
/// are sanitized: every character outside [A-Za-z0-9_:] becomes '_'):
///   counter    # TYPE <name> counter        + one "<name> <total>" line
///   gauge      # TYPE <name> gauge          + value and <name>_high_water
///   histogram  # TYPE <name> histogram      + cumulative <name>_bucket{le=...}
///              lines (power-of-two bounds), _sum, _count, and
///              <name>{quantile="0.5|0.9|0.99"} interpolated summaries.
/// Labeled series render as `<name>{k="v",...} <value>` (label keys
/// sanitized like names, values escaped) with one `# TYPE` line per
/// family, and `le`/`quantile` appended after the series labels.
[[nodiscard]] std::string prometheus_exposition(const MetricsSnapshot& snapshot);

/// One frame of the delta-subscription stream: counters and histograms
/// report activity since `prev` (names whose delta is zero are omitted);
/// gauges always report their current value and high-water mark. A
/// non-empty `filter` keeps only series whose canonical name starts with
/// it (label-aware: canonical names embed the label block). Pure function
/// so cursor semantics are unit-testable without a network.
[[nodiscard]] std::string delta_json(const MetricsSnapshot& prev,
                                     const MetricsSnapshot& cur,
                                     std::uint64_t cursor,
                                     std::string_view filter = {});

/// Value of `key` in an endpoint's `?k=v&k2=v2` query block; empty when
/// absent. Shared by the telemetry and aggregator route handlers.
[[nodiscard]] std::string endpoint_query(const std::string& endpoint,
                                         std::string_view key);

/// Like endpoint_query, parsed as an unsigned integer; `fallback` when
/// absent, malformed, or too large for 64 bits.
[[nodiscard]] std::uint64_t endpoint_query_u64(const std::string& endpoint,
                                               std::string_view key,
                                               std::uint64_t fallback);

/// Which feature a route belongs to, and so which body it answers under
/// PDCKIT_OBS_NOOP: each compiled-out family answers one
/// {"error":"<family> disabled (PDCKIT_OBS_NOOP)"} shape on every route,
/// so clients need a single "{\"error\"" check. kMetrics routes serve in
/// every build.
enum class RouteFamily { kMetrics, kTracing, kTimeseries, kProfiling };

/// One endpoint of a telemetry server: `handler` renders the reply body
/// for a request that names `path` (see route_matches).
struct Route {
  std::string_view path;
  RouteFamily family = RouteFamily::kMetrics;
  std::function<std::string(const std::string& request)> handler;
};

/// True when `request` names `path` exactly, as `path?query`, or as
/// `path args`.
[[nodiscard]] bool route_matches(std::string_view path,
                                 std::string_view request);

/// The reply to `request`: the matching route's handler, its family's NOOP
/// body when that family is compiled out, or an unknown-endpoint error
/// that lists every route.
[[nodiscard]] std::string serve_route(const std::vector<Route>& routes,
                                      const std::string& request);

/// The routes both servers answer by rendering one snapshot: `scrape` is
/// a registry scrape (TelemetryServer) or a federated merge (Aggregator).
/// `splice_json`, when set, edits the /metrics.json body before it is
/// sent.
[[nodiscard]] std::vector<Route> snapshot_routes(
    std::function<MetricsSnapshot()> scrape,
    std::function<void(std::string& json)> splice_json = {});

struct TelemetryConfig {
  net::ThreadingModel model = net::ThreadingModel::kThreadPerConnection;
  // Registry this server scrapes and resets; nullptr means the
  // process-wide MetricsRegistry::instance(). Per-rank servers in a
  // federated sim each point at their own instance so every endpoint
  // exports that rank's plane only. The server's own self-metrics always
  // go to the process-wide registry, keeping a custom plane unperturbed
  // by the act of scraping it.
  MetricsRegistry* registry = nullptr;
};

class TelemetryServer {
 public:
  TelemetryServer(net::Network& net, int host, std::uint16_t port,
                  TelemetryConfig config = {});
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  [[nodiscard]] net::Address address() const;

  /// Points /trace at a collector. The caller keeps ownership and must
  /// outlive the server (or detach with nullptr); /trace answers an error
  /// JSON while the collector is absent or still running.
  void attach_collector(const TraceCollector* collector);

  /// Points /trace/slowest, /trace/byid and the /metrics.json exemplar
  /// splice at a span collector. Same ownership contract as
  /// attach_collector; the span endpoints answer an error JSON while
  /// absent.
  void attach_spans(const SpanCollector* spans);

  /// Points /query at a time-series store. Same ownership contract as
  /// attach_collector; /query answers an error JSON while absent.
  void attach_tsdb(const TimeSeriesStore* store);

  /// Points /alerts, /alerts.wire, and the /healthz degraded signal at an
  /// SLO monitor. Same ownership contract.
  void attach_slo(const SloMonitor* slo);

  /// Points /incident/last and /incident/list at a flight recorder. Same
  /// ownership contract.
  void attach_recorder(const FlightRecorder* recorder);

  /// Stops accepting; existing connections finish their current request.
  void stop();

  /// The endpoints this server answers.
  [[nodiscard]] const std::vector<Route>& routes() const { return routes_; }

 private:
  [[nodiscard]] MetricsRegistry& registry() const;
  [[nodiscard]] std::vector<Route> make_routes();
  net::Bytes handle(const net::Bytes& request);
  bool handle_stream(const net::Bytes& request, net::StreamSocket& socket);
  bool stream_subscription(std::uint64_t frames, std::uint64_t interval_ms,
                           const std::string& filter,
                           net::StreamSocket& socket);
  bool stream_trace(std::uint64_t frames, std::uint64_t interval_ms,
                    net::StreamSocket& socket);

  MetricsRegistry* registry_ = nullptr;  // nullptr = process-wide instance
  std::atomic<const TraceCollector*> collector_{nullptr};
  std::atomic<const SpanCollector*> spans_{nullptr};
  std::atomic<const TimeSeriesStore*> tsdb_{nullptr};
  std::atomic<const SloMonitor*> slo_{nullptr};
  std::atomic<const FlightRecorder*> recorder_{nullptr};
  std::vector<Route> routes_;
  std::unique_ptr<net::Server> server_;  // last member: threads start here
};

/// Framed-stream client for the telemetry plane, so examples and tests
/// need no framing code of their own.
class TelemetryClient {
 public:
  TelemetryClient(net::Network& net, int host) : net_(net), host_(host) {}

  support::Status connect(const net::Address& server);

  /// One GET round trip ("/metrics", "/healthz", ...).
  support::Result<std::string> get(const std::string& endpoint);

  /// Subscribes to `frames` delta snapshots `interval_ms` apart and calls
  /// `on_frame` with each frame's JSON. A non-empty `filter` restricts the
  /// frames to series whose canonical name starts with it. Returns after
  /// the last frame.
  support::Status subscribe(
      std::size_t frames, std::uint64_t interval_ms,
      const std::function<void(const std::string&)>& on_frame,
      std::string_view filter = {});

  /// Streams `frames` chunks of live trace events from the server's
  /// running collector (`/trace/stream`), calling `on_chunk` with each
  /// frame's JSON. Returns after the last frame.
  support::Status stream_trace(
      std::size_t frames, std::uint64_t interval_ms,
      const std::function<void(const std::string&)>& on_chunk);

  void close();

 private:
  /// Sends `request`, then hands up to `frames` pushed frames to
  /// `on_frame`, stopping early at an error frame.
  support::Status stream(
      const std::string& request, std::size_t frames,
      const std::function<void(const std::string&)>& on_frame);

  net::Network& net_;
  int host_;
  net::StreamSocket socket_;
};

}  // namespace pdc::obs
