#include "obs/telemetry.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "net/framing.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "support/check.hpp"

namespace pdc::obs {

namespace {

std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out += ok ? ch : '_';
  }
  return out;
}

/// Exposition label text (no braces): keys sanitized like metric names,
/// values escaped per the Prometheus text format.
std::string exposition_labels(const Labels& labels) {
  std::string out;
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_name(k);
    out += "=\"";
    append_label_value(out, v);
    out += '"';
  }
  return out;
}

/// `name`, `name{labels}`, or `name{labels,extra}` — `extra` carries the
/// reserved le/quantile pair, appended after the series' own labels.
std::string series_ref(const std::string& name, const std::string& labels,
                       const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name + '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

/// The body every route of a compiled-out family answers, indexed by
/// RouteFamily (metrics routes are never compiled out).
constexpr const char* kNoopBodies[] = {
    "",
    "{\"error\":\"tracing disabled (PDCKIT_OBS_NOOP)\"}\n",
    "{\"error\":\"time series disabled (PDCKIT_OBS_NOOP)\"}\n",
    "{\"error\":\"profiling disabled (PDCKIT_OBS_NOOP)\"}\n",
};

/// A route handler that renders `render(component, request)` with the
/// component attached to `slot`, or answers an error JSON naming `what`
/// while none is attached.
template <typename T, typename Render>
std::function<std::string(const std::string&)> attached(
    const std::atomic<const T*>& slot, const char* what, Render render) {
  return [&slot, what, render](const std::string& request) {
    const T* component = slot.load(std::memory_order_acquire);
    if (component == nullptr) {
      return std::string("{\"error\":\"no ") + what + " attached\"}\n";
    }
    return std::string(render(*component, request));
  };
}

}  // namespace

std::string endpoint_query(const std::string& endpoint,
                           std::string_view key) {
  const std::size_t q = endpoint.find('?');
  if (q == std::string::npos) return {};
  std::size_t pos = q + 1;
  while (pos < endpoint.size()) {
    std::size_t amp = endpoint.find('&', pos);
    if (amp == std::string::npos) amp = endpoint.size();
    const std::string_view pair =
        std::string_view(endpoint).substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return {};
}

std::uint64_t endpoint_query_u64(const std::string& endpoint,
                                 std::string_view key,
                                 std::uint64_t fallback) {
  const std::string value = endpoint_query(endpoint, key);
  const char* end = value.data() + value.size();
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc{} && ptr == end ? out : fallback;
}

bool route_matches(std::string_view path, std::string_view request) {
  return request.starts_with(path) &&
         (request.size() == path.size() || request[path.size()] == '?' ||
          request[path.size()] == ' ');
}

std::string serve_route(const std::vector<Route>& routes,
                        const std::string& request) {
  for (const Route& route : routes) {
    if (!route_matches(route.path, request)) continue;
    if (!kObsEnabled && route.family != RouteFamily::kMetrics) {
      return kNoopBodies[static_cast<std::size_t>(route.family)];
    }
    return route.handler(request);
  }
  std::string out = "error: unknown endpoint '" + request + "' (try ";
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i != 0) out += ", ";
    out += routes[i].path;
  }
  return out + ")\n";
}

std::vector<Route> snapshot_routes(
    std::function<MetricsSnapshot()> scrape,
    std::function<void(std::string& json)> splice_json) {
  return {
      {"/metrics", RouteFamily::kMetrics,
       [scrape](const std::string&) {
         return prometheus_exposition(scrape());
       }},
      {"/metrics.json", RouteFamily::kMetrics,
       [scrape, splice_json](const std::string&) {
         std::string body = scrape().to_json();
         if (splice_json) splice_json(body);
         return body;
       }},
      // The exact-integer encoding federation scrapes.
      {"/metrics.wire", RouteFamily::kMetrics,
       [scrape](const std::string&) { return scrape().to_wire(); }},
      // An immediate scrape, bypassing whatever cadence the operator tier
      // polls at; the body is /metrics.json's, so consumers share a parser.
      {"snapshot-now", RouteFamily::kMetrics,
       [scrape](const std::string&) { return scrape().to_json(); }},
      // Top-K contended sites, ranked by total wait from
      // pdc.contend.wait_us{site=} in the rendered snapshot.
      {"/profile/contention", RouteFamily::kProfiling,
       [scrape](const std::string& request) {
         const std::uint64_t k = endpoint_query_u64(request, "n", 10);
         return contention_json(
                    contention_topk(scrape(), static_cast<std::size_t>(k))) +
                "\n";
       }},
  };
}

std::string prometheus_exposition(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  const auto& samples = snapshot.samples;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // A family — one base name, every labeled series — is a contiguous run
    // (snapshot sort order) and gets a single # TYPE header.
    std::size_t j = i + 1;
    while (j < samples.size() && samples[j].kind == samples[i].kind &&
           samples[j].base == samples[i].base) {
      ++j;
    }
    const std::string name = sanitize_name(samples[i].base);
    switch (samples[i].kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        for (std::size_t k = i; k < j; ++k) {
          out += series_ref(name, exposition_labels(samples[k].labels)) + " " +
                 std::to_string(samples[k].count) + "\n";
        }
        break;
      case MetricKind::kGauge: {
        out += "# TYPE " + name + " gauge\n";
        for (std::size_t k = i; k < j; ++k) {
          out += series_ref(name, exposition_labels(samples[k].labels)) + " " +
                 std::to_string(samples[k].value) + "\n";
        }
        out += "# TYPE " + name + "_high_water gauge\n";
        for (std::size_t k = i; k < j; ++k) {
          out += series_ref(name + "_high_water",
                            exposition_labels(samples[k].labels)) +
                 " " + std::to_string(samples[k].high_water) + "\n";
        }
        break;
      }
      case MetricKind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        for (std::size_t k = i; k < j; ++k) {
          const MetricSample& s = samples[k];
          const std::string labels = exposition_labels(s.labels);
          std::uint64_t cum = 0;
          for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            const double upper = Histogram::bucket_upper(b);
            cum += s.buckets[b];
            // The unbounded tail (if ever populated) is covered by +Inf.
            if (std::isinf(upper)) continue;
            out += series_ref(name + "_bucket", labels,
                              "le=\"" + format_double(upper) + "\"") +
                   " " + std::to_string(cum) + "\n";
          }
          out += series_ref(name + "_bucket", labels, "le=\"+Inf\"") + " " +
                 std::to_string(s.count) + "\n";
          out += series_ref(name + "_sum", labels) + " " +
                 std::to_string(s.sum) + "\n";
          out += series_ref(name + "_count", labels) + " " +
                 std::to_string(s.count) + "\n";
          for (const auto& [q, label] :
               {std::pair<double, const char*>{0.5, "0.5"},
                {0.9, "0.9"},
                {0.99, "0.99"}}) {
            out += series_ref(name, labels,
                              std::string("quantile=\"") + label + "\"") +
                   " " + format_double(s.quantile(q)) + "\n";
          }
        }
        break;
      }
    }
    i = j - 1;
  }
  return out;
}

std::string delta_json(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                       std::uint64_t cursor, std::string_view filter) {
  const auto matches = [&](const MetricSample& s) {
    return filter.empty() || s.name.compare(0, filter.size(), filter) == 0;
  };
  std::string out = "{\"cursor\":" + std::to_string(cursor) + ",\"counters\":{";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const auto& s : cur.samples) {
    if (s.kind != MetricKind::kCounter || !matches(s)) continue;
    const MetricSample* p = prev.find(s.name);
    const std::uint64_t before = p != nullptr ? p->count : 0;
    if (s.count == before) continue;
    comma();
    // Canonical names can contain quotes (labels) — always escape.
    append_json_string(out, s.name);
    out += ':' + std::to_string(s.count - before);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& s : cur.samples) {
    if (s.kind != MetricKind::kGauge || !matches(s)) continue;
    comma();
    append_json_string(out, s.name);
    out += ":{\"value\":" + std::to_string(s.value) +
           ",\"high_water\":" + std::to_string(s.high_water) + '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& s : cur.samples) {
    if (s.kind != MetricKind::kHistogram || !matches(s)) continue;
    const MetricSample* p = prev.find(s.name);
    const std::uint64_t count_before = p != nullptr ? p->count : 0;
    const std::uint64_t sum_before = p != nullptr ? p->sum : 0;
    if (s.count == count_before) continue;
    comma();
    // Quantiles are over the cumulative distribution (buckets cannot be
    // diffed meaningfully once a scrape races updates), deltas over
    // count/sum.
    append_json_string(out, s.name);
    out += ":{\"count\":" + std::to_string(s.count - count_before) +
           ",\"sum\":" + std::to_string(s.sum - sum_before) +
           ",\"p50\":" + format_double(s.quantile(0.5)) +
           ",\"p90\":" + format_double(s.quantile(0.9)) +
           ",\"p99\":" + format_double(s.quantile(0.99)) + '}';
  }
  out += "}}";
  return out;
}

TelemetryServer::TelemetryServer(net::Network& net, int host,
                                 std::uint16_t port, TelemetryConfig config)
    : registry_(config.registry) {
  // Self-metrics are registered eagerly so the *first* scrape already
  // lists them: a lazy first-bump-after-render would make consecutive
  // fixed-seed runs disagree on the metric set and break the golden
  // exposition (see header contract). They always live in the process-wide
  // registry, even when this server serves a custom one.
  if constexpr (kObsEnabled) {
    auto& registry = MetricsRegistry::instance();
    registry.counter("pdc.telemetry.requests");
    registry.counter("pdc.telemetry.pushes");
    registry.histogram("pdc.telemetry.render_us");
    registry.counter("pdc.trace.stream.chunks");
    registry.counter("pdc.trace.stream.events");
    registry.counter("pdc.trace.stream.dropped");
  }
  routes_ = make_routes();
  net::ServerConfig server_config;
  server_config.model = config.model;
  server_config.workers = 2;  // worker-pool and event-driven models
  server_config.raw_handler = [this](net::BytesView request,
                                     net::StreamSocket& socket) {
    return handle_stream(request, socket);
  };
  server_ = std::make_unique<net::Server>(
      net, host, port,
      [this](const net::Bytes& request) { return handle(request); },
      server_config);
}

TelemetryServer::~TelemetryServer() { stop(); }

net::Address TelemetryServer::address() const { return server_->address(); }

void TelemetryServer::attach_collector(const TraceCollector* collector) {
  collector_.store(collector, std::memory_order_release);
}

void TelemetryServer::attach_spans(const SpanCollector* spans) {
  spans_.store(spans, std::memory_order_release);
}

void TelemetryServer::attach_tsdb(const TimeSeriesStore* store) {
  tsdb_.store(store, std::memory_order_release);
}

void TelemetryServer::attach_slo(const SloMonitor* slo) {
  slo_.store(slo, std::memory_order_release);
}

void TelemetryServer::attach_recorder(const FlightRecorder* recorder) {
  recorder_.store(recorder, std::memory_order_release);
}

void TelemetryServer::stop() { server_->stop(); }

MetricsRegistry& TelemetryServer::registry() const {
  return registry_ != nullptr ? *registry_ : MetricsRegistry::instance();
}

std::vector<Route> TelemetryServer::make_routes() {
  std::vector<Route> routes = snapshot_routes(
      [this] { return registry().scrape(); },
      [this](std::string& body) {
        // Exemplar splice: with a span collector attached, the scrape
        // carries the trace ids pinned to each pdc.trace.root_us bucket —
        // the jump from a histogram percentile to a /trace/byid lookup.
        const SpanCollector* spans = spans_.load(std::memory_order_acquire);
        if (kObsEnabled && spans != nullptr && !body.empty() &&
            body.back() == '}') {
          body.pop_back();
          body += ",\"exemplars\":" + spans->exemplars_json() + "}";
        }
      });
  routes.insert(routes.end(), {
      {"/healthz", RouteFamily::kMetrics,
       [this](const std::string&) {
         // Degraded while the attached SLO monitor has firing alerts; with
         // no monitor attached there is no alert source: plainly ok.
         const SloMonitor* slo = slo_.load(std::memory_order_acquire);
         const std::size_t firing = slo != nullptr ? slo->firing_count() : 0;
         return std::string("{\"status\":\"") +
                (firing > 0 ? "degraded" : "ok") +
                "\",\"firing\":" + std::to_string(firing) + "}\n";
       }},
      {"reset", RouteFamily::kMetrics,
       [this](const std::string&) {
         registry().reset();
         return std::string("ok\n");
       }},
      // Streamed by handle_stream; a request that reaches this handler
      // named no frame count.
      {"/subscribe", RouteFamily::kMetrics,
       [](const std::string&) {
         return std::string(
             "error: usage /subscribe <frames> [interval_ms] [filter]\n");
       }},
      {"/trace/stream", RouteFamily::kTracing,
       [](const std::string&) {
         return std::string(
             "error: usage /trace/stream <frames> [interval_ms]\n");
       }},
      {"/trace", RouteFamily::kTracing,
       attached(collector_, "trace collector",
                [](const TraceCollector& c, const std::string&) {
                  if (!c.running()) return c.chrome_trace_json();
                  return std::string(
                      "{\"error\":\"trace collector still running\","
                      "\"hint\":\"use /trace/stream <frames> [interval_ms] "
                      "for live events, or stop the collector for a full "
                      "dump\"}\n");
                })},
      {"/trace/slowest", RouteFamily::kTracing,
       attached(spans_, "span collector",
                [](const SpanCollector& spans, const std::string& request) {
                  return spans.slowest_json(
                      endpoint_query_u64(request, "n", 8));
                })},
      {"/trace/slowest.wire", RouteFamily::kTracing,
       attached(spans_, "span collector",
                [](const SpanCollector& spans, const std::string& request) {
                  return spans.slowest_wire(
                      endpoint_query_u64(request, "n", 8));
                })},
      {"/trace/byid", RouteFamily::kTracing,
       attached(spans_, "span collector",
                [](const SpanCollector& spans, const std::string& request) {
                  return spans.byid_json(endpoint_query_u64(request, "id", 0));
                })},
      {"/profile/folded", RouteFamily::kProfiling,
       [](const std::string&) { return Profiler::instance().folded(); }},
      // Collect-then-respond: this connection's serving thread samples for
      // the requested window, then replies with just that window's folded
      // stacks (the Profiler's global accumulation is untouched).
      {"/profile", RouteFamily::kProfiling,
       [](const std::string& request) {
         return Profiler::instance().collect(
             endpoint_query_u64(request, "ms", 50),
             endpoint_query_u64(request, "period_us", 1000));
       }},
      {"/query", RouteFamily::kTimeseries,
       attached(tsdb_, "time-series store",
                [](const TimeSeriesStore& store, const std::string& request) {
                  const std::string expr = endpoint_query(request, "expr");
                  if (expr.empty()) {
                    return std::string(
                        "{\"error\":\"usage "
                        "/query?expr=rate(name)&window=30s\"}\n");
                  }
                  const std::string window = endpoint_query(request, "window");
                  const auto window_us =
                      window.empty() ? std::optional<std::uint64_t>{1'000'000}
                                     : parse_window_us(window);
                  if (!window_us.has_value()) {
                    return "{\"error\":\"bad window '" + window +
                           "' (want <num>[us|ms|s])\"}\n";
                  }
                  return store.query_json(expr, *window_us);
                })},
      {"/alerts", RouteFamily::kTimeseries,
       attached(slo_, "slo monitor", [](const SloMonitor& slo, const auto&) {
         return slo.alerts_json();
       })},
      {"/alerts.wire", RouteFamily::kTimeseries,
       attached(slo_, "slo monitor", [](const SloMonitor& slo, const auto&) {
         return slo.alerts_wire();
       })},
      {"/incident/last", RouteFamily::kTimeseries,
       attached(recorder_, "flight recorder",
                [](const FlightRecorder& r, const auto&) {
                  return r.incident_last_json();
                })},
      {"/incident/list", RouteFamily::kTimeseries,
       attached(recorder_, "flight recorder",
                [](const FlightRecorder& r, const auto&) {
                  return r.incident_list_json();
                })},
  });
  return routes;
}

net::Bytes TelemetryServer::handle(const net::Bytes& request) {
  const std::uint64_t start = kObsEnabled ? now_us() : 0;
  std::string body = serve_route(routes_, net::to_string(request));
  // Self-accounting strictly after the render: a scrape must never observe
  // its own request (determinism contract in the header).
  PDC_OBS_HIST("pdc.telemetry.render_us", now_us() - start);
  PDC_OBS_COUNT("pdc.telemetry.requests");
  return net::to_bytes(body);
}

bool TelemetryServer::handle_stream(net::BytesView request,
                                    net::StreamSocket& socket) {
  const std::string_view text(reinterpret_cast<const char*>(request.data),
                              request.size);
  const bool is_subscribe = route_matches("/subscribe", text);
  // A NOOP build falls through: the /trace/stream route then answers the
  // tracing family's body as one frame, like the rest of the family.
  const bool is_trace_stream =
      kObsEnabled && route_matches("/trace/stream", text);
  if (!is_subscribe && !is_trace_stream) return false;
  const std::string_view verb = is_subscribe ? "/subscribe" : "/trace/stream";
  std::istringstream in(std::string(text.substr(verb.size())));
  std::uint64_t frames = 0;
  std::uint64_t interval_ms = 0;
  std::string filter;
  const bool got_frames = static_cast<bool>(in >> frames);
  if (!(in >> interval_ms)) {
    // Second token absent or non-numeric: default the interval and let a
    // bare "/subscribe N pdc.pool." treat the token as the filter.
    in.clear();
    interval_ms = 0;
  }
  in >> filter;
  // No frame count: the framed path's route answers the usage error.
  if (!got_frames || frames == 0) return false;
  return is_subscribe
             ? stream_subscription(frames, interval_ms, filter, socket)
             : stream_trace(frames, interval_ms, socket);
}

bool TelemetryServer::stream_subscription(std::uint64_t frames,
                                          std::uint64_t interval_ms,
                                          const std::string& filter,
                                          net::StreamSocket& socket) {
  // Per-client cursor state lives right here on the connection's stack:
  // frame 1 diffs against the empty snapshot (= full totals), frame k
  // against what this client saw in frame k-1.
  MetricsSnapshot prev;
  for (std::uint64_t cursor = 1; cursor <= frames; ++cursor) {
    MetricsSnapshot cur = registry().scrape();
    const std::string frame = delta_json(prev, cur, cursor, filter);
    if (!net::MessageCodec::send_message(socket, net::to_bytes(frame))
             .is_ok()) {
      break;  // client went away
    }
    PDC_OBS_COUNT("pdc.telemetry.pushes");
    prev = std::move(cur);
    if (cursor < frames && interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return true;
}

bool TelemetryServer::stream_trace(std::uint64_t frames,
                                   std::uint64_t interval_ms,
                                   net::StreamSocket& socket) {
  const TraceCollector* collector = collector_.load(std::memory_order_acquire);
  if (collector == nullptr || !collector->running()) {
    (void)net::MessageCodec::send_message(
        socket, net::to_bytes(std::string(
                    collector == nullptr
                        ? "{\"error\":\"no trace collector attached\"}\n"
                        : "{\"error\":\"trace collector not running\"}\n")));
    return true;
  }
  // The per-client stream position lives on the connection's stack, like
  // the subscription cursor: the collector itself keeps no client state.
  TraceStreamCursor cursor;
  for (std::uint64_t frame_no = 1; frame_no <= frames; ++frame_no) {
    const TraceStreamChunk chunk = collector->stream_chunk(cursor);
    std::string frame = "{\"cursor\":" + std::to_string(frame_no) +
                        ",\"dropped\":" + std::to_string(cursor.dropped) +
                        ",\"events\":[" + chunk.events_json + "]}";
    if (!net::MessageCodec::send_message(socket, net::to_bytes(frame))
             .is_ok()) {
      break;  // client went away
    }
    PDC_OBS_COUNT("pdc.trace.stream.chunks");
    PDC_OBS_COUNT("pdc.trace.stream.events", chunk.events);
    if (chunk.dropped != 0) {
      PDC_OBS_COUNT("pdc.trace.stream.dropped", chunk.dropped);
    }
    if (frame_no < frames && interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return true;
}

support::Status TelemetryClient::connect(const net::Address& server) {
  return client_.connect(server);
}

support::Result<std::string> TelemetryClient::get(const std::string& endpoint) {
  return client_.call_text(endpoint);
}

support::Status TelemetryClient::subscribe(
    std::size_t frames, std::uint64_t interval_ms,
    const std::function<void(const std::string&)>& on_frame,
    std::string_view filter) {
  std::string request = "/subscribe " + std::to_string(frames) + " " +
                        std::to_string(interval_ms);
  if (!filter.empty()) {
    request += ' ';
    request += filter;
  }
  return stream(request, frames, on_frame);
}

support::Status TelemetryClient::stream_trace(
    std::size_t frames, std::uint64_t interval_ms,
    const std::function<void(const std::string&)>& on_chunk) {
  return stream("/trace/stream " + std::to_string(frames) + " " +
                    std::to_string(interval_ms),
                frames, on_chunk);
}

support::Status TelemetryClient::stream(
    const std::string& request, std::size_t frames,
    const std::function<void(const std::string&)>& on_frame) {
  auto frame = client_.call(net::to_bytes(request));
  for (std::size_t i = 1;; ++i) {
    if (!frame.is_ok()) return frame.status();
    const std::string text = net::to_string(frame.value());
    on_frame(text);
    // A usage/collector problem arrives as a single error frame; stop
    // instead of blocking on frames the server will never push.
    if (i >= frames || text.starts_with("{\"error\"") ||
        text.starts_with("error:")) {
      return support::Status::ok();
    }
    frame = client_.recv();
  }
}

void TelemetryClient::close() { client_.close(); }

}  // namespace pdc::obs
