// Tests for end-to-end request tracing: span contexts in net frames, the
// tail-sampling SpanCollector, critical-path analysis, exemplars, the
// /trace/slowest | /trace/byid telemetry endpoints, federation of kept
// traces, and LoadGen's leader-routed discovery.
//
// The sim test runs a real 3-rank ReplicatedKV under testkit::SimScheduler
// with traced client ops: with a fixed seed the rendered span trees —
// timestamps, span ids, critical paths — must be byte-identical across
// runs. The stress tests close spans from free-running threads while a
// scraper renders or the session stops; under the tsan preset they double
// as the race check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/replicated_kv.hpp"
#include "mp/world.hpp"
#include "net/framing.hpp"
#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/federation.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "testkit/hooks.hpp"
#include "testkit/sim_scheduler.hpp"

namespace pdc {
namespace {

using net::MessageCodec;
using obs::MetricsRegistry;
using obs::SpanContext;
using testkit::SchedulerOptions;
using testkit::SimScheduler;

net::NetConfig fast_net() {
  net::NetConfig config;
  config.latency_ms = 0.01;
  return config;
}

// ------------------------------------------------------------- framing

TEST(SpanFraming, TracedFrameRoundTripsContext) {
  const net::Bytes payload = net::to_bytes("hello spans");
  net::Bytes wire;
  MessageCodec::encode_message(payload, wire, SpanContext{42, 7});
  EXPECT_EQ(wire.size(), MessageCodec::kHeaderBytes +
                             MessageCodec::kTraceHeaderBytes + payload.size());
  std::size_t offset = 0;
  net::BytesView out;
  SpanContext trace;
  ASSERT_EQ(MessageCodec::scan_message(wire, offset, out, trace),
            MessageCodec::Scan::kFrame);
  EXPECT_EQ(trace.trace_id, 42u);
  EXPECT_EQ(trace.span_id, 7u);
  EXPECT_EQ(out.to_owned(), payload);
  EXPECT_EQ(offset, wire.size());
}

TEST(SpanFraming, InvalidContextEncodesTheLegacyFrameByteForByte) {
  const net::Bytes payload = net::to_bytes("no trace");
  net::Bytes plain;
  MessageCodec::encode_message(payload, plain);
  net::Bytes traced_off;
  MessageCodec::encode_message(payload, traced_off, SpanContext{});
  EXPECT_EQ(plain, traced_off);  // tracing off costs zero wire bytes

  std::size_t offset = 0;
  net::BytesView out;
  SpanContext trace{9, 9};  // must be zeroed for untraced frames
  ASSERT_EQ(MessageCodec::scan_message(plain, offset, out, trace),
            MessageCodec::Scan::kFrame);
  EXPECT_EQ(trace.trace_id, 0u);
  EXPECT_EQ(trace.span_id, 0u);
}

TEST(SpanFraming, UntracedScanSkipsTheTraceHeader) {
  const net::Bytes payload = net::to_bytes("skip me");
  net::Bytes wire;
  MessageCodec::encode_message(payload, wire, SpanContext{5, 6});
  std::size_t offset = 0;
  net::BytesView out;
  // The 3-arg scan (pre-tracing signature) must still parse traced
  // frames, discarding the context.
  ASSERT_EQ(MessageCodec::scan_message(wire, offset, out),
            MessageCodec::Scan::kFrame);
  EXPECT_EQ(out.to_owned(), payload);
  EXPECT_EQ(offset, wire.size());
}

// The client-side blocking receive skips a traced frame's context and
// stays aligned on the frame that follows it.
TEST(SpanFraming, RecvMessageSkipsTheTraceHeader) {
  net::Network net(2, fast_net());
  auto listener = net.listen(1, 5);
  auto client = net.connect(0, net::Address{1, 5});
  ASSERT_TRUE(client.is_ok());
  net::StreamSocket server = std::move(listener->accept()).value();
  ASSERT_TRUE(MessageCodec::send_message(client.value(), net::to_bytes("traced"),
                                         SpanContext{5, 6})
                  .is_ok());
  ASSERT_TRUE(
      MessageCodec::send_message(client.value(), net::to_bytes("plain")).is_ok());
  auto first = MessageCodec::recv_message(server);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(net::to_string(first.value()), "traced");
  auto second = MessageCodec::recv_message(server);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(net::to_string(second.value()), "plain");
}

TEST(SpanFraming, PartialAndCorruptTracedFrames) {
  const net::Bytes payload = net::to_bytes("checksummed");
  net::Bytes wire;
  MessageCodec::encode_message(payload, wire, SpanContext{3, 4});

  // Every strict prefix is kNeedMore, never a bogus parse.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    net::Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
    std::size_t offset = 0;
    net::BytesView out;
    SpanContext trace;
    EXPECT_EQ(MessageCodec::scan_message(prefix, offset, out, trace),
              MessageCodec::Scan::kNeedMore);
  }

  // Payload corruption still trips the checksum (it covers the payload,
  // not the trace header, so the header bytes ride outside it).
  net::Bytes corrupt = wire;
  corrupt.back() = static_cast<std::byte>(
      static_cast<unsigned char>(corrupt.back()) ^ 0xff);
  std::size_t offset = 0;
  net::BytesView out;
  SpanContext trace;
  EXPECT_EQ(MessageCodec::scan_message(corrupt, offset, out, trace),
            MessageCodec::Scan::kCorrupt);
}

// ------------------------------------------------------- critical path

TEST(CriticalPath, HandBuiltTreeAttributesSelfTimeExactly) {
  obs::TraceSummary trace;
  trace.trace_id = 1;
  trace.root_us = 100;
  auto span = [](std::uint64_t id, std::uint64_t parent, std::uint64_t start,
                 std::uint64_t end, const char* name) {
    obs::SpanNode node;
    node.span_id = id;
    node.parent_id = parent;
    node.start_us = start;
    node.end_us = end;
    node.name = name;
    return node;
  };
  trace.spans = {
      span(1, 0, 0, 100, "request"),       span(2, 1, 0, 10, "client.queue"),
      span(3, 1, 20, 90, "server.drain"),  span(4, 3, 25, 60, "raft.replicate"),
      span(5, 3, 60, 85, "raft.apply"),
  };

  const auto hops = obs::critical_path(trace);
  ASSERT_EQ(hops.size(), 5u);
  EXPECT_EQ(hops[0].name, "request");
  EXPECT_EQ(hops[0].self_us, 20u);  // [10,20) gap + [90,100) tail
  EXPECT_EQ(hops[1].name, "client.queue");
  EXPECT_EQ(hops[1].self_us, 10u);
  EXPECT_EQ(hops[2].name, "server.drain");
  EXPECT_EQ(hops[2].self_us, 10u);  // [20,25) lead-in + [85,90) tail
  EXPECT_EQ(hops[3].name, "raft.replicate");
  EXPECT_EQ(hops[3].self_us, 35u);
  EXPECT_EQ(hops[4].name, "raft.apply");
  EXPECT_EQ(hops[4].self_us, 25u);
  // The on-path self-times cover the root latency exactly.
  std::uint64_t total = 0;
  for (const auto& hop : hops) total += hop.self_us;
  EXPECT_EQ(total, trace.root_us);
}

TEST(CriticalPath, WireFormRoundTrips) {
  obs::TraceSummary trace;
  trace.trace_id = 77;
  trace.root_us = 1234;
  trace.error = true;
  trace.source = "2";
  obs::SpanNode node;
  node.span_id = 9;
  node.parent_id = 0;
  node.start_us = 5;
  node.end_us = 1239;
  node.error = true;
  node.name = "request";
  trace.spans.push_back(node);

  const std::string wire = obs::trace_summaries_wire({trace});
  const auto parsed = obs::parse_traces_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->front().trace_id, 77u);
  EXPECT_EQ(parsed->front().root_us, 1234u);
  EXPECT_TRUE(parsed->front().error);
  EXPECT_EQ(parsed->front().source, "2");
  ASSERT_EQ(parsed->front().spans.size(), 1u);
  EXPECT_EQ(parsed->front().spans.front().name, "request");
  EXPECT_EQ(parsed->front().spans.front().end_us, 1239u);

  EXPECT_FALSE(obs::parse_traces_wire("x nonsense\n").has_value());
  // A span line before any trace line is malformed.
  EXPECT_FALSE(obs::parse_traces_wire("s 1 0 0 1 0 orphan\n").has_value());
}

// ------------------------------------------------------- tail sampling

/// Ends a single-span trace whose root latency is ~`latency_us` by
/// backdating the root's start (jitter stays far inside a power-of-two
/// bucket for latencies this large). now_us() counts from its first call
/// in the process, so young clocks are floored before backdating.
void complete_trace_with_latency(std::uint64_t trace_id,
                                 std::uint64_t latency_us,
                                 bool error = false) {
  while (obs::now_us() < latency_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto root = obs::span_root("request", trace_id, obs::now_us() - latency_us);
  obs::span_end(root, error);
}

TEST(TailSampling, AscendingLatenciesRotateTheStoreWithExactCounts) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 2;
  obs::SpanCollector collector(config);
  collector.start();
  // 100ms, 200ms, ... 500ms: each newcomer beats the store's minimum.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    complete_trace_with_latency(i, i * 10'000);
  }
  EXPECT_EQ(collector.traces_completed(), 5u);
  EXPECT_EQ(collector.traces_kept(), 2u);
  EXPECT_EQ(collector.traces_evicted(), 3u);
  EXPECT_EQ(collector.traces_dropped(), 0u);
  // Rotating threshold = smallest kept root latency (trace 4, ~400ms).
  EXPECT_GE(collector.threshold_us(), 40'000u);
  EXPECT_LT(collector.threshold_us(), 50'000u);
  const auto slowest = collector.slowest(8);
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].trace_id, 5u);  // descending root latency
  EXPECT_EQ(slowest[1].trace_id, 4u);
  collector.stop();

  const auto snapshot = MetricsRegistry::instance().scrape();
  EXPECT_EQ(snapshot.counter("pdc.span.started"), 5u);
  EXPECT_EQ(snapshot.counter("pdc.span.finished"), 5u);
  // Evicted traces stay on the sampled side of the span ledger.
  EXPECT_EQ(snapshot.counter("pdc.span.sampled") +
                snapshot.counter("pdc.span.dropped"),
            snapshot.counter("pdc.span.finished"));
}

TEST(TailSampling, DescendingLatenciesDropTheFastTail) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 2;
  obs::SpanCollector collector(config);
  collector.start();
  for (std::uint64_t i = 5; i >= 1; --i) {
    complete_trace_with_latency(6 - i, i * 10'000);
  }
  EXPECT_EQ(collector.traces_completed(), 5u);
  EXPECT_EQ(collector.traces_kept(), 2u);
  EXPECT_EQ(collector.traces_evicted(), 0u);
  EXPECT_EQ(collector.traces_dropped(), 3u);  // never beat the threshold
  collector.stop();
  const auto snapshot = MetricsRegistry::instance().scrape();
  EXPECT_EQ(snapshot.counter("pdc.span.sampled"), 2u);
  EXPECT_EQ(snapshot.counter("pdc.span.dropped"), 3u);
}

TEST(TailSampling, ErrorTracesAreKeptAndNeverEvicted) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 1;
  obs::SpanCollector collector(config);
  collector.start();
  complete_trace_with_latency(1, 50'000);            // fills the plain store
  complete_trace_with_latency(2, 1'000, /*error=*/true);  // fast but broken
  complete_trace_with_latency(3, 70'000);            // evicts 1, never 2
  EXPECT_EQ(collector.traces_kept(), 2u);
  EXPECT_EQ(collector.traces_evicted(), 1u);
  ASSERT_TRUE(collector.by_id(2).has_value());  // the error trace survived
  ASSERT_TRUE(collector.by_id(3).has_value());
  EXPECT_FALSE(collector.by_id(1).has_value());
  EXPECT_NE(collector.byid_json(1).find("\"error\":\"no kept trace"),
            std::string::npos);
  collector.stop();
}

TEST(TailSampling, ExemplarsPinKeptTracesToTheirBucket) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollector collector;
  collector.start();
  complete_trace_with_latency(11, 3u << 14);  // mid [2^15, 2^16)
  complete_trace_with_latency(12, 3u << 10);  // mid [2^11, 2^12)
  const auto trace = collector.by_id(11);
  ASSERT_TRUE(trace.has_value());
  const auto pins = collector.exemplars();
  const std::size_t bucket = obs::Histogram::bucket_of(trace->root_us);
  ASSERT_TRUE(pins[bucket].has_value());
  EXPECT_EQ(pins[bucket]->trace_id, 11u);
  const std::string json = collector.exemplars_json();
  EXPECT_NE(json.find("\"trace_id\":11"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":12"), std::string::npos);
  EXPECT_NE(json.find("\"le\":"), std::string::npos);
  collector.stop();
}

// ----------------------------------------------- server span adoption

/// One traced request against each threading model: the server's
/// "server.drain" span must join the client's trace as a child of the
/// request's frame context.
void expect_server_drain_linkage(net::ThreadingModel model) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollector collector;
  collector.start();
  net::Network net(2, fast_net());
  net::ServerConfig config;
  config.model = model;
  config.workers = 2;
  net::Server server(net, 0, 80,
                     [](const net::Bytes& request) { return request; }, config);
  auto socket = net.connect(1, server.address());
  ASSERT_TRUE(socket.is_ok());
  net::StreamSocket stream = std::move(socket).value();

  auto root = obs::span_root("request", 77);
  ASSERT_TRUE(root.recording());
  const std::uint64_t root_span_id = root.context().span_id;
  ASSERT_TRUE(MessageCodec::send_message(stream, net::to_bytes("ping"),
                                         root.context())
                  .is_ok());
  auto reply = MessageCodec::recv_message(stream);
  ASSERT_TRUE(reply.is_ok());
  obs::span_end(root);

  // The reply can outrun the server's span_end; the drain span then lands
  // as a late settle on the kept trace. Wait for it.
  obs::TraceSummary trace;
  for (int spin = 0; spin < 2000; ++spin) {
    auto kept = collector.by_id(77);
    if (kept.has_value() && kept->spans.size() == 2) {
      trace = *kept;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(trace.spans.size(), 2u);
  const obs::SpanNode& drain =
      trace.spans[0].parent_id == 0 ? trace.spans[1] : trace.spans[0];
  EXPECT_EQ(drain.name, "server.drain");
  EXPECT_EQ(drain.parent_id, root_span_id);
  stream.close();
  server.stop();
  collector.stop();
}

TEST(ServerSpans, ThreadPerConnectionAdoptsTheFrameContext) {
  expect_server_drain_linkage(net::ThreadingModel::kThreadPerConnection);
}

TEST(ServerSpans, WorkerPoolAdoptsTheFrameContext) {
  expect_server_drain_linkage(net::ThreadingModel::kWorkerPool);
}

TEST(ServerSpans, EventDrivenAdoptsTheFrameContext) {
  expect_server_drain_linkage(net::ThreadingModel::kEventDriven);
}

// ------------------------------------------------- deterministic sim KV

/// Fixed-seed 3-rank ReplicatedKV with traced client ops from rank 0.
/// Returns the collector's full slowest-trace rendering.
std::string traced_kv_render(std::uint64_t seed) {
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 8;
  obs::SpanCollector collector(config);
  collector.start();
  auto storage = std::make_shared<std::vector<dist::RaftPersistentState>>(3);
  auto done = std::make_shared<std::atomic<bool>>(false);
  mp::World world(3);
  auto bodies = world.rank_bodies([storage, done](mp::Communicator& comm) {
    const auto rank = comm.rank();
    dist::KvConfig cfg;
    cfg.raft.seed = 99;
    dist::ReplicatedKV kv(comm, (*storage)[static_cast<std::size_t>(rank)],
                          cfg);
    if (rank == 0) {
      for (int op = 0; op < 4; ++op) {
        auto root = obs::span_root("request",
                                   1000 + static_cast<std::uint64_t>(op));
        obs::SpanScope scope(root.context());
        const std::string key = "k" + std::to_string(op / 2);
        const auto result =
            op % 2 == 0 ? kv.put(key, "v" + std::to_string(op)) : kv.get(key);
        obs::span_end(root, !result.ok());
      }
      done->store(true);
    } else {
      while (!done->load()) {
        kv.step();
        testkit::poll_pause("kv.pump", 0.5e-3);
      }
    }
  });
  SchedulerOptions options;
  options.seed = seed;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  EXPECT_TRUE(report.ok()) << report.error;
  collector.stop();
  return collector.slowest_json(8);
}

TEST(SimSpans, FixedSeedSpanTreesAndCriticalPathsAreByteStable) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  const std::string a = traced_kv_render(31);
  const std::string b = traced_kv_render(31);
  EXPECT_EQ(a, b);
  // The tree crossed every layer: client root, KV intake, raft consensus.
  EXPECT_NE(a.find("\"request\""), std::string::npos);
  EXPECT_NE(a.find("\"server.drain\""), std::string::npos);
  EXPECT_NE(a.find("\"raft.replicate\""), std::string::npos);
  EXPECT_NE(a.find("\"raft.apply\""), std::string::npos);
  EXPECT_NE(a.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(a.find("\"completed\":4"), std::string::npos);
}

// ----------------------------------------------- telemetry endpoints

TEST(SpanTelemetry, SlowestAndByIdServeKeptTraces) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollector collector;
  collector.start();
  complete_trace_with_latency(21, 40'000);
  complete_trace_with_latency(22, 20'000);

  net::Network net(2, fast_net());
  obs::TelemetryServer server(net, 0, 9100);
  obs::TelemetryClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());

  // Unattached: the span endpoints answer the error shape.
  EXPECT_NE(client.get("/trace/slowest").value().find(
                "no span collector attached"),
            std::string::npos);
  server.attach_spans(&collector);

  const std::string slowest = client.get("/trace/slowest?n=1").value();
  EXPECT_NE(slowest.find("\"trace_id\":21"), std::string::npos);
  EXPECT_EQ(slowest.find("\"trace_id\":22"), std::string::npos);  // n=1
  EXPECT_NE(slowest.find("\"kept\":2"), std::string::npos);

  const std::string byid = client.get("/trace/byid?id=22").value();
  EXPECT_NE(byid.find("\"trace_id\":22"), std::string::npos);
  EXPECT_NE(client.get("/trace/byid?id=404").value().find(
                "no kept trace with id 404"),
            std::string::npos);

  const std::string wire = client.get("/trace/slowest.wire?n=8").value();
  const auto parsed = obs::parse_traces_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);

  // Exemplars ride the ordinary metrics scrape once spans are attached.
  const std::string metrics = client.get("/metrics.json").value();
  EXPECT_NE(metrics.find("\"exemplars\":{\"pdc.trace.root_us\":["),
            std::string::npos);
  EXPECT_NE(metrics.find("\"trace_id\":21"), std::string::npos);

  client.close();
  server.stop();
  collector.stop();
}

TEST(SpanTelemetry, AggregatorFederatesAndSourceStampsKeptTraces) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollector collector;
  collector.start();
  complete_trace_with_latency(31, 30'000);
  complete_trace_with_latency(32, 60'000);

  net::Network net(3, fast_net());
  obs::TelemetryServer server(net, 0, 9100);
  server.attach_spans(&collector);
  obs::Aggregator aggregator(net, 1, 9200, {{server.address(), "2"}});

  const auto merged = aggregator.federate_traces(8);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].trace_id, 32u);  // slowest first
  EXPECT_EQ(merged[0].source, "2");    // insert-if-absent stamping
  EXPECT_EQ(merged[1].trace_id, 31u);

  obs::TelemetryClient client(net, 2);
  ASSERT_TRUE(client.connect(aggregator.address()).is_ok());
  const std::string body = client.get("/trace/slowest?n=1").value();
  EXPECT_NE(body.find("\"trace_id\":32"), std::string::npos);
  EXPECT_NE(body.find("\"source\":\"2\""), std::string::npos);
  EXPECT_EQ(body.find("\"trace_id\":31"), std::string::npos);
  // The wire form re-federates: a second tier would keep the stamp.
  const std::string wire = client.get("/trace/slowest.wire?n=8").value();
  const auto parsed = obs::parse_traces_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->front().source, "2");
  client.close();
  aggregator.stop();
  server.stop();
  collector.stop();
}

// ------------------------------------------------- leader-routed LoadGen

TEST(LoadGenRouting, FollowsRedirectsToTheLeaderBeforeTheStorm) {
  net::Network net(4, fast_net());
  net::ServerConfig config;
  config.model = net::ThreadingModel::kEventDriven;
  // "Follower" redirects probes; the "leader" claims leadership and
  // echoes storm traffic.
  net::Server leader(net, 1, 81, [](const net::Bytes& request) {
    if (net::to_string(request) == "LEADER?") return net::to_bytes("LEADER");
    return request;
  }, config);
  const net::Address leader_address = leader.address();
  net::Server follower(net, 0, 80, [leader_address](const net::Bytes& request) {
    if (net::to_string(request) == "LEADER?") {
      return net::to_bytes("REDIRECT " + std::to_string(leader_address.host) +
                           " " + std::to_string(leader_address.port));
    }
    return request;
  }, config);

  net::LoadGenConfig load;
  load.connections = 16;
  load.requests = 200;
  load.duration_s = 0.05;
  load.drivers = 2;
  load.first_client_host = 2;
  load.client_hosts = 2;
  load.route_to_leader = true;
  load.probe_request = [] { return net::to_bytes("LEADER?"); };
  load.redirect_of =
      [](const net::Bytes& reply) -> std::optional<net::Address> {
    const std::string text = net::to_string(reply);
    if (text.rfind("REDIRECT ", 0) != 0) return std::nullopt;
    std::istringstream in(text.substr(9));
    net::Address address;
    in >> address.host >> address.port;
    return address;
  };
  net::LoadGen gen(net, follower.address());
  const auto report = gen.run(load);
  EXPECT_EQ(report.target, leader_address);
  EXPECT_EQ(report.redirects, 1u);
  EXPECT_EQ(report.sent, 200u);
  EXPECT_EQ(report.received, report.sent);
  // Every storm request landed on the leader, none on the follower.
  EXPECT_EQ(leader.requests_served(), 201u);   // probe + storm
  EXPECT_EQ(follower.requests_served(), 1u);   // probe only
  follower.stop();
  leader.stop();
}

// ------------------------------------------------ close order, bounds

// Thread B registers its span buffer first (it closes the store-filling
// trace), then thread A closes an error child, then B closes the child's
// root, with no reader in between. Settled buffer by buffer, the root
// would come first and the fast trace would be dropped; settled in close
// order it is kept as an error trace with both spans.
TEST(SpanOrder, ErrorChildClosedOnAnotherThreadReachesItsRootsVerdict) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 1;
  obs::SpanCollector collector(config);
  collector.start();
  // Floor the young clock first, so trace 2 stays far faster than trace 1.
  while (obs::now_us() < 50'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto root = obs::span_root("request", 2);  // fast: dropped unless error
  const SpanContext root_ctx = root.context();
  std::atomic<int> step{0};
  std::thread b([&] {
    complete_trace_with_latency(1, 50'000);  // fills the plain store
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    obs::span_end(root);
  });
  while (step.load() != 1) std::this_thread::yield();
  std::thread a([root_ctx] {
    auto child = obs::span_begin("server.drain", root_ctx);
    obs::span_end(child, /*error=*/true);
  });
  a.join();
  step.store(2);
  b.join();

  const auto trace = collector.by_id(2);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->error);
  EXPECT_EQ(trace->spans.size(), 2u);
  EXPECT_EQ(collector.traces_kept(), 2u);
  EXPECT_EQ(collector.traces_dropped(), 0u);
  collector.stop();
  const auto snapshot = MetricsRegistry::instance().scrape();
  EXPECT_EQ(snapshot.counter("pdc.span.sampled"), 3u);
  EXPECT_EQ(snapshot.counter("pdc.span.dropped"), 0u);
}

// Trace 1 is kept and trace 2 dropped, each with a child still open; then
// kSpanVerdictSlots more traces complete, overwriting both verdicts. The
// late child of the dropped trace waits as if its root were open and
// counts dropped at stop(); the kept trace absorbs its late child.
TEST(SpanBounds, LateSpansAfterTheVerdictTableWraps) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 1;
  obs::SpanCollector collector(config);
  collector.start();
  while (obs::now_us() < 50'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto kept_root = obs::span_root("request", 1, obs::now_us() - 50'000);
  auto kept_child = obs::span_begin("raft.apply", kept_root.context());
  obs::span_end(kept_root);
  auto dropped_root = obs::span_root("request", 2);
  auto dropped_child = obs::span_begin("raft.apply", dropped_root.context());
  obs::span_end(dropped_root);
  constexpr std::uint64_t kSlots = obs::kSpanVerdictSlots;
  for (std::uint64_t id = 3; id < 3 + kSlots; ++id) {
    auto root = obs::span_root("request", id);
    obs::span_end(root);
  }
  obs::span_end(dropped_child);
  obs::span_end(kept_child);

  const auto kept = collector.by_id(1);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->spans.size(), 2u);
  EXPECT_EQ(collector.traces_completed(), kSlots + 2);
  collector.stop();
  const auto snapshot = MetricsRegistry::instance().scrape();
  EXPECT_EQ(snapshot.counter("pdc.span.finished"), kSlots + 4);
  EXPECT_EQ(snapshot.counter("pdc.span.sampled"), 2u);
  EXPECT_EQ(snapshot.counter("pdc.span.dropped"), kSlots + 2);
}

// Children of roots that never close fill the parked vector past its
// capacity. The overflow counts dropped at once, a trace completing after
// it still gets its whole tree, and stop() settles the rest.
TEST(SpanBounds, ParkedOverflowFromRootsThatNeverCloseBalancesTheLedger) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollector collector;
  collector.start();
  constexpr std::uint64_t kOrphans =
      obs::kSpanParkedCapacity + obs::kSpanParkedCapacity / 2;
  std::vector<obs::ActiveSpan> roots;  // never closed
  roots.reserve(kOrphans);
  for (std::uint64_t id = 1; id <= kOrphans; ++id) {
    roots.push_back(obs::span_root("request", id));
    auto child = obs::span_begin("server.drain", roots.back().context());
    obs::span_end(child);
  }
  auto root = obs::span_root("request", kOrphans + 1);
  auto child = obs::span_begin("server.drain", root.context());
  obs::span_end(child);
  obs::span_end(root);

  const auto trace = collector.by_id(kOrphans + 1);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->spans.size(), 2u);
  const auto mid = MetricsRegistry::instance().scrape();
  EXPECT_GE(mid.counter("pdc.span.dropped"),
            kOrphans - obs::kSpanParkedCapacity);
  collector.stop();
  const auto snapshot = MetricsRegistry::instance().scrape();
  EXPECT_EQ(snapshot.counter("pdc.span.finished"), kOrphans + 2);
  EXPECT_EQ(snapshot.counter("pdc.span.sampled"), 2u);
  EXPECT_EQ(snapshot.counter("pdc.span.dropped"), kOrphans);
}

// -------------------------------------------------------------- stress

// Free-running producers close spans while a scraper renders the kept
// store; under the tsan preset this is the span-plane race check.
TEST(SpanStress, ConcurrentFinishVersusSlowestScrape) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 16;
  obs::SpanCollector collector(config);
  collector.start();

  constexpr int kThreads = 4;
  constexpr std::uint64_t kTracesPerThread = 400;
  // Floor the young clock so per-trace backdates never underflow.
  while (obs::now_us() < 64'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> scraping{true};
  std::thread scraper([&] {
    while (scraping.load(std::memory_order_relaxed)) {
      (void)collector.slowest_json(8);
      (void)collector.exemplars_json();
      (void)collector.by_id(1);
      (void)collector.threshold_us();
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t] {
      for (std::uint64_t i = 1; i <= kTracesPerThread; ++i) {
        const std::uint64_t trace_id =
            static_cast<std::uint64_t>(t) * 1'000'000 + i;
        auto root = obs::span_root("request", trace_id,
                                   obs::now_us() - (i % 64) * 1'000);
        auto child = obs::span_begin("server.drain", root.context());
        obs::span_end(child, i % 97 == 0);
        obs::span_end(root);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  scraping.store(false, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(collector.traces_completed(), kThreads * kTracesPerThread);
  collector.stop();
  const auto snapshot = MetricsRegistry::instance().scrape();
  // Conservation: everything started finished, everything finished is
  // accounted sampled or dropped — no span leaks under contention.
  EXPECT_EQ(snapshot.counter("pdc.span.started"),
            snapshot.counter("pdc.span.finished"));
  EXPECT_EQ(snapshot.counter("pdc.span.sampled") +
                snapshot.counter("pdc.span.dropped"),
            snapshot.counter("pdc.span.finished"));
}

// Producers keep closing root+child pairs while stop() runs: spans that
// close after the final harvest count dropped, so the ledger is exact.
TEST(SpanStress, StopWhileProducersCloseSpansKeepsTheLedgerExact) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  obs::SpanCollectorConfig config;
  config.keep_slowest = 16;
  obs::SpanCollector collector(config);
  collector.start();

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPairsEachSide = 2'000;
  std::atomic<bool> producing{true};
  std::atomic<std::uint64_t> pairs{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t, &producing, &pairs] {
      for (std::uint64_t i = 1; producing.load(std::memory_order_relaxed);
           ++i) {
        auto root = obs::span_root(
            "request", static_cast<std::uint64_t>(t) * 1'000'000'000 + i);
        auto child = obs::span_begin("server.drain", root.context());
        obs::span_end(child, i % 97 == 0);
        obs::span_end(root);
        pairs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (pairs.load() < kPairsEachSide) std::this_thread::yield();
  collector.stop();
  const std::uint64_t at_stop = pairs.load();
  while (pairs.load() < at_stop + kPairsEachSide) std::this_thread::yield();
  producing.store(false, std::memory_order_relaxed);
  for (auto& producer : producers) producer.join();

  const auto snapshot = MetricsRegistry::instance().scrape();
  EXPECT_GT(snapshot.counter("pdc.span.sampled"), 0u);
  EXPECT_EQ(snapshot.counter("pdc.span.started"),
            snapshot.counter("pdc.span.finished"));
  EXPECT_EQ(snapshot.counter("pdc.span.sampled") +
                snapshot.counter("pdc.span.dropped"),
            snapshot.counter("pdc.span.finished"));
}

}  // namespace
}  // namespace pdc
