// Event-driven server under open-loop load: LoadGen arrival curves,
// request conservation with an active FaultInjector (impair_streams maps
// drop/reorder decisions onto retransmit-penalty delays, so the stream
// service stays reliable), and fixed-seed determinism all the way through
// a telemetry scrape of the run's totals.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/telemetry.hpp"
#include "testkit/fault_injector.hpp"

namespace {

using namespace pdc;
using namespace pdc::net;

NetConfig fast_net() {
  NetConfig config;
  config.latency_ms = 0.01;
  return config;
}

// ------------------------------------------------------------------ curves

TEST(LoadGenCurves, ScheduleIsSortedSizedAndInWindow) {
  for (const auto curve :
       {ArrivalCurve::kConstant, ArrivalCurve::kDiurnal, ArrivalCurve::kBurst,
        ArrivalCurve::kThunderingHerd}) {
    LoadGenConfig config;
    config.requests = 4000;
    config.duration_s = 2.0;
    config.curve = curve;
    const auto times = LoadGen::arrival_times(config);
    ASSERT_EQ(times.size(), config.requests);
    for (std::size_t i = 1; i < times.size(); ++i) {
      ASSERT_LE(times[i - 1], times[i]);
    }
    EXPECT_GE(times.front(), 0.0);
    EXPECT_LE(times.back(), config.duration_s);
  }
}

TEST(LoadGenCurves, ScheduleIsDeterministic) {
  LoadGenConfig config;
  config.requests = 1000;
  config.curve = ArrivalCurve::kDiurnal;
  EXPECT_EQ(LoadGen::arrival_times(config), LoadGen::arrival_times(config));
}

TEST(LoadGenCurves, ThunderingHerdConcentratesArrivals) {
  LoadGenConfig config;
  config.requests = 10000;
  config.duration_s = 1.0;
  config.curve = ArrivalCurve::kThunderingHerd;
  config.herds = 2;
  const auto times = LoadGen::arrival_times(config);
  // Nearly all arrivals should land within 1% of a herd center.
  std::size_t near = 0;
  for (const double t : times) {
    if (std::abs(t - 0.25) < 0.01 || std::abs(t - 0.75) < 0.01) ++near;
  }
  EXPECT_GT(near, times.size() * 9 / 10);
}

TEST(LoadGenCurves, BurstCurvePutsExtraMassInWindows) {
  LoadGenConfig config;
  config.requests = 10000;
  config.duration_s = 1.0;
  config.curve = ArrivalCurve::kBurst;
  config.bursts = 2;
  config.burst_height = 8.0;
  const auto times = LoadGen::arrival_times(config);
  // Each burst window is 5% of the run at 8x baseline: the two windows
  // (10% of wall time) should hold well over a third of the requests.
  std::size_t in_windows = 0;
  for (const double t : times) {
    if (std::abs(t - 0.25) < 0.025 || std::abs(t - 0.75) < 0.025) ++in_windows;
  }
  EXPECT_GT(in_windows, times.size() / 3);
}

// ------------------------------------------------- load against the server

struct RunTotals {
  LoadGenReport report;
  std::uint64_t served = 0;
  testkit::FaultStats faults;
};

/// One fixed-seed load run against an event-driven echo server on an
/// impaired network. Every probabilistic decision (payloads, fault stream)
/// derives from `seed`, so identical seeds must produce identical totals.
RunTotals run_impaired_load(std::uint64_t seed) {
  NetConfig net_config = fast_net();
  net_config.impair_streams = true;
  net_config.seed = seed;
  Network net(4, net_config);
  testkit::FaultConfig fault_config;
  fault_config.drop = 0.05;     // becomes a retransmit penalty, not loss
  fault_config.reorder = 0.05;  // becomes delay, not reordering
  fault_config.delay_ms = 0.02;
  fault_config.reorder_ms = 0.5;
  fault_config.seed = seed;
  auto injector = std::make_shared<testkit::FaultInjector>(fault_config);
  net.set_fault_injector(injector);

  ServerConfig server_config;
  server_config.model = ThreadingModel::kEventDriven;
  server_config.workers = 2;
  server_config.view_handler = [](BytesView request) {
    return request.to_owned();
  };
  Server server(net, 0, 80, nullptr, server_config);

  LoadGenConfig load;
  load.connections = 256;
  load.requests = 4000;
  load.duration_s = 0.25;
  load.curve = ArrivalCurve::kBurst;
  load.drivers = 2;
  load.first_client_host = 1;
  load.client_hosts = 3;
  load.seed = seed;
  LoadGen gen(net, server.address());
  RunTotals totals;
  totals.report = gen.run(load);
  server.stop();
  totals.served = server.requests_served();
  totals.faults = injector->stats();
  return totals;
}

// Satellite acceptance: faults delay but never destroy — every request
// sent is served and answered (conservation), nothing closes early.
TEST(ServerLoad, FaultsDelayButConserveRequests) {
  const RunTotals totals = run_impaired_load(0xfeed);
  EXPECT_EQ(totals.report.connect_failures, 0u);
  EXPECT_EQ(totals.report.closed_early, 0u);
  EXPECT_EQ(totals.report.sent, 4000u);
  EXPECT_EQ(totals.report.received, totals.report.sent);
  EXPECT_EQ(totals.served, totals.report.sent);
  // The injector really ran: both directions of every request consult it.
  EXPECT_EQ(totals.faults.messages, 2u * totals.report.sent);
  EXPECT_GT(totals.faults.dropped + totals.faults.reordered, 0u);
  EXPECT_GT(totals.report.p99_us, 0.0);
}

// A corrupt reply poisons its connection's stream: LoadGen closes the
// connection as if the server had sent a FIN, so the requests still
// pending on it count as closed early (not lost from the ledger), later
// requests for it fail at once, and the run ends with the window instead
// of waiting out the grace period.
TEST(ServerLoad, CorruptReplyClosesTheConnectionAndBalancesTheLedger) {
  Network net(2, fast_net());
  std::atomic<int> replies{0};
  ServerConfig server_config;
  server_config.model = ThreadingModel::kEventDriven;
  server_config.workers = 2;
  server_config.raw_handler = [&](BytesView request, StreamSocket& socket) {
    Bytes reply;
    MessageCodec::encode_message(request.to_owned(), reply);
    if (++replies == 4) reply.back() ^= std::byte{0x01};
    (void)socket.send(reply);
    return true;
  };
  Server server(net, 0, 80, [](const Bytes& b) { return b; }, server_config);

  LoadGenConfig load;
  load.connections = 1;
  load.requests = 20;
  load.duration_s = 0.05;
  load.grace_s = 2.0;
  load.drivers = 1;
  const LoadGenReport report = LoadGen(net, server.address()).run(load);
  server.stop();
  EXPECT_EQ(report.received, 3u);
  EXPECT_EQ(report.received + report.closed_early, load.requests);
  EXPECT_LT(report.elapsed_s, load.duration_s + load.grace_s / 2);
}

// Fixed seed => identical totals, all the way through a telemetry scrape:
// the run's counters rendered by a TelemetryServer (itself event-driven)
// must be byte-identical across runs.
TEST(ServerLoad, FixedSeedScrapeIsByteStable) {
  auto scrape = [](std::uint64_t seed) {
    const RunTotals totals = run_impaired_load(seed);
    // Deterministic registry: only the run's totals, no timing-dependent
    // series (latency quantiles are real-time and excluded by design).
    obs::MetricsRegistry registry;
    registry.counter("storm.sent").inc(totals.report.sent);
    registry.counter("storm.received").inc(totals.report.received);
    registry.counter("storm.served").inc(totals.served);
    registry.counter("storm.faults.messages").inc(totals.faults.messages);
    registry.counter("storm.faults.dropped").inc(totals.faults.dropped);
    registry.counter("storm.faults.reordered").inc(totals.faults.reordered);
    Network net(2, fast_net());
    obs::TelemetryConfig config;
    config.model = ThreadingModel::kEventDriven;
    config.registry = &registry;
    obs::TelemetryServer server(net, 0, 9100, config);
    obs::TelemetryClient client(net, 1);
    EXPECT_TRUE(client.connect(server.address()).is_ok());
    const std::string body = client.get("/metrics").value();
    client.close();
    server.stop();
    return body;
  };
  const std::string a = scrape(0x5eed);
  const std::string b = scrape(0x5eed);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("storm_sent 4000"), std::string::npos);
}

}  // namespace
