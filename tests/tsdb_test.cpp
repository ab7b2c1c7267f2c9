// Tests for the time-series plane (PR 10): TimeSeriesStore ring encoding
// and windowed queries, SloMonitor multi-window burn-rate alerting, the
// FlightRecorder's incident bundles, and the telemetry/federation
// endpoints that serve them.
//
// The lifecycle tests are *scripted*: samples are appended with
// sample_once_at at explicit timestamps, so the full
// inactive → pending → firing → resolved walk is deterministic down to
// the byte (the golden test runs the same script twice and compares
// /alerts and /incident/last bodies byte-for-byte). The stress test
// free-runs the wall-clock sampler against writer threads — under the
// tsan preset it doubles as the data-race check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "obs/federation.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace pdc {
namespace {

using obs::AlertState;
using obs::MetricsRegistry;
using obs::TimeSeriesStore;
using obs::TsdbConfig;

net::NetConfig fast_net() {
  net::NetConfig config;
  config.latency_ms = 0.01;
  return config;
}

constexpr std::uint64_t kTickUs = 10'000;  // scripted cadence: 10 ms

// ------------------------------------------------------------ windows

TEST(Tsdb, ParseWindowAcceptsSuffixes) {
  EXPECT_EQ(obs::parse_window_us("250us"), 250u);
  EXPECT_EQ(obs::parse_window_us("30ms"), 30'000u);
  EXPECT_EQ(obs::parse_window_us("5s"), 5'000'000u);
  EXPECT_EQ(obs::parse_window_us("2"), 2'000'000u);  // bare = seconds
  EXPECT_EQ(obs::parse_window_us("0.5s"), 500'000u);
  EXPECT_FALSE(obs::parse_window_us("").has_value());
  EXPECT_FALSE(obs::parse_window_us("fast").has_value());
  EXPECT_FALSE(obs::parse_window_us("5parsecs").has_value());
}

// ------------------------------------------------------------- queries

TEST(Tsdb, WindowedQueriesOverScriptedSamples) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  TimeSeriesStore store(config);

  auto& counter = registry.counter("t.ops");
  auto& gauge = registry.gauge("t.depth");
  // 10 ticks, 10 ms apart: counter +5 per tick, gauge ramps 1..10.
  for (std::uint64_t i = 1; i <= 10; ++i) {
    counter.inc(5);
    gauge.add(1);
    store.sample_once_at(i * kTickUs);
  }

  // rate() divides by the observed span: 9 deltas of +5 over 90 ms.
  const auto rate = store.rate("t.ops", 200'000);
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, 45.0 / 0.090, 1e-6);
  EXPECT_EQ(store.increase("t.ops", 200'000), 45.0);
  // A 30 ms window holds the newest 4 points (t=70..100 ms): 3 deltas.
  EXPECT_EQ(store.increase("t.ops", 30'000), 15.0);
  EXPECT_EQ(store.max_over_time("t.depth", 200'000), 10.0);
  EXPECT_EQ(store.avg_over_time("t.depth", 200'000), 5.5);
  // Delta queries want two points; a sub-tick window has one.
  EXPECT_FALSE(store.rate("t.ops", 1).has_value());
  EXPECT_FALSE(store.increase("missing.series", 200'000).has_value());

  // The /query body renders value or null, and rejects bad expressions.
  EXPECT_EQ(store.query_json("increase(t.ops)", 200'000),
            "{\"expr\":\"increase(t.ops)\",\"window_us\":200000,"
            "\"value\":45}\n");
  EXPECT_EQ(store.query_json("rate(missing.series)", 200'000),
            "{\"expr\":\"rate(missing.series)\",\"window_us\":200000,"
            "\"value\":null}\n");
  EXPECT_NE(store.query_json("frobnicate(t.ops)", 1).find("error"),
            std::string::npos);
  EXPECT_NE(store.query_json("rate", 1).find("error"), std::string::npos);
}

TEST(Tsdb, RingEvictionLedgerStaysExact) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();  // self-metrics accounting below
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  config.ring_bytes = 64;  // force eviction quickly
  TimeSeriesStore store(config);

  auto& counter = registry.counter("t.evict.ops");
  support::Rng rng(7);
  for (std::uint64_t i = 1; i <= 400; ++i) {
    counter.inc(static_cast<std::uint64_t>(rng.uniform_int(0, 1000)));
    store.sample_once_at(i * kTickUs);
  }

  EXPECT_EQ(store.samples_total(), 400u);
  EXPECT_GT(store.evicted_total(), 0u);
  // The ledger identity: every appended point is either still retained or
  // was folded into the head and counted as evicted.
  EXPECT_EQ(store.samples_total(),
            store.retained_total() + store.evicted_total());
  EXPECT_GT(store.bytes_retained(), 0u);
  EXPECT_LE(store.bytes_retained(), config.ring_bytes);
  EXPECT_EQ(store.series_count(), 1u);
  // The newest point survives eviction, so increase over a huge window is
  // the head-to-last delta of what is retained — still a valid counter
  // delta (non-negative, at most the true total).
  const auto inc = store.increase("t.evict.ops", 400 * kTickUs);
  ASSERT_TRUE(inc.has_value());
  EXPECT_GE(*inc, 0.0);
  EXPECT_LE(*inc, static_cast<double>(counter.total()));

  // Self-metrics mirror the ledger exactly (process-wide registry was
  // reset before this store existed, so totals are this store's alone).
  const auto scrape = MetricsRegistry::instance().scrape();
  const auto* samples = scrape.find("pdc.tsdb.samples");
  const auto* evicted = scrape.find("pdc.tsdb.evicted");
  const auto* bytes = scrape.find("pdc.tsdb.bytes");
  const auto* series = scrape.find("pdc.tsdb.series");
  ASSERT_NE(samples, nullptr);
  ASSERT_NE(evicted, nullptr);
  ASSERT_NE(bytes, nullptr);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(samples->count, store.samples_total());
  EXPECT_EQ(evicted->count, store.evicted_total());
  EXPECT_EQ(static_cast<std::uint64_t>(bytes->value), store.bytes_retained());
  EXPECT_EQ(static_cast<std::size_t>(series->value), store.series_count());
}

TEST(Tsdb, MaxSeriesCapDropsAndCounts) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  config.max_series = 2;
  TimeSeriesStore store(config);
  registry.counter("cap.a").inc(1);
  registry.counter("cap.b").inc(1);
  registry.counter("cap.c").inc(1);
  store.sample_once_at(kTickUs);
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_GT(store.series_dropped(), 0u);
}

TEST(Tsdb, QuantileOverTimeMatchesSupportPercentile) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  TimeSeriesStore store(config);

  auto& hist = registry.histogram("t.latency_us");
  support::Rng rng(42);
  // Warm-up recordings land before the first sample, so the window delta
  // below isolates exactly the second batch.
  for (int i = 0; i < 500; ++i) {
    hist.record(static_cast<std::uint64_t>(rng.uniform_int(1, 100)));
  }
  store.sample_once_at(kTickUs);
  std::vector<double> batch;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(1, 100'000);
    batch.push_back(static_cast<double>(v));
    hist.record(static_cast<std::uint64_t>(v));
  }
  store.sample_once_at(2 * kTickUs);

  // The windowed histogram is the exact bucket-wise delta of the batch.
  const auto delta = store.histogram_increase("t.latency_us", kTickUs);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->count, 500u);
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto windowed = store.quantile_over_time("t.latency_us", kTickUs, q);
    ASSERT_TRUE(windowed.has_value());
    // Exactness: quantile_over_time is histogram_quantile of the delta.
    EXPECT_EQ(*windowed, delta->quantile(q));
    // Accuracy: the interpolated estimate brackets the nearest-rank
    // percentile within one power-of-two bucket.
    const double exact = support::percentile(batch, q * 100.0);
    EXPECT_GE(*windowed, exact / 2.0) << "q=" << q;
    EXPECT_LE(*windowed, exact * 2.0) << "q=" << q;
  }
  // No recordings in the window => 0.0 (not null): silence has a defined
  // latency of zero, matching the availability rule's no-traffic clause.
  store.sample_once_at(3 * kTickUs);
  store.sample_once_at(4 * kTickUs);
  EXPECT_EQ(store.quantile_over_time("t.latency_us", kTickUs, 0.99), 0.0);
  // Non-histogram series answer null.
  registry.counter("t.not_hist").inc(1);
  store.sample_once_at(5 * kTickUs);
  EXPECT_FALSE(store.quantile_over_time("t.not_hist", kTickUs, 0.99));
}

// ------------------------------------------------------------- alerts

// Scripted availability outage: healthy traffic, a full outage long
// enough to hold the burn past pending_for, then recovery. Returns the
// concatenated /alerts + /incident/last bodies for golden comparison.
std::string availability_lifecycle(std::vector<AlertState>* walk = nullptr) {
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  TimeSeriesStore store(config);
  obs::SloMonitor monitor(&store);
  obs::FlightRecorderConfig frc;
  frc.store = &store;
  frc.window_s = 2.0;
  frc.registry = &registry;
  obs::FlightRecorder recorder(frc);

  // Canonical rule scaled 1e-3: fast 0.3s/3.6s ×14.4, slow 1.8s/21.6s
  // ×6.0, pending_for 120 ms.
  EXPECT_TRUE(monitor.add_rule(obs::availability_slo(
      "test.availability", "t.good", "t.total", 0.99, 1e-3)));
  EXPECT_FALSE(monitor.add_rule(obs::availability_slo(
      "test.availability", "t.good", "t.total", 0.99, 1e-3)));
  store.set_tick_hook([&](std::uint64_t now_us) {
    recorder.tick(now_us);
    monitor.evaluate(now_us);
  });
  monitor.set_firing_hook([&](std::uint64_t now_us, const obs::SloRule& rule,
                              const obs::AlertStatus& status) {
    recorder.on_alert_firing(now_us, rule, status);
  });

  auto& good = registry.counter("t.good");
  auto& total = registry.counter("t.total");
  std::uint64_t t = 0;
  AlertState last = AlertState::kInactive;
  const auto step = [&](bool healthy) {
    total.inc(10);
    if (healthy) good.inc(10);
    t += kTickUs;
    store.sample_once_at(t);
    const auto state = monitor.status().front().state;
    if (walk != nullptr && state != last) walk->push_back(state);
    last = state;
  };
  for (int i = 0; i < 100; ++i) step(true);   // 1 s healthy
  for (int i = 0; i < 100; ++i) step(false);  // 1 s outage
  for (int i = 0; i < 250; ++i) step(true);   // 2.5 s recovery

  EXPECT_EQ(monitor.firing_count(), 0u);
  EXPECT_EQ(recorder.incidents_total(), 1u);
  return monitor.alerts_json() + recorder.incident_last_json() +
         recorder.incident_list_json();
}

TEST(Slo, AvailabilityAlertWalksTheLifecycle) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  std::vector<AlertState> walk;
  const std::string body = availability_lifecycle(&walk);
  ASSERT_EQ(walk.size(), 3u) << body;
  EXPECT_EQ(walk[0], AlertState::kPending);
  EXPECT_EQ(walk[1], AlertState::kFiring);
  EXPECT_EQ(walk[2], AlertState::kResolved);
  EXPECT_NE(body.find("\"rule\":\"test.availability\""), std::string::npos);
  EXPECT_NE(body.find("\"state\":\"resolved\""), std::string::npos);
  EXPECT_NE(body.find("\"transitions\":{\"pending\":1,\"firing\":1,"
                      "\"resolved\":1,\"inactive\":0}"),
            std::string::npos)
      << body;
  // The incident bundle froze the breaching series and the frame ring.
  EXPECT_NE(body.find("\"kind\":\"availability\""), std::string::npos);
  EXPECT_NE(body.find("\"series\":\"t.total\""), std::string::npos);
  EXPECT_NE(body.find("\"frames\":"), std::string::npos);
}

TEST(Slo, FixedScriptProducesByteStableAlertAndIncidentBodies) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  const std::string first = availability_lifecycle();
  const std::string second = availability_lifecycle();
  EXPECT_EQ(first, second);
}

TEST(Slo, LatencyRuleFiresOnWindowedQuantile) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  TimeSeriesStore store(config);
  obs::SloMonitor monitor(&store);
  // p99 of t.lat_us over canonical windows ×1e-3 against 1 ms; fire
  // immediately on breach (no hysteresis).
  auto rule = obs::latency_slo("test.latency", "t.lat_us", 0.99, 1000.0, 1e-3);
  rule.pending_for_s = 0.0;
  ASSERT_TRUE(monitor.add_rule(rule));

  auto& hist = registry.histogram("t.lat_us");
  std::uint64_t t = 0;
  const auto tick = [&](std::uint64_t latency_us) {
    for (int i = 0; i < 10; ++i) hist.record(latency_us);
    t += kTickUs;
    store.sample_once_at(t);
    monitor.evaluate(t);
  };
  for (int i = 0; i < 200; ++i) tick(100);  // 2 s fast
  EXPECT_EQ(monitor.status().front().state, AlertState::kInactive);
  for (int i = 0; i < 200; ++i) tick(50'000);  // 2 s slow: p99 >> 1 ms
  EXPECT_EQ(monitor.status().front().state, AlertState::kFiring);
  EXPECT_EQ(monitor.firing_count(), 1u);
  for (int i = 0; i < 250; ++i) tick(100);  // recovery clears all windows
  EXPECT_EQ(monitor.status().front().state, AlertState::kResolved);
}

TEST(Slo, BurnSurvivesMismatchedRingCoverage) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  // Starve the rings: the growing total series evicts down to a fraction
  // of the long window while the idle good series retains far more. The
  // burn ratio must compare increases over the common covered range, or
  // a full outage reads as zero burn.
  config.ring_bytes = 256;
  TimeSeriesStore store(config);
  obs::SloMonitor monitor(&store);
  ASSERT_TRUE(monitor.add_rule(
      obs::availability_slo("test.availability", "t.good", "t.total", 0.99,
                            1e-3)));
  auto& good = registry.counter("t.good");
  auto& total = registry.counter("t.total");
  std::uint64_t t = 0;
  const auto step = [&](bool healthy) {
    total.inc(20);
    if (healthy) good.inc(20);
    t += kTickUs;
    store.sample_once_at(t);
    monitor.evaluate(t);
  };
  for (int i = 0; i < 200; ++i) step(true);  // fill + evict the rings
  EXPECT_GT(store.evicted_total(), 0u);
  for (int i = 0; i < 150; ++i) step(false);  // total outage
  EXPECT_EQ(monitor.status().front().state, AlertState::kFiring);
  for (int i = 0; i < 400; ++i) step(true);
  EXPECT_EQ(monitor.status().front().state, AlertState::kResolved);
}

TEST(Slo, AlertsWireRoundTripsAndRejectsGarbage) {
  std::vector<obs::AlertWireRow> rows(2);
  rows[0].rule = "kv.availability";
  rows[0].source = "0";
  rows[0].state = AlertState::kFiring;
  rows[0].since_us = 1'234'567;
  rows[0].to_pending = 2;
  rows[0].to_firing = 1;
  rows[0].value = 15.25;
  rows[1].rule = "weird \"name\"\n";
  rows[1].state = AlertState::kResolved;
  rows[1].to_resolved = 3;
  rows[1].value = 0.5;
  const std::string wire = obs::render_alerts_wire(rows);
  const auto parsed = obs::parse_alerts_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].rule, rows[0].rule);
  EXPECT_EQ((*parsed)[0].source, "0");
  EXPECT_EQ((*parsed)[0].state, AlertState::kFiring);
  EXPECT_EQ((*parsed)[0].since_us, 1'234'567u);
  EXPECT_EQ((*parsed)[0].to_firing, 1u);
  EXPECT_EQ((*parsed)[0].value, 15.25);
  EXPECT_EQ((*parsed)[1].rule, rows[1].rule);
  EXPECT_EQ((*parsed)[1].state, AlertState::kResolved);
  EXPECT_FALSE(obs::parse_alerts_wire("not an alert body").has_value());
  EXPECT_FALSE(
      obs::parse_alerts_wire("{\"error\":\"nope\"}\n").has_value());
}

// -------------------------------------------------------------- stress

TEST(TsdbStress, WallClockSamplerRacesWritersAndQueries) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  config.period_seconds = 0.001;
  config.ring_bytes = 256;  // keep eviction in the race too
  TimeSeriesStore store(config);
  obs::SloMonitor monitor(&store);
  ASSERT_TRUE(monitor.add_rule(
      obs::availability_slo("stress.avail", "s.good", "s.total", 0.99, 1e-3)));
  store.set_tick_hook(
      [&](std::uint64_t now_us) { monitor.evaluate(now_us); });
  store.start();
  EXPECT_TRUE(store.running());

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&registry, &stop, w] {
      auto& good = registry.counter("s.good");
      auto& total = registry.counter("s.total");
      auto& hist = registry.histogram("s.lat_us");
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        total.inc();
        if (++i % 100 != 0) good.inc();
        hist.record((i * (w + 1)) % 4096);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    (void)store.rate("s.total", 50'000);
    (void)store.quantile_over_time("s.lat_us", 50'000, 0.99);
    (void)store.series_json("s.good", 50'000);
    (void)monitor.alerts_wire();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  store.stop();
  EXPECT_FALSE(store.running());
  EXPECT_EQ(store.samples_total(),
            store.retained_total() + store.evicted_total());
}

// ----------------------------------------------------------- telemetry

TEST(TsdbTelemetry, QueryAlertsAndIncidentEndpointsServeAttachments) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry registry;
  TsdbConfig config;
  config.registry = &registry;
  TimeSeriesStore store(config);
  obs::SloMonitor monitor(&store);
  obs::FlightRecorderConfig frc;
  frc.store = &store;
  frc.registry = &registry;
  obs::FlightRecorder recorder(frc);
  ASSERT_TRUE(monitor.add_rule(obs::availability_slo(
      "kv.availability", "t.good", "t.total", 0.99, 1e-3)));
  store.set_tick_hook([&](std::uint64_t now_us) {
    recorder.tick(now_us);
    monitor.evaluate(now_us);
  });
  monitor.set_firing_hook([&](std::uint64_t now_us, const obs::SloRule& rule,
                              const obs::AlertStatus& status) {
    recorder.on_alert_firing(now_us, rule, status);
  });
  auto& good = registry.counter("t.good");
  auto& total = registry.counter("t.total");
  std::uint64_t t = 0;
  for (int i = 0; i < 100; ++i) {  // healthy second
    good.inc(10);
    total.inc(10);
    store.sample_once_at(t += kTickUs);
  }
  for (int i = 0; i < 100; ++i) {  // outage second: drives the rule to fire
    total.inc(10);
    store.sample_once_at(t += kTickUs);
  }
  ASSERT_EQ(monitor.firing_count(), 1u);

  net::Network net(2, fast_net());
  obs::TelemetryConfig tc;
  tc.registry = &registry;
  obs::TelemetryServer server(net, 0, 9100, tc);
  server.attach_tsdb(&store);
  server.attach_slo(&monitor);
  server.attach_recorder(&recorder);
  obs::TelemetryClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());

  const std::string query =
      client.get("/query?expr=increase(t.total)&window=2s").value();
  EXPECT_EQ(query,
            "{\"expr\":\"increase(t.total)\",\"window_us\":2000000,"
            "\"value\":1990}\n");
  EXPECT_NE(client.get("/query?expr=rate(t.total)&window=bogus")
                .value()
                .find("bad window"),
            std::string::npos);
  EXPECT_NE(client.get("/query").value().find("error"), std::string::npos);

  const std::string alerts = client.get("/alerts").value();
  EXPECT_NE(alerts.find("\"rule\":\"kv.availability\""), std::string::npos);
  EXPECT_NE(alerts.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(alerts.find("\"firing\":1"), std::string::npos);
  const auto wire = obs::parse_alerts_wire(client.get("/alerts.wire").value());
  ASSERT_TRUE(wire.has_value());
  ASSERT_EQ(wire->size(), 1u);
  EXPECT_EQ(wire->front().state, AlertState::kFiring);
  EXPECT_TRUE(wire->front().source.empty());  // local rows are unstamped

  EXPECT_EQ(client.get("/healthz").value(),
            "{\"status\":\"degraded\",\"firing\":1}\n");

  const std::string incident = client.get("/incident/last").value();
  EXPECT_NE(incident.find("\"rule\":\"kv.availability\""), std::string::npos);
  EXPECT_NE(client.get("/incident/list").value().find("\"total\":1"),
            std::string::npos);
  client.close();
  server.stop();
}

TEST(TsdbTelemetry, UnattachedEndpointsAnswerErrorShapes) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  net::Network net(2, fast_net());
  obs::TelemetryServer server(net, 0, 9100);
  obs::TelemetryClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  EXPECT_EQ(client.get("/query?expr=rate(x)").value(),
            "{\"error\":\"no time-series store attached\"}\n");
  EXPECT_EQ(client.get("/alerts").value(),
            "{\"error\":\"no slo monitor attached\"}\n");
  EXPECT_EQ(client.get("/alerts.wire").value(),
            "{\"error\":\"no slo monitor attached\"}\n");
  EXPECT_EQ(client.get("/incident/last").value(),
            "{\"error\":\"no flight recorder attached\"}\n");
  EXPECT_EQ(client.get("/incident/list").value(),
            "{\"error\":\"no flight recorder attached\"}\n");
  // No monitor attached: healthy by definition.
  EXPECT_EQ(client.get("/healthz").value(),
            "{\"status\":\"ok\",\"firing\":0}\n");
  client.close();
  server.stop();
}

// ---------------------------------------------------------- federation

TEST(TsdbFederation, AggregatorRollsUpWorstStateAndStampsSources) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  // Rank 0: the availability rule fires. Rank 1: same rule, no traffic.
  MetricsRegistry r0, r1;
  TsdbConfig c0, c1;
  c0.registry = &r0;
  c1.registry = &r1;
  TimeSeriesStore store0(c0), store1(c1);
  obs::SloMonitor mon0(&store0), mon1(&store1);
  ASSERT_TRUE(mon0.add_rule(obs::availability_slo(
      "kv.availability", "t.good", "t.total", 0.99, 1e-3)));
  ASSERT_TRUE(mon1.add_rule(obs::availability_slo(
      "kv.availability", "t.good", "t.total", 0.99, 1e-3)));
  auto& good = r0.counter("t.good");
  auto& total = r0.counter("t.total");
  std::uint64_t t = 0;
  for (int i = 0; i < 100; ++i) {
    good.inc(10);
    total.inc(10);
    store0.sample_once_at(t += kTickUs);
    mon0.evaluate(t);
  }
  for (int i = 0; i < 100; ++i) {
    total.inc(10);
    store0.sample_once_at(t += kTickUs);
    mon0.evaluate(t);
  }
  ASSERT_EQ(mon0.firing_count(), 1u);
  store1.sample_once_at(kTickUs);
  mon1.evaluate(kTickUs);

  net::Network net(4, fast_net());
  obs::TelemetryConfig tc0, tc1;
  tc0.registry = &r0;
  tc1.registry = &r1;
  obs::TelemetryServer s0(net, 0, 9100, tc0);
  obs::TelemetryServer s1(net, 1, 9100, tc1);
  s0.attach_slo(&mon0);
  s1.attach_slo(&mon1);
  obs::Aggregator aggregator(
      net, 2, 9200, {{s0.address(), "0"}, {s1.address(), "1"}});
  obs::TelemetryClient client(net, 3);
  ASSERT_TRUE(client.connect(aggregator.address()).is_ok());

  const auto rows = aggregator.federate_alerts();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].source, "0");  // stamped insert-if-absent, sorted
  EXPECT_EQ(rows[1].source, "1");
  EXPECT_EQ(rows[0].state, AlertState::kFiring);
  EXPECT_EQ(rows[1].state, AlertState::kInactive);

  // The rollup groups by rule, keeps the worst state, and counts firing
  // *rules* (one rule here, even with two sources reporting).
  const std::string alerts = client.get("/alerts").value();
  EXPECT_NE(alerts.find("\"rule\":\"kv.availability\",\"state\":\"firing\""),
            std::string::npos)
      << alerts;
  EXPECT_NE(alerts.find("\"source\":\"0\""), std::string::npos);
  EXPECT_NE(alerts.find("\"source\":\"1\""), std::string::npos);
  EXPECT_NE(alerts.find("\"firing\":1"), std::string::npos);
  EXPECT_EQ(client.get("/healthz").value(),
            "{\"status\":\"degraded\",\"firing\":1}\n");
  const auto wire = obs::parse_alerts_wire(client.get("/alerts.wire").value());
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->size(), 2u);
  client.close();
}

}  // namespace
}  // namespace pdc
