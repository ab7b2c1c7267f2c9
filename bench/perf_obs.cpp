// Experiment PERF-OBS — what the observability plane itself costs.
//
// The obs layer instruments every other subsystem's hot path, so its own
// price must stay measurable and small:
//   1. hot-path overhead: PDC_OBS_COUNT / gauge add+sub / histogram record
//      in a tight loop, against an empty loop baseline. Build this bench
//      once normally and once with -DPDCKIT_OBS_NOOP=ON to see the macro
//      cost compile away (the "overhead" rows drop to the baseline).
//   2. scrape latency over a populated registry (the /metrics hot cost);
//   3. exposition-render throughput: Prometheus text and JSON bytes/s;
//   4. delta-frame assembly (the /subscribe per-tick cost);
//   5. one full client-server GET /metrics round trip over net;
//   6. label-lookup cost: cached reference vs flat-name probe vs labeled
//      interning (why hot paths cache the returned reference);
//   7. histogram bucket merge and merge_federated throughput — the
//      aggregation algebra's per-scrape cost;
//   8. one federated scrape: Aggregator fan-out over four per-rank
//      TelemetryServers, merge, and render, end to end over net;
//   9. the profiling plane: worker-slot publish (the single relaxed
//      store), the full per-task ProfiledTask pair, one sampler walk over
//      eight slots, and the whole-workload slowdown of 1 kHz background
//      sampling (acceptance: pair < 5 ns, slowdown < 2%, NOOP at zero);
//  10. the time-series plane: one TimeSeriesStore sampling tick over a
//      1k-series registry, idle and fully-changed (acceptance: idle tick
//      < 5 us), windowed queries against a full ring, and one SloMonitor
//      evaluation of a two-rule burn-rate set;
//  11. the span plane: mint+finish pair with and without a collector
//      running (tracing-off acceptance: <= 1 ns over the bare loop), four
//      threads closing root+child pairs at once,
//      SpanScope enter/exit, traced vs untraced frame encode+scan, and
//      the headline end-to-end number — LoadGen RPS against an
//      event-driven echo server at 10k connections, tracing off vs on
//      (acceptance: within 5%).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/framing.hpp"
#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/bench_report.hpp"
#include "obs/federation.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/tsdb.hpp"
#include "parallel/thread_pool.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using pdc::obs::MetricsRegistry;
using pdc::support::Stopwatch;
using pdc::support::TextTable;

namespace {

// Keeps the compiler from deleting the measured loop body.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  Stopwatch watch;
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  return watch.elapsed_seconds() * 1e9 / static_cast<double>(iters);
}

/// Fills the registry with a telemetry-plausible population: mostly
/// counters, some gauges, some histograms with spread-out samples.
void populate_registry(std::size_t counters, std::size_t gauges,
                       std::size_t histograms) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  for (std::size_t i = 0; i < counters; ++i) {
    registry.counter("bench.obs.counter." + std::to_string(i)).inc(i * 7 + 1);
  }
  for (std::size_t i = 0; i < gauges; ++i) {
    registry.gauge("bench.obs.gauge." + std::to_string(i))
        .add(static_cast<std::int64_t>(i));
  }
  for (std::size_t i = 0; i < histograms; ++i) {
    auto& hist = registry.histogram("bench.obs.hist." + std::to_string(i));
    for (std::uint64_t v = 0; v < 256; ++v) hist.record(v * (i + 1));
  }
}

}  // namespace

int main() {
  pdc::obs::BenchReport report("perf_obs");
  std::cout << "=== PERF-OBS: what the observability plane costs ===\n\n";
  report.add_metric("obs_enabled", pdc::obs::kObsEnabled ? 1.0 : 0.0);

  {
    constexpr std::size_t kIters = 1 << 21;
    const double baseline = ns_per_op(kIters, [](std::size_t i) {
      g_sink = g_sink + i;  // the loop itself
    });
    const double counter = ns_per_op(kIters, [](std::size_t i) {
      g_sink = g_sink + i;
      PDC_OBS_COUNT("bench.hot.counter");
    });
    const double gauge = ns_per_op(kIters, [](std::size_t i) {
      g_sink = g_sink + i;
      PDC_OBS_GAUGE_ADD("bench.hot.gauge", 1);
      PDC_OBS_GAUGE_SUB("bench.hot.gauge", 1);
    });
    const double hist = ns_per_op(kIters, [](std::size_t i) {
      g_sink = g_sink + i;
      PDC_OBS_HIST("bench.hot.hist", i & 1023);
    });

    TextTable table("1. Hot-path instrumentation cost (single thread)");
    table.set_header({"operation", "ns/op", "overhead vs empty loop"});
    const auto overhead = [&](double cost) {
      return baseline > 0.0 ? cost / baseline : 0.0;
    };
    table.add_row({"empty loop", TextTable::num(baseline, 2), "1.00"});
    table.add_row({"PDC_OBS_COUNT", TextTable::num(counter, 2),
                   TextTable::num(overhead(counter), 2)});
    table.add_row({"gauge add+sub", TextTable::num(gauge, 2),
                   TextTable::num(overhead(gauge), 2)});
    table.add_row({"PDC_OBS_HIST", TextTable::num(hist, 2),
                   TextTable::num(overhead(hist), 2)});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("hot.baseline.ns", baseline);
    report.add_metric("hot.counter.ns", counter);
    report.add_metric("hot.gauge.ns", gauge);
    report.add_metric("hot.hist.ns", hist);
    report.add_metric("hot.counter.overhead", overhead(counter));
    report.add_metric("hot.hist.overhead", overhead(hist));
    std::cout << "(rebuild with -DPDCKIT_OBS_NOOP=ON and the macro rows "
                 "collapse onto the empty loop)\n\n";
  }

  {
    populate_registry(/*counters=*/64, /*gauges=*/16, /*histograms=*/16);
    constexpr std::size_t kIters = 200;

    Stopwatch scrape_watch;
    std::size_t samples = 0;
    for (std::size_t i = 0; i < kIters; ++i) {
      samples = MetricsRegistry::instance().scrape().samples.size();
    }
    const double scrape_us =
        scrape_watch.elapsed_micros() / static_cast<double>(kIters);

    const auto snapshot = MetricsRegistry::instance().scrape();
    Stopwatch text_watch;
    std::size_t text_bytes = 0;
    for (std::size_t i = 0; i < kIters; ++i) {
      text_bytes = pdc::obs::prometheus_exposition(snapshot).size();
    }
    const double text_us =
        text_watch.elapsed_micros() / static_cast<double>(kIters);

    Stopwatch json_watch;
    std::size_t json_bytes = 0;
    for (std::size_t i = 0; i < kIters; ++i) {
      json_bytes = snapshot.to_json().size();
    }
    const double json_us =
        json_watch.elapsed_micros() / static_cast<double>(kIters);

    Stopwatch delta_watch;
    for (std::size_t i = 0; i < kIters; ++i) {
      g_sink = pdc::obs::delta_json(snapshot, snapshot, i).size();
    }
    const double delta_us =
        delta_watch.elapsed_micros() / static_cast<double>(kIters);

    const auto mb_per_s = [](std::size_t bytes, double us) {
      return us > 0.0 ? static_cast<double>(bytes) / us : 0.0;  // B/us == MB/s
    };
    TextTable table("2. Scrape + render over a populated registry");
    table.set_header({"stage", "us/call", "bytes", "MB/s"});
    table.add_row({"scrape (" + std::to_string(samples) + " metrics)",
                   TextTable::num(scrape_us, 2), "-", "-"});
    table.add_row({"prometheus text", TextTable::num(text_us, 2),
                   std::to_string(text_bytes),
                   TextTable::num(mb_per_s(text_bytes, text_us), 1)});
    table.add_row({"metrics json", TextTable::num(json_us, 2),
                   std::to_string(json_bytes),
                   TextTable::num(mb_per_s(json_bytes, json_us), 1)});
    table.add_row({"delta frame (idle)", TextTable::num(delta_us, 2), "-", "-"});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("scrape.us", scrape_us);
    report.add_metric("render.text.us", text_us);
    report.add_metric("render.text.mb_per_s", mb_per_s(text_bytes, text_us));
    report.add_metric("render.json.us", json_us);
    report.add_metric("render.json.mb_per_s", mb_per_s(json_bytes, json_us));
    report.add_metric("delta_frame.us", delta_us);
    std::cout << '\n';
  }

  {
    constexpr std::size_t kGets = 200;
    pdc::net::NetConfig config;
    config.latency_ms = 0.01;
    pdc::net::Network net(2, config);
    pdc::obs::TelemetryServer server(net, /*host=*/0, /*port=*/9100);
    pdc::obs::TelemetryClient client(net, /*host=*/1);
    if (!client.connect(server.address()).is_ok()) {
      std::cerr << "telemetry connect failed\n";
      return 1;
    }
    Stopwatch watch;
    for (std::size_t i = 0; i < kGets; ++i) {
      g_sink = client.get("/metrics").value().size();
    }
    const double get_us = watch.elapsed_micros() / static_cast<double>(kGets);
    client.close();
    server.stop();

    TextTable table("3. Telemetry plane round trip (GET /metrics over net)");
    table.set_header({"round trips", "us/get"});
    table.add_row({std::to_string(kGets), TextTable::num(get_us, 2)});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("telemetry.get_metrics.us", get_us);
    std::cout << '\n';
  }

  {
    constexpr std::size_t kIters = 1 << 18;
    auto& registry = MetricsRegistry::instance();
    auto& cached = registry.counter("bench.label.cached");
    const double cached_ns =
        ns_per_op(kIters, [&cached](std::size_t) { cached.inc(); });
    const double flat_ns = ns_per_op(kIters, [&registry](std::size_t) {
      registry.counter("bench.label.flat").inc();
    });
    const double labeled_ns = ns_per_op(kIters, [&registry](std::size_t) {
      registry.counter("bench.label.labeled", {{"rank", "3"}}).inc();
    });

    TextTable table("4. Label lookup cost (why hot paths cache the ref)");
    table.set_header({"lookup", "ns/op"});
    table.add_row({"cached reference", TextTable::num(cached_ns, 2)});
    table.add_row({"flat name (transparent probe)", TextTable::num(flat_ns, 2)});
    table.add_row({"labeled (canonicalize + intern)",
                   TextTable::num(labeled_ns, 2)});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("labels.cached.ns", cached_ns);
    report.add_metric("labels.flat_lookup.ns", flat_ns);
    report.add_metric("labels.labeled_lookup.ns", labeled_ns);
    std::cout << '\n';
  }

  {
    // The federation algebra: bucket-wise histogram merges and the full
    // snapshot merge over four populated sources.
    pdc::obs::Histogram source_hist;
    for (std::uint64_t v = 0; v < 4096; ++v) source_hist.record(v * 3);
    const auto source_snap = source_hist.snapshot();
    constexpr std::size_t kMerges = 1 << 16;
    pdc::obs::Histogram::Snapshot accumulator;
    Stopwatch merge_watch;
    for (std::size_t i = 0; i < kMerges; ++i) accumulator.merge(source_snap);
    const double merge_ns =
        merge_watch.elapsed_seconds() * 1e9 / static_cast<double>(kMerges);
    g_sink = accumulator.count;

    populate_registry(/*counters=*/64, /*gauges=*/16, /*histograms=*/16);
    std::vector<pdc::obs::SourceSnapshot> sources;
    for (int r = 0; r < 4; ++r) {
      sources.push_back(
          {std::to_string(r), MetricsRegistry::instance().scrape()});
    }
    constexpr std::size_t kFederated = 200;
    Stopwatch fed_watch;
    std::size_t merged_series = 0;
    for (std::size_t i = 0; i < kFederated; ++i) {
      merged_series = pdc::obs::merge_federated(sources).samples.size();
    }
    const double fed_us =
        fed_watch.elapsed_micros() / static_cast<double>(kFederated);

    TextTable table("5. Merge algebra (bucket merge + merge_federated)");
    table.set_header({"operation", "cost"});
    table.add_row({"histogram snapshot merge",
                   TextTable::num(merge_ns, 2) + " ns"});
    table.add_row({"merge_federated 4x96 series -> " +
                       std::to_string(merged_series),
                   TextTable::num(fed_us, 2) + " us"});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("merge.hist_snapshot.ns", merge_ns);
    report.add_metric("merge.federated.us", fed_us);
    std::cout << '\n';
  }

  {
    // End-to-end federation: four per-rank registries behind their own
    // servers, one aggregator fanning out, merging, and rendering.
    constexpr int kRanks = 4;
    constexpr std::size_t kScrapes = 100;
    pdc::net::NetConfig config;
    config.latency_ms = 0.01;
    pdc::net::Network net(kRanks + 2, config);
    std::vector<std::unique_ptr<MetricsRegistry>> registries;
    std::vector<std::unique_ptr<pdc::obs::TelemetryServer>> servers;
    std::vector<pdc::obs::ScrapeTarget> targets;
    for (int r = 0; r < kRanks; ++r) {
      registries.push_back(std::make_unique<MetricsRegistry>());
      for (std::size_t i = 0; i < 32; ++i) {
        registries.back()
            ->counter("bench.fed.counter." + std::to_string(i))
            .inc(i + 1);
      }
      auto& hist = registries.back()->histogram("bench.fed.lat_us");
      for (std::uint64_t v = 0; v < 512; ++v) hist.record(v * (r + 1));
      pdc::obs::TelemetryConfig tconfig;
      tconfig.registry = registries.back().get();
      servers.push_back(std::make_unique<pdc::obs::TelemetryServer>(
          net, r, 9100, tconfig));
      targets.push_back({servers.back()->address(), std::to_string(r)});
    }
    pdc::obs::Aggregator aggregator(net, kRanks, 9200, std::move(targets));

    Stopwatch direct_watch;
    for (std::size_t i = 0; i < kScrapes; ++i) {
      g_sink = aggregator.federate().samples.size();
    }
    const double direct_us =
        direct_watch.elapsed_micros() / static_cast<double>(kScrapes);

    pdc::obs::TelemetryClient client(net, kRanks + 1);
    if (!client.connect(aggregator.address()).is_ok()) {
      std::cerr << "aggregator connect failed\n";
      return 1;
    }
    Stopwatch get_watch;
    for (std::size_t i = 0; i < kScrapes; ++i) {
      g_sink = client.get("/metrics").value().size();
    }
    const double get_us =
        get_watch.elapsed_micros() / static_cast<double>(kScrapes);
    client.close();

    TextTable table("6. Federated scrape (4 ranks -> aggregator)");
    table.set_header({"path", "us/scrape"});
    table.add_row({"federate() fan-out + merge", TextTable::num(direct_us, 2)});
    table.add_row({"GET /metrics via aggregator", TextTable::num(get_us, 2)});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("fed.federate.us", direct_us);
    report.add_metric("fed.get_metrics.us", get_us);
    std::cout << '\n';
  }

  {
    auto& prof = pdc::obs::Profiler::instance();
    prof.reset();
    pdc::obs::WorkerSlot* slot = prof.register_worker("bench.obs.w0");
    pdc::obs::Profiler::bind_current_thread(slot);
    const std::uint32_t label = prof.intern_label("bench.task");

    constexpr std::size_t kIters = 1 << 21;
    const double baseline = ns_per_op(kIters, [](std::size_t i) {
      g_sink = g_sink + i;
    });
    const double publish = ns_per_op(kIters, [&](std::size_t i) {
      pdc::obs::publish_worker_state(i & 1
                                         ? pdc::obs::WorkerState::kRunning
                                         : pdc::obs::WorkerState::kIdle,
                                     label);
      g_sink = g_sink + i;
    });
    const double pair = ns_per_op(kIters, [&](std::size_t i) {
      pdc::obs::ProfiledTask task(label);
      g_sink = g_sink + i;
    });

    // One sampler walk over a realistic slot population.
    std::vector<pdc::obs::WorkerSlot*> extra;
    for (int i = 1; i < 8; ++i) {
      extra.push_back(
          prof.register_worker("bench.obs.w" + std::to_string(i)));
    }
    const double sample_us =
        ns_per_op(1 << 12, [&](std::size_t) { prof.sample_once(); }) / 1e3;
    prof.reset();

    // Whole-workload slowdown of continuous 1 kHz sampling: the same
    // pool workload with the background sampler off, then on.
    const auto pool_workload = [] {
      Stopwatch watch;
      pdc::parallel::ThreadPool pool(4);
      std::atomic<std::uint64_t> acc{0};
      for (int i = 0; i < 50000; ++i) {
        (void)pool.post([&acc, i] {
          acc.fetch_add(static_cast<std::uint64_t>(i),
                        std::memory_order_relaxed);
        });
      }
      pool.shutdown();
      g_sink = acc.load();
      return watch.elapsed_seconds();
    };
    const double off_s = pool_workload();
    prof.start(/*period_us=*/1000);
    const double on_s = pool_workload();
    prof.stop();
    const double slowdown = off_s > 0 ? on_s / off_s : 1.0;
    prof.reset();
    for (auto* s : extra) prof.release_worker(s);
    pdc::obs::Profiler::bind_current_thread(nullptr);
    prof.release_worker(slot);

    TextTable table("7. Profiling plane (slots, sampler, 1 kHz overhead)");
    table.set_header({"operation", "cost"});
    table.add_row({"loop baseline", TextTable::num(baseline, 2) + " ns"});
    table.add_row({"slot publish (1 store)", TextTable::num(publish, 2) + " ns"});
    table.add_row({"ProfiledTask pair", TextTable::num(pair, 2) + " ns"});
    table.add_row({"sample_once, 8 slots", TextTable::num(sample_us, 3) + " us"});
    table.add_row({"1 kHz sampling slowdown", TextTable::num(slowdown, 4) + "x"});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("profile.slot_publish.ns", publish);
    report.add_metric("profile.task_pair.ns", pair);
    report.add_metric("profile.sample_once.us", sample_us);
    report.add_metric("profile.sampling_1khz.overhead", slowdown);
    std::cout << '\n';
  }

  {
    // The span plane's hot costs. "Tracing off" is the price every
    // request pays when no SpanCollector session is running — the
    // span_root/span_end pair must collapse onto the zero check.
    constexpr std::size_t kIters = 1 << 21;
    MetricsRegistry::instance().reset();
    const double baseline = ns_per_op(kIters, [](std::size_t i) {
      g_sink = g_sink + i;
    });
    const double off_pair = ns_per_op(kIters, [](std::size_t i) {
      auto span = pdc::obs::span_root("bench.request", i + 1);
      g_sink = g_sink + i;
      pdc::obs::span_end(span);
    });

    pdc::obs::SpanCollectorConfig span_config;
    span_config.keep_slowest = 8;
    pdc::obs::SpanCollector collector(span_config);
    collector.start();
    const double on_pair = ns_per_op(kIters, [](std::size_t i) {
      auto span = pdc::obs::span_root("bench.request", i + 1);
      g_sink = g_sink + i;
      pdc::obs::span_end(span);
    });
    const double scope_ns = ns_per_op(kIters, [](std::size_t i) {
      pdc::obs::SpanScope scope(pdc::obs::SpanContext{i + 1, 1});
      g_sink = g_sink + i;
    });
    // Four threads closing root+child pairs at once: what span_end costs
    // when every request thread closes spans. Wall time over one thread's
    // pair count, so perfect scaling reads like the uncontended pair.
    constexpr int kPairThreads = 4;
    constexpr std::size_t kThreadPairs = 1 << 16;
    Stopwatch contended;
    std::vector<std::thread> pair_threads;
    for (int t = 0; t < kPairThreads; ++t) {
      pair_threads.emplace_back([t] {
        const std::uint64_t first = (static_cast<std::uint64_t>(t) + 1) << 40;
        for (std::size_t i = 0; i < kThreadPairs; ++i) {
          auto root = pdc::obs::span_root("bench.request", first + i);
          auto child = pdc::obs::span_begin("bench.child", root.context());
          pdc::obs::span_end(child);
          pdc::obs::span_end(root);
        }
      });
    }
    for (auto& thread : pair_threads) thread.join();
    const double on_pair_4t =
        contended.elapsed_seconds() * 1e9 / static_cast<double>(kThreadPairs);
    collector.stop();

    // Frame codec: the 16-byte trace header is absent from untraced
    // frames, so the untraced encode+scan pair is the no-regression row.
    const pdc::net::Bytes payload = pdc::net::to_bytes("0123456789abcdef");
    const auto codec_ns = [&payload](pdc::obs::SpanContext ctx) {
      pdc::net::Bytes wire;
      return ns_per_op(1 << 18, [&payload, &wire, ctx](std::size_t) {
        wire.clear();
        pdc::net::MessageCodec::encode_message(payload, wire, ctx);
        std::size_t offset = 0;
        pdc::net::BytesView view;
        pdc::obs::SpanContext seen;
        const auto scan =
            pdc::net::MessageCodec::scan_message(wire, offset, view, seen);
        g_sink = scan == pdc::net::MessageCodec::Scan::kFrame ? view.size : 0;
      });
    };
    const double untraced_codec = codec_ns(pdc::obs::SpanContext{});
    const double traced_codec = codec_ns(pdc::obs::SpanContext{42, 7});

    TextTable table("8. Span plane (mint/finish, scope, frame codec)");
    table.set_header({"operation", "ns/op", "vs baseline"});
    const auto delta = [&](double cost) {
      return TextTable::num(cost - baseline, 2) + " ns";
    };
    table.add_row({"loop baseline", TextTable::num(baseline, 2), "-"});
    table.add_row({"span pair, tracing off", TextTable::num(off_pair, 2),
                   delta(off_pair)});
    table.add_row({"span pair, collector running", TextTable::num(on_pair, 2),
                   delta(on_pair)});
    table.add_row({"root+child pair, 4 threads at once",
                   TextTable::num(on_pair_4t, 2), delta(on_pair_4t)});
    table.add_row({"SpanScope enter/exit", TextTable::num(scope_ns, 2),
                   delta(scope_ns)});
    table.add_row({"frame encode+scan, untraced",
                   TextTable::num(untraced_codec, 2), "-"});
    table.add_row({"frame encode+scan, traced (+16B header)",
                   TextTable::num(traced_codec, 2), "-"});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("span.baseline.ns", baseline);
    report.add_metric("span.pair_off.ns", off_pair);
    report.add_metric("span.pair_off.overhead_ns", off_pair - baseline);
    report.add_metric("span.pair_on.ns", on_pair);
    report.add_metric("span.pair_on_4t.ns", on_pair_4t);
    report.add_metric("span.scope.ns", scope_ns);
    report.add_metric("span.codec_untraced.ns", untraced_codec);
    report.add_metric("span.codec_traced.ns", traced_codec);
    std::cout << "(acceptance: tracing-off span pair within 1 ns of the "
                 "bare loop)\n\n";
  }

  {
    // The headline: does minting a root span per request and carrying it
    // through the frame header move the load generator's throughput?
    // Same 10k-connection storm against the event-driven echo server,
    // tracing off then on (collector running, tail-keep 32).
    pdc::net::NetConfig config;
    config.latency_ms = 0.01;
    pdc::net::Network net(5, config);
    pdc::net::ServerConfig server_config;
    server_config.model = pdc::net::ThreadingModel::kEventDriven;
    server_config.workers = 3;
    server_config.view_handler = [](pdc::net::BytesView request) {
      return request.to_owned();
    };
    pdc::net::Server server(net, 0, 80, nullptr, server_config);

    pdc::net::LoadGenConfig load;
    load.connections = 10'000;
    load.requests = 50'000;
    load.duration_s = 0.4;
    load.drivers = 2;
    load.first_client_host = 1;
    load.client_hosts = 4;
    load.seed = 0x0b5;
    pdc::net::LoadGen gen(net, server.address());

    const auto report_off = gen.run(load);

    MetricsRegistry::instance().reset();
    pdc::obs::SpanCollectorConfig span_config;
    span_config.keep_slowest = 32;
    pdc::obs::SpanCollector collector(span_config);
    collector.start();
    load.trace = true;
    const auto report_on = gen.run(load);
    collector.stop();
    server.stop();

    const double ratio =
        report_off.rps > 0.0 ? report_on.rps / report_off.rps : 0.0;
    TextTable table("9. LoadGen 10k connections, tracing off vs on");
    table.set_header({"mode", "rps", "p99 us", "answered"});
    table.add_row({"tracing off",
                   TextTable::num(report_off.rps, 0),
                   TextTable::num(report_off.p99_us, 0),
                   std::to_string(report_off.received)});
    table.add_row({"tracing on (tail-keep 32)",
                   TextTable::num(report_on.rps, 0),
                   TextTable::num(report_on.p99_us, 0),
                   std::to_string(report_on.received)});
    table.add_row({"on/off rps ratio", TextTable::num(ratio, 3), "-", "-"});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("span.loadgen_off.rps", report_off.rps);
    report.add_metric("span.loadgen_on.rps", report_on.rps);
    report.add_metric("span.loadgen.on_off_ratio", ratio);
    std::cout << "(acceptance: ratio within 0.95; kept "
              << collector.traces_kept() << " of "
              << collector.traces_completed() << " traces)\n\n";
  }

  {
    // The time-series plane. A sampling tick visits every series in the
    // registry; the delta rings make an idle tick (nothing changed since
    // the last one) the common case, so that is the acceptance number.
    // Queries and the SloMonitor then run against a deliberately full
    // ring — eviction and window scans at their worst.
    constexpr std::size_t kSeries = 1000;
    MetricsRegistry tsdb_registry;
    for (std::size_t i = 0; i < kSeries; ++i) {
      tsdb_registry.counter("bench.tsdb.c." + std::to_string(i))
          .inc(i * 3 + 1);
    }
    auto& lat = tsdb_registry.histogram("bench.tsdb.lat_us");
    pdc::obs::TsdbConfig tsdb_config;
    tsdb_config.registry = &tsdb_registry;
    pdc::obs::TimeSeriesStore store(tsdb_config);

    constexpr std::uint64_t kT0 = 1'000'000;
    constexpr std::uint64_t kStepUs = 10'000;
    constexpr std::size_t kWarmTicks = 2000;
    for (std::size_t t = 0; t < kWarmTicks; ++t) {
      lat.record((t % 512) * 4);
      store.sample_once_at(kT0 + t * kStepUs);
    }
    std::uint64_t now = kT0 + kWarmTicks * kStepUs;

    // Min over batches: the idle tick is deterministic work, so the best
    // batch is the cost and the rest is scheduler/frequency noise.
    constexpr std::size_t kTicks = 2000;
    constexpr std::size_t kBatchTicks = 100;
    double idle_us = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < kTicks / kBatchTicks; ++b) {
      Stopwatch idle_watch;
      for (std::size_t t = 0; t < kBatchTicks; ++t) {
        store.sample_once_at(now + (b * kBatchTicks + t) * kStepUs);
      }
      idle_us = std::min(
          idle_us,
          idle_watch.elapsed_micros() / static_cast<double>(kBatchTicks));
    }
    now += kTicks * kStepUs;

    // Fully-changed tick: every counter moved since the last sample. The
    // bump loop is timed separately and subtracted.
    const auto bump_all = [&] {
      for (std::size_t i = 0; i < kSeries; ++i) {
        tsdb_registry.counter("bench.tsdb.c." + std::to_string(i)).inc();
      }
    };
    Stopwatch bump_watch;
    for (std::size_t t = 0; t < kTicks; ++t) bump_all();
    const double bump_us =
        bump_watch.elapsed_micros() / static_cast<double>(kTicks);
    Stopwatch changed_watch;
    for (std::size_t t = 0; t < kTicks; ++t) {
      bump_all();
      store.sample_once_at(now + t * kStepUs);
    }
    const double changed_us =
        changed_watch.elapsed_micros() / static_cast<double>(kTicks) - bump_us;
    now += kTicks * kStepUs;
    const std::uint64_t last_tick = now - kStepUs;

    constexpr std::size_t kQueries = 1 << 12;
    const double rate_us = ns_per_op(kQueries, [&](std::size_t) {
      g_sink = static_cast<std::uint64_t>(
          store.rate("bench.tsdb.c.0", 1'000'000).value_or(0.0));
    }) / 1e3;
    const double quantile_us = ns_per_op(kQueries, [&](std::size_t) {
      g_sink = static_cast<std::uint64_t>(
          store.quantile_over_time("bench.tsdb.lat_us", 1'000'000, 0.99)
              .value_or(0.0));
    }) / 1e3;
    const double query_json_us = ns_per_op(kQueries, [&](std::size_t) {
      g_sink = store.query_json("rate(bench.tsdb.c.0)", 1'000'000).size();
    }) / 1e3;

    pdc::obs::SloMonitor monitor(&store);
    monitor.add_rule(pdc::obs::availability_slo(
        "bench.avail", "bench.tsdb.c.0", "bench.tsdb.c.1", 0.999, 1.0));
    monitor.add_rule(pdc::obs::latency_slo("bench.p99", "bench.tsdb.lat_us",
                                           0.99, 1000.0, 1.0));
    const double evaluate_us = ns_per_op(kQueries, [&](std::size_t) {
      monitor.evaluate(last_tick);
    }) / 1e3;

    TextTable table("10. Time-series plane (tick, queries, burn rates)");
    table.set_header({"operation", "us/op"});
    table.add_row({"sampling tick, 1k series idle", TextTable::num(idle_us, 2)});
    table.add_row({"sampling tick, 1k series changed",
                   TextTable::num(changed_us, 2)});
    table.add_row({"rate() over 1s window", TextTable::num(rate_us, 3)});
    table.add_row({"quantile_over_time p99, 1s", TextTable::num(quantile_us, 3)});
    table.add_row({"/query body render", TextTable::num(query_json_us, 3)});
    table.add_row({"SloMonitor.evaluate, 2 rules", TextTable::num(evaluate_us, 3)});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("tsdb.tick_idle.us", idle_us);
    report.add_metric("tsdb.tick_changed.us", changed_us);
    report.add_metric("tsdb.query_rate.us", rate_us);
    report.add_metric("tsdb.query_quantile.us", quantile_us);
    report.add_metric("tsdb.query_json.us", query_json_us);
    report.add_metric("tsdb.slo_evaluate.us", evaluate_us);
    std::cout << "(acceptance: idle tick under 5 us per 1k series; "
              << store.retained_total() << " samples retained, "
              << store.evicted_total() << " evicted)\n\n";
  }

  report.write_if_requested();
  return 0;
}
