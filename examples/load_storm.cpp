// load_storm — a 50k-connection burst against the event-driven server,
// finished with a deterministic telemetry scrape (docs/serving.md walks
// through the output).
//
// Part 1 opens 50,000 simulated connections with net::LoadGen and drives
// a fixed-seed burst arrival curve at an event-driven echo Server: the
// workers take turns leading one ReadySet poll and serve what they take,
// at a scale no thread-per-connection model could reach on one host.
//
// Part 2 records the run's totals — every one a deterministic function of
// the fixed seed — into a private MetricsRegistry and serves it through a
// TelemetryServer that itself runs ThreadingModel::kEventDriven. The
// /metrics body is written to argv[1] (default load_storm_metrics.txt);
// CI runs the binary twice and byte-compares the two files, the same
// golden-scrape contract the telemetry smokes enforce. Latency quantiles
// are wall-clock and therefore real — they are printed for the human but
// deliberately kept out of the scraped registry.
#include <fstream>
#include <iostream>
#include <string>

#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

using namespace pdc;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "load_storm_metrics.txt";

  // Part 1: the storm. 50k connections, burst curve, fixed seed.
  net::NetConfig net_config;
  net_config.latency_ms = 0.01;
  net::Network net(5, net_config);

  net::ServerConfig server_config;
  server_config.model = net::ThreadingModel::kEventDriven;
  server_config.workers = 3;
  server_config.view_handler = [](net::BytesView request) {
    return request.to_owned();
  };
  net::Server server(net, 0, 80, nullptr, server_config);

  net::LoadGenConfig load;
  load.connections = 50000;
  load.requests = 100000;
  load.duration_s = 0.5;
  load.curve = net::ArrivalCurve::kBurst;
  load.bursts = 4;
  load.burst_height = 8.0;
  load.drivers = 2;
  load.first_client_host = 1;
  load.client_hosts = 4;
  load.seed = 0x570f;
  net::LoadGen gen(net, server.address());
  std::cout << "part 1: driving " << load.requests << " requests over "
            << load.connections << " connections (burst curve)...\n";
  const net::LoadGenReport report = gen.run(load);
  server.stop();
  std::cout << "  connected " << report.connected << ", sent " << report.sent
            << ", answered " << report.received << ", rps "
            << static_cast<std::uint64_t>(report.rps) << "\n"
            << "  open-loop latency us: p50 "
            << static_cast<std::uint64_t>(report.p50_us) << "  p99 "
            << static_cast<std::uint64_t>(report.p99_us) << "  p999 "
            << static_cast<std::uint64_t>(report.p999_us) << "\n\n";

  // Part 2: the deterministic scrape. Only seed-determined totals go into
  // the registry, so two runs serve byte-identical bodies.
  obs::MetricsRegistry registry;
  registry.counter("storm.connections").inc(report.connected);
  registry.counter("storm.sent").inc(report.sent);
  registry.counter("storm.answered").inc(report.received);
  registry.counter("storm.closed_early").inc(report.closed_early);
  registry.counter("storm.connect_failures").inc(report.connect_failures);

  obs::TelemetryConfig telemetry_config;
  telemetry_config.model = net::ThreadingModel::kEventDriven;
  telemetry_config.registry = &registry;
  obs::TelemetryServer telemetry(net, /*host=*/0, /*port=*/9100,
                                 telemetry_config);
  obs::TelemetryClient client(net, /*host=*/1);
  if (!client.connect(telemetry.address()).is_ok()) {
    std::cerr << "telemetry connect failed\n";
    return 1;
  }
  const std::string body = client.get("/metrics").value();
  client.close();
  telemetry.stop();

  std::ofstream out(path);
  out << body;
  out.close();
  std::cout << "part 2: /metrics (served event-driven) -> " << path << "\n"
            << body;

  // The storm must conserve requests: everything sent was answered.
  if (report.sent != report.received || report.closed_early != 0) {
    std::cerr << "request conservation violated\n";
    return 1;
  }
  return 0;
}
