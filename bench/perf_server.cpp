// Experiment PERF-SERVER — the three net::Server threading models under
// identical open-loop load (net::LoadGen), swept across connection counts.
//
// The question each row answers is the paper's capacity question: how many
// concurrent clients can one host multiplex, and what happens to tail
// latency when the model runs out? Thread-per-connection spends a thread
// per client and dies by context-switch; the worker pool holds a
// connection per worker until the client hangs up, so every connection
// beyond `workers` starves in the accept queue; the event-driven engine's
// workers take turns polling one ReadySet and serve what they take
// (Leader/Followers), the only model that reaches 10^5..10^6 connections.
//
// Open-loop latency (measured from each request's *scheduled* send time)
// makes the starvation visible as p99/p999 blowup instead of silently
// slowing the generator down — the coordinated-omission trap described in
// docs/serving.md.
//
//   - thread-per-connection runs only at <= 2048 connections (a thread per
//     simulated client; beyond that the row measures thread creation).
//   - PDCKIT_PERF_SERVER_XL=1 adds a 1M-connection event-driven row
//     (skipped by default: the connect phase alone takes tens of seconds).
//
// JSON via PDCKIT_BENCH_JSON (obs::BenchReport); compared across commits
// by bench/compare.py against BENCH_baseline.json.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/bench_report.hpp"
#include "support/table.hpp"

namespace {

using namespace pdc::net;
using pdc::support::TextTable;

constexpr std::size_t kWorkers = 3;  // equal hardware threads for pool/event

const char* model_key(ThreadingModel model) {
  switch (model) {
    case ThreadingModel::kThreadPerConnection:
      return "tpc";
    case ThreadingModel::kWorkerPool:
      return "pool";
    case ThreadingModel::kEventDriven:
      return "event";
  }
  return "?";
}

struct Row {
  ThreadingModel model;
  std::size_t connections;
  LoadGenReport report;
};

Row run_model(ThreadingModel model, std::size_t connections,
              std::size_t requests) {
  NetConfig net_config;
  net_config.latency_ms = 0.01;
  Network net(5, net_config);

  ServerConfig server_config;
  server_config.model = model;
  server_config.workers = kWorkers;
  // Zero-copy echo: the handler cost is identical across models, so the
  // rows isolate the threading model itself.
  server_config.view_handler = [](BytesView request) {
    return request.to_owned();
  };
  Server server(net, 0, 80, nullptr, server_config);

  LoadGenConfig load;
  load.connections = connections;
  load.requests = requests;
  load.duration_s = 0.5;
  load.grace_s = 0.75;  // bounded wait for models that starve connections
  load.curve = ArrivalCurve::kConstant;
  load.drivers = 2;
  load.first_client_host = 1;
  load.client_hosts = 4;
  LoadGen gen(net, server.address());
  Row row{model, connections, gen.run(load)};
  server.stop();
  return row;
}

std::string ckey(std::size_t connections) {
  return "c" + std::to_string(connections);
}

}  // namespace

int main() {
  pdc::obs::BenchReport report("perf_server");
  std::cout << "=== PERF-SERVER: threading models under open-loop load ===\n"
            << "(echo server, " << kWorkers
            << " workers, open-loop latency from scheduled send time)\n\n";

  TextTable table("Threading models x connection count");
  table.set_header({"conns", "model", "sent", "answered", "rps", "p50 us",
                    "p99 us", "p999 us"});

  std::vector<std::size_t> sweep{256, 2048, 20000, 100000};
  const bool xl = std::getenv("PDCKIT_PERF_SERVER_XL") != nullptr;
  if (xl) sweep.push_back(1000000);

  for (const std::size_t connections : sweep) {
    const std::size_t requests = connections <= 2048 ? 50000 : 100000;
    std::vector<ThreadingModel> models;
    if (connections <= 2048) {
      models.push_back(ThreadingModel::kThreadPerConnection);
    }
    if (connections <= 100000) {
      models.push_back(ThreadingModel::kWorkerPool);
    }
    models.push_back(ThreadingModel::kEventDriven);

    double pool_rps = 0.0;
    double event_rps = 0.0;
    for (const ThreadingModel model : models) {
      const Row row = run_model(model, connections, requests);
      const auto& r = row.report;
      const std::string prefix =
          std::string(model_key(model)) + "." + ckey(connections);
      report.add_metric("rps." + prefix + ".per_s", r.rps);
      report.add_metric("p50." + prefix + ".us", r.p50_us);
      report.add_metric("p99." + prefix + ".us", r.p99_us);
      report.add_metric("p999." + prefix + ".us", r.p999_us);
      if (model == ThreadingModel::kWorkerPool) pool_rps = r.rps;
      if (model == ThreadingModel::kEventDriven) event_rps = r.rps;
      table.add_row({std::to_string(connections), model_key(model),
                     std::to_string(r.sent), std::to_string(r.received),
                     TextTable::num(r.rps / 1e3, 1) + "k",
                     TextTable::num(r.p50_us, 0), TextTable::num(r.p99_us, 0),
                     TextTable::num(r.p999_us, 0)});
    }
    if (pool_rps > 0.0 && event_rps > 0.0) {
      report.add_metric("speedup_event_vs_pool." + ckey(connections),
                        event_rps / pool_rps);
    }
  }

  table.render(std::cout);
  report.add_table(table);
  std::cout
      << "(the worker pool parks a connection per worker until the client "
         "hangs up, so answered collapses to ~workers/conns of sent as "
         "connections grow — the starvation the event engine exists to "
         "fix; see docs/serving.md)\n";
  if (!xl) {
    std::cout << "(set PDCKIT_PERF_SERVER_XL=1 for a 1M-connection "
                 "event-driven row)\n";
  }

  report.write_if_requested();
  return 0;
}
