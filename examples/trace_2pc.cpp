// trace_2pc — a guided tour of pdc::obs (docs/observability.md walks
// through the output).
//
// Part 1 exercises the instrumented runtime from free-running threads
// (contended locks, a thread-pool burst) so the metrics registry has
// something to say about synchronization costs.
//
// Part 2 runs two-phase commit over three ranks on a lossy fabric, under
// testkit::SimScheduler with a fixed seed, with a TraceCollector
// attached. The exported Chrome trace JSON (default: trace_2pc.json, or
// argv[1]) loads in ui.perfetto.dev / chrome://tracing: one track per
// rank, spans for the protocol phases, and flow arrows stitching every
// PREPARE/VOTE/DECISION/ACK — including the retransmissions the fault
// injector forces — into a single causal tree. Because both the schedule
// and the trace ids are seed-deterministic, re-running this binary
// produces the identical file.
#include <atomic>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "concurrency/spinlock.hpp"
#include "dist/two_phase_commit.hpp"
#include "mp/world.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/sim_scheduler.hpp"

using namespace pdc;

namespace {

// Part 1: make the runtime's own instrumentation light up — contended
// lock acquisitions and thread-pool spawn/run/steal counts.
void warm_up_runtime_metrics() {
  concurrency::TtasLock lock;
  long shared = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        std::scoped_lock guard(lock);
        ++shared;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  parallel::ThreadPool pool(2);
  std::atomic<long> sink{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&sink] {
      long s = 0;
      for (int k = 0; k < 1000; ++k) s += k;
      sink += s;
    });
  }
  pool.shutdown();
  std::cout << "part 1: " << shared << " locked increments + 64 pool tasks\n";
}

// Part 2: fixed-seed lossy 2PC under the sim scheduler, traced.
std::string traced_lossy_2pc() {
  obs::TraceCollector collector;
  collector.start();

  mp::World world(3);
  testkit::FaultConfig faults;
  faults.drop = 0.25;  // force retransmission rounds into the trace
  faults.seed = 99;
  world.set_fault_injector(std::make_shared<testkit::FaultInjector>(faults));

  std::vector<dist::TpcStats> stats(3);
  auto bodies = world.rank_bodies([&stats](mp::Communicator& comm) {
    stats[static_cast<std::size_t>(comm.rank())] =
        comm.rank() == 0
            ? dist::run_2pc_coordinator(comm)
            : dist::run_2pc_participant(comm, /*vote_commit=*/true);
  });

  testkit::SchedulerOptions options;
  options.policy = testkit::SchedulePolicy::kRandom;
  options.seed = 2026;
  options.max_steps = 1u << 22;
  testkit::SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  collector.stop();

  std::cout << "part 2: 2pc over lossy fabric, sim seed " << options.seed
            << " (" << report.steps << " scheduler steps, "
            << report.sim_duration * 1e3 << " virtual ms)\n";
  for (int r = 0; r < 3; ++r) {
    const auto& s = stats[static_cast<std::size_t>(r)];
    std::cout << "  rank " << r << ": " << dist::to_string(s.decision) << ", "
              << s.messages_sent << " protocol messages sent\n";
  }
  std::cout << "  trace: " << collector.event_count() << " events ("
            << collector.dropped_events() << " dropped)\n";
  return collector.chrome_trace_json();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "trace_2pc.json";

  warm_up_runtime_metrics();
  const std::string trace = traced_lossy_2pc();

  std::ofstream out(path, std::ios::binary);
  out << trace;
  if (!out) {
    std::cerr << "failed to write " << path << '\n';
    return 1;
  }
  out.close();
  std::cout << "\nwrote " << path
            << " — open it at https://ui.perfetto.dev (or chrome://tracing); "
               "follow the flow arrows from the coordinator's 2pc.prepare "
               "span to each participant and back\n\n";

  std::cout << "metrics registry after both parts:\n";
  obs::MetricsRegistry::instance().scrape().render(std::cout);
  return 0;
}
