// Experiment PERF-DIST — coordination costs of the distributed algorithms
// (AUC distributed-systems course; RIT middleware unit).
//
// Message-count tables (deterministic — the currency distributed
// algorithms are priced in):
//   1. mutual exclusion: Ricart–Agrawala (2(p-1) messages/entry) vs token
//      ring (hops depend on demand pattern);
//   2. election: Chang–Roberts ring vs bully across ring sizes;
//   3. two-phase commit message count by participant count;
//   4. Chandy–Lamport snapshot: markers are p(p-1) regardless of traffic.
//
// Each run's wall time per operation (World launch included) is also
// reported as a metric, `<protocol>.p<ranks>.us`: every protocol here
// receives through mp's take/try_take, so these rows are the harvest's
// tripwire for the receive path.
#include <atomic>
#include <iostream>
#include <string>

#include "dist/deadlock.hpp"
#include "dist/election.hpp"
#include "dist/mutex.hpp"
#include "dist/snapshot.hpp"
#include "dist/two_phase_commit.hpp"
#include "mp/world.hpp"
#include "obs/bench_report.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace pdc::dist;
using pdc::mp::Communicator;
using pdc::mp::World;
using pdc::support::Stopwatch;
using pdc::support::TextTable;

int main() {
  pdc::obs::BenchReport report("perf_dist_coord");
  const auto per_op_us = [&report](const char* protocol, int p,
                                   const Stopwatch& clock, double ops) {
    report.add_metric(std::string(protocol) + ".p" + std::to_string(p) + ".us",
                      clock.elapsed_micros() / ops);
  };
  std::cout << "=== PERF-DIST: what coordination costs in messages ===\n\n";

  {
    TextTable table("1. Mutual exclusion: messages per critical-section entry");
    table.set_header({"ranks", "Ricart-Agrawala msg/entry", "2(p-1) model",
                      "token-ring hops/entry"});
    constexpr std::size_t kEntries = 20;
    for (int p : {2, 4, 8}) {
      const double entries = static_cast<double>(kEntries) * p;
      std::atomic<std::uint64_t> ra_messages{0};
      World world_ra(p);
      Stopwatch ra_clock;
      world_ra.run([&](Communicator& comm) {
        RicartAgrawala mutex(comm);
        for (std::size_t e = 0; e < kEntries; ++e) {
          mutex.enter();
          mutex.leave();
        }
        mutex.finish();
        ra_messages += mutex.messages_sent();
      });
      per_op_us("mutex.ricart_agrawala", p, ra_clock, entries);
      // Subtract the one-time DONE fan-out to isolate per-entry cost.
      const double ra_per_entry = (static_cast<double>(ra_messages.load()) -
                                   static_cast<double>(p) * (p - 1)) /
                                  entries;

      std::atomic<std::uint64_t> hops{0};
      World world_tr(p);
      Stopwatch ring_clock;
      world_tr.run([&](Communicator& comm) {
        hops += run_token_ring(comm, kEntries, [] {});
      });
      per_op_us("mutex.token_ring", p, ring_clock, entries);
      const double hops_per_entry = static_cast<double>(hops.load()) / entries;

      table.add_row({std::to_string(p), TextTable::num(ra_per_entry, 2),
                     std::to_string(2 * (p - 1)),
                     TextTable::num(hops_per_entry, 2)});
    }
    table.render(std::cout);
    report.add_table(table);
    std::cout << "(RA matches its 2(p-1) bound exactly; the token ring "
                 "amortizes to ~1 hop per entry when everyone wants the "
                 "lock)\n\n";
  }

  {
    TextTable table("2. Leader election messages (all alive, one initiator)");
    table.set_header({"ranks", "Chang-Roberts ring", "bully"});
    for (int p : {3, 5, 8}) {
      std::atomic<std::uint64_t> ring_messages{0};
      World world_ring(p);
      Stopwatch ring_clock;
      world_ring.run([&](Communicator& comm) {
        const std::vector<bool> alive(static_cast<std::size_t>(p), true);
        ring_messages +=
            ring_election(comm, alive, comm.rank() == 0).messages_sent;
      });
      per_op_us("election.ring", p, ring_clock, 1.0);
      std::atomic<std::uint64_t> bully_messages{0};
      World world_bully(p);
      Stopwatch bully_clock;
      world_bully.run([&](Communicator& comm) {
        const std::vector<bool> alive(static_cast<std::size_t>(p), true);
        bully_messages += bully_election(comm, alive, 0).messages_sent;
      });
      per_op_us("election.bully", p, bully_clock, 1.0);
      table.add_row({std::to_string(p), std::to_string(ring_messages.load()),
                     std::to_string(bully_messages.load())});
    }
    table.render(std::cout);
    report.add_table(table);
    std::cout << "(the ring is frugal and linear-ish; bully floods "
                 "challenges upward — O(p^2) worst case — to converge in "
                 "fewer rounds)\n\n";
  }

  {
    TextTable table("3. Two-phase commit messages (unanimous commit)");
    table.set_header({"participants", "total messages", "3(p-1) model"});
    for (int p : {2, 4, 8}) {
      std::atomic<std::uint64_t> messages{0};
      World world(p);
      Stopwatch clock;
      world.run([&](Communicator& comm) {
        const auto stats = comm.rank() == 0
                               ? run_2pc_coordinator(comm)
                               : run_2pc_participant(comm, true);
        messages += stats.messages_sent;
      });
      per_op_us("two_phase_commit", p, clock, 1.0);
      // prepare + vote + decision per participant (+ the prepare itself).
      table.add_row({std::to_string(p - 1), std::to_string(messages.load()),
                     std::to_string(3 * (p - 1))});
    }
    table.render(std::cout);
    report.add_table(table);
    std::cout << "(3 messages per participant: prepare, vote, decision)\n\n";
  }

  {
    TextTable table("4. Chandy-Lamport snapshot marker overhead");
    table.set_header({"ranks", "markers sent", "p(p-1) model", "invariant"});
    for (int p : {2, 4, 6}) {
      std::atomic<std::uint64_t> markers{0};
      std::atomic<std::int64_t> recorded{0};
      constexpr std::int64_t kInitial = 25;
      World world(p);
      Stopwatch clock;
      world.run([&](Communicator& comm) {
        const auto result = run_token_snapshot(comm, kInitial, 150,
                                               comm.rank() == 0, 7);
        markers += result.markers_sent;
        recorded += result.recorded_local + result.recorded_in_flight;
      });
      per_op_us("snapshot", p, clock, 1.0);
      table.add_row({std::to_string(p), std::to_string(markers.load()),
                     std::to_string(p * (p - 1)),
                     recorded.load() == kInitial * p ? "tokens conserved"
                                                     : "VIOLATED"});
    }
    table.render(std::cout);
    report.add_table(table);
    std::cout << "(one marker per directed channel, independent of message "
                 "volume; the recorded global state conserves tokens even "
                 "though no quiescent instant existed)\n";
  }
  report.write_if_requested();
  return 0;
}
