// The clock-rate fault scenario for Raft's leader lease, shared by
// tests/raft_test.cpp (a caught seed, replayed; a passing safe lease) and
// tests/raft_stress_test.cpp (the seed sweeps).
//
// A 3-rank ReplicatedKV cluster elects a leader, which commits a put and
// isolates itself right after its next confirmed heartbeat round. The two
// followers run their clocks at dist::kLeaseClockDrift (the testkit
// clock-rate fault), elect a new leader and acknowledge a put of a new
// value; then the old leader serves a get. The safe lease has lapsed by
// then, so the get falls back to a read-index round that cannot confirm
// and times out, pending in the history. With
// RaftOptions::unsafe_lease_ignores_drift the lease is the full minimum
// election timeout and still holds, and the get returns the overwritten
// value: no linearization exists.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dist/raft.hpp"
#include "dist/replicated_kv.hpp"
#include "mp/world.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/linearizability.hpp"
#include "testkit/schedule_explorer.hpp"

namespace lease_scenario {

inline pdc::testkit::RunPlan make_lease_skew_plan(
    bool unsafe_lease,
    std::shared_ptr<pdc::testkit::HistoryRecorder> recorder) {
  using namespace pdc;
  constexpr int kRanks = 3;
  struct Shared {
    std::atomic<int> leader{-1};  // the first leader, once "old" committed
    std::atomic<bool> isolated{false};
    std::atomic<bool> put_done{false};
    std::atomic<bool> read_done{false};
    std::atomic<int> done{0};
  };
  auto shared = std::make_shared<Shared>();
  auto storage =
      std::make_shared<std::vector<dist::RaftPersistentState>>(kRanks);
  auto injector = std::make_shared<testkit::FaultInjector>();
  auto world = std::make_shared<mp::World>(kRanks);
  world->set_fault_injector(injector);

  testkit::RunPlan plan;
  plan.threads = world->rank_bodies([shared, storage, injector, recorder,
                                     unsafe_lease,
                                     world](mp::Communicator& comm) {
    const int rank = comm.rank();
    dist::KvConfig cfg;
    cfg.raft.seed = 77;
    // min == max: every election timeout, refusal window and lease has one
    // length, so the race below has the same shape on every seed.
    cfg.raft.election_timeout_min_ms = 40.0;
    cfg.raft.election_timeout_max_ms = 40.0;
    cfg.raft.unsafe_lease_ignores_drift = unsafe_lease;
    cfg.op_timeout_ms = 60.0;
    dist::ReplicatedKV kv(comm, (*storage)[static_cast<std::size_t>(rank)],
                          cfg);
    kv.set_recorder(recorder.get());
    auto spin = [&] {
      kv.step();
      testkit::poll_pause("kv.pump", 0.5e-3);
    };

    while (shared->leader.load() == -1) {
      if (kv.is_leader() && kv.put("k", "old").ok()) {
        shared->leader = rank;
      } else {
        spin();
      }
    }
    if (rank == shared->leader.load()) {
      // Isolate right after a confirmed round: the lease has nearly its
      // whole length left, and no follower hears from this leader again.
      const std::uint64_t seen = kv.raft().confirmed_round();
      while (kv.raft().confirmed_round() == seen) spin();
      std::vector<int> rest;
      for (int r = 0; r < kRanks; ++r) {
        if (r != rank) rest.push_back(r);
      }
      injector->partition({{rank}, rest});
      shared->isolated = true;
      while (!shared->put_done.load()) spin();
      (void)kv.get("k");  // from the lease, or a round that cannot confirm
      shared->read_done = true;
    } else {
      testkit::set_clock_rate(dist::kLeaseClockDrift);  // the fault
      while (!shared->isolated.load()) spin();
      while (!shared->put_done.load()) {
        if (kv.is_leader() && kv.put("k", "new").ok()) {
          shared->put_done = true;
        } else {
          spin();
        }
      }
    }
    bool counted = false;
    while (shared->done.load() < kRanks) {
      if (!counted && shared->read_done.load()) {
        ++shared->done;
        counted = true;
      }
      spin();
    }
  });
  plan.check = [recorder] {
    const auto report =
        testkit::LinearizabilityChecker{}.check(recorder->history());
    return report.linearizable() ? std::string{} : report.describe();
  };
  return plan;
}

}  // namespace lease_scenario
