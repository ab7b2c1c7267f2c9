// Raft / ReplicatedKV fault-matrix stress tier (ctest -L stress; registered
// only with PDCKIT_STRESS=ON).
//
// Sweeps FaultInjector configurations — drop x duplicate x reorder x
// partition x crash, plus a clock-rate skew — over many seeds against a
// 3-rank ReplicatedKV cluster. Every run must satisfy two independent
// oracles:
//
//   1. testkit::LinearizabilityChecker over the recorded client history
//      (acknowledged ops took effect exactly once, reads never travel
//      backwards in time, timed-out ops may or may not have applied);
//   2. no committed-entry loss: after the run, every rank's durable log
//      (or snapshot coverage) contains its full committed prefix, and any
//      two ranks agree entry-for-entry up to the smaller commit index.
//
// The headline acceptance sweep runs crash+drop+reorder over 200 seeds.
// The final tests re-arm the unsafe_early_commit and
// unsafe_lease_ignores_drift teaching bugs across seed sweeps and require
// the checker to catch each with a replayable trace; the safe lease must
// pass the same clock-skew scenario on every seed.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/raft.hpp"
#include "dist/replicated_kv.hpp"
#include "lease_scenario.hpp"
#include "mp/world.hpp"
#include "obs/obs.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/linearizability.hpp"
#include "testkit/schedule_explorer.hpp"
#include "testkit/sim_scheduler.hpp"

namespace {

using namespace pdc;
using dist::RaftPersistentState;
using mp::Communicator;
using mp::World;
using testkit::FaultConfig;
using testkit::FaultInjector;
using testkit::SchedulerOptions;
using testkit::SimScheduler;

constexpr int kRanks = 3;

/// One cell of the fault matrix.
struct SweepConfig {
  const char* name;
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  bool partition = false;  // leader isolates itself once, heals ~40ms later
  bool crash = false;      // leader destroys itself once, rejoins ~30ms later
  bool skew = false;       // one follower's clock runs kLeaseClockDrift fast
  std::uint64_t snapshot_threshold = 0;  // exercise compaction under faults
};

/// Per-rank durable/volatile state captured at the end of a run, for the
/// committed-prefix oracle (commit_index itself is volatile, so the body
/// must export it before the scheduler tears the rank down).
struct RankEnd {
  std::uint64_t commit = 0;
};

const dist::RaftLogEntry* entry_at(const RaftPersistentState& st,
                                   std::uint64_t index) {
  if (index <= st.snapshot_index) return nullptr;  // compacted (snapshotted)
  const std::uint64_t offset = index - st.snapshot_index - 1;
  if (offset >= st.log.size()) return nullptr;
  return &st.log[offset];
}

/// No committed-entry loss: every rank can produce (log or snapshot) its
/// whole committed prefix, and committed prefixes agree pairwise.
std::string check_committed_prefix(
    const std::vector<RaftPersistentState>& storage,
    const std::array<RankEnd, kRanks>& ends) {
  for (int r = 0; r < kRanks; ++r) {
    const auto& st = storage[static_cast<std::size_t>(r)];
    for (std::uint64_t idx = st.snapshot_index + 1; idx <= ends[r].commit;
         ++idx) {
      if (entry_at(st, idx) == nullptr) {
        return "rank " + std::to_string(r) + " lost committed entry " +
               std::to_string(idx);
      }
    }
  }
  for (int r = 0; r < kRanks; ++r) {
    for (int s = r + 1; s < kRanks; ++s) {
      const std::uint64_t upto = std::min(ends[r].commit, ends[s].commit);
      for (std::uint64_t idx = 1; idx <= upto; ++idx) {
        const auto* er = entry_at(storage[static_cast<std::size_t>(r)], idx);
        const auto* es = entry_at(storage[static_cast<std::size_t>(s)], idx);
        if (er == nullptr || es == nullptr) continue;  // snapshot-covered
        if (er->term != es->term || er->command != es->command) {
          return "ranks " + std::to_string(r) + "/" + std::to_string(s) +
                 " diverge at committed entry " + std::to_string(idx);
        }
      }
    }
  }
  return {};
}

/// One seeded run of the contended-key workload under `f`. Returns "" on a
/// clean, linearizable, loss-free run; a failure description otherwise.
std::string run_kv_once(const SweepConfig& f, std::uint64_t seed) {
  struct Shared {
    std::atomic<bool> crash_claimed{false};
    std::atomic<bool> partition_claimed{false};
    std::atomic<bool> skew_claimed{false};
    std::atomic<int> heal_state{0};  // 0 intact, 1 partitioned, 2 healed
    std::atomic<long long> heal_at_us{0};
    std::atomic<int> done{0};
    std::array<RankEnd, kRanks> ends{};
  };
  auto shared = std::make_shared<Shared>();
  auto recorder = std::make_shared<testkit::HistoryRecorder>();
  auto storage = std::make_shared<std::vector<RaftPersistentState>>(kRanks);

  FaultConfig faults;
  faults.drop = f.drop;
  faults.duplicate = f.duplicate;
  faults.reorder = f.reorder;
  faults.seed = seed * 2 + 1;
  auto injector = std::make_shared<FaultInjector>(faults);

  World world(kRanks);
  world.set_fault_injector(injector);
  auto bodies = world.rank_bodies([shared, recorder, storage, injector,
                                   f, seed](Communicator& comm) {
    const auto rank = comm.rank();
    dist::KvConfig cfg;
    cfg.raft.seed = 1000 + seed;
    cfg.raft.snapshot_threshold = f.snapshot_threshold;
    cfg.op_timeout_ms = 150.0;
    std::optional<dist::ReplicatedKV> kv(
        std::in_place, comm, (*storage)[static_cast<std::size_t>(rank)], cfg);
    kv->set_recorder(recorder.get());
    std::uint64_t issued = 0;

    auto maybe_crash = [&] {
      if (!f.crash || !kv->is_leader()) return;
      bool expected = false;
      if (!shared->crash_claimed.compare_exchange_strong(expected, true)) {
        return;
      }
      kv.reset();  // leader dies; volatile state gone, `storage` survives
      const double until = testkit::sim_now() + 0.03;
      while (testkit::sim_now() < until) {
        testkit::poll_pause("kv.crash", 1e-3);
      }
      auto rejoin = cfg;
      rejoin.base_seq = issued;  // don't reuse session sequence numbers
      kv.emplace(comm, (*storage)[static_cast<std::size_t>(rank)], rejoin);
      kv->set_recorder(recorder.get());
    };
    auto maybe_partition = [&] {
      if (!f.partition || !kv->is_leader()) return;
      bool expected = false;
      if (!shared->partition_claimed.compare_exchange_strong(expected, true)) {
        return;
      }
      std::vector<int> rest;
      for (int r = 0; r < kRanks; ++r) {
        if (r != rank) rest.push_back(r);
      }
      injector->partition({{rank}, rest});
      shared->heal_at_us =
          static_cast<long long>((testkit::sim_now() + 0.04) * 1e6);
      shared->heal_state = 1;
    };
    auto maybe_heal = [&] {
      if (shared->heal_state.load() != 1) return;
      if (static_cast<long long>(testkit::sim_now() * 1e6) <
          shared->heal_at_us.load()) {
        return;
      }
      int expected = 1;
      if (shared->heal_state.compare_exchange_strong(expected, 2)) {
        injector->heal();
      }
    };
    auto maybe_skew = [&] {
      // The first rank that follows a known leader gets the whole drift
      // bound the lease tolerates: its refusal window and election timer
      // run short against the leader's lease.
      if (!f.skew || kv->is_leader() || kv->raft().leader_hint() < 0) return;
      bool expected = false;
      if (shared->skew_claimed.compare_exchange_strong(expected, true)) {
        testkit::set_clock_rate(dist::kLeaseClockDrift);
      }
    };
    auto between_ops = [&] {
      maybe_skew();
      maybe_partition();
      maybe_crash();
      maybe_heal();
    };

    // Contended workload: every rank hammers the same key, so the checker
    // has real overlap to disambiguate, and cas makes duplicate delivery
    // (without session dedup) observable.
    const std::string mine = "r" + std::to_string(rank);
    between_ops();
    (void)kv->put("k", mine + "a");
    ++issued;
    between_ops();
    const auto got = kv->get("k");
    ++issued;
    between_ops();
    if (got.ok()) {
      (void)kv->cas("k", got.value, mine + "b");
      ++issued;
      between_ops();
    }
    (void)kv->put("me:" + mine, mine);  // uncontended key: per-key checking
    ++issued;

    ++shared->done;
    while (shared->done.load() < kRanks ||
           shared->heal_state.load() == 1) {
      kv->step();
      maybe_skew();
      maybe_crash();
      maybe_heal();
      testkit::poll_pause("kv.pump", 0.5e-3);
    }
    shared->ends[static_cast<std::size_t>(rank)].commit =
        kv->raft().commit_index();
  });

  SchedulerOptions options;
  options.seed = seed;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  if (!report.ok()) return "scheduler: " + report.error;

  const auto lin = testkit::LinearizabilityChecker{}.check(recorder->history());
  if (!lin.linearizable()) return lin.describe();
  return check_committed_prefix(*storage, shared->ends);
}

/// Runs `seeds` seeds of one config, recording per-config outcome counts
/// as labeled obs counters, and failing the test on the first bad run.
void sweep_config(const SweepConfig& f, std::uint64_t first_seed, int seeds) {
  int passed = 0;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const auto failure = run_kv_once(f, seed);
    if constexpr (obs::kObsEnabled) {
      obs::MetricsRegistry::instance()
          .counter("pdc.raft.sweep.runs",
                   {{"config", f.name},
                    {"outcome", failure.empty() ? "pass" : "fail"}})
          .inc();
    }
    ASSERT_EQ(failure, "") << "config " << f.name << " seed " << seed;
    ++passed;
  }
  EXPECT_EQ(passed, seeds);
}

// ------------------------------------------------------------ fault matrix

TEST(RaftStress, FaultMatrixSweepStaysLinearizable) {
  const SweepConfig matrix[] = {
      {.name = "clean"},
      {.name = "drop", .drop = 0.15},
      {.name = "drop+dup", .drop = 0.10, .duplicate = 0.10},
      {.name = "reorder", .reorder = 0.20},
      {.name = "drop+dup+reorder",
       .drop = 0.10,
       .duplicate = 0.05,
       .reorder = 0.10},
      {.name = "partition", .partition = true},
      {.name = "partition+drop", .drop = 0.08, .partition = true},
      {.name = "crash", .crash = true},
      {.name = "crash+snapshot", .crash = true, .snapshot_threshold = 6},
      {.name = "partition+crash", .partition = true, .crash = true},
      {.name = "skew", .skew = true},
      {.name = "skew+partition", .partition = true, .skew = true},
  };
  std::uint64_t base = 100;
  for (const auto& config : matrix) {
    sweep_config(config, base, 12);
    base += 1000;
    if (HasFatalFailure()) return;
  }
}

// -------------------------------------------- headline 200-seed acceptance

TEST(RaftStress, CrashDropReorderSweep200SeedsStaysLinearizable) {
  const SweepConfig config{.name = "crash+drop+reorder",
                           .drop = 0.10,
                           .reorder = 0.08,
                           .crash = true,
                           .snapshot_threshold = 8};
  sweep_config(config, 20000, 200);
}

// -------------------------------------- broken variant caught under sweep

/// Compact rebuild of the unsafe_early_commit scenario (see raft_test.cpp):
/// the isolated leader acknowledges a put with no quorum; the majority's
/// replacement leader serves a read that misses it.
testkit::RunPlan make_unsafe_partition_plan(
    std::shared_ptr<testkit::HistoryRecorder> recorder) {
  struct Shared {
    std::atomic<int> first_leader{-1};
    std::atomic<int> second_leader{-1};
    std::atomic<bool> put_done{false};
    std::atomic<bool> healed{false};
    std::atomic<bool> read_done{false};
    std::atomic<int> done{0};
  };
  auto shared = std::make_shared<Shared>();
  auto storage = std::make_shared<std::vector<RaftPersistentState>>(kRanks);
  auto injector = std::make_shared<FaultInjector>(FaultConfig{});
  auto world = std::make_shared<World>(kRanks);
  world->set_fault_injector(injector);

  testkit::RunPlan plan;
  plan.threads = world->rank_bodies([shared, storage, injector, recorder,
                                     world](Communicator& comm) {
    const auto rank = comm.rank();
    dist::KvConfig cfg;
    cfg.raft.seed = 4242;
    cfg.raft.unsafe_early_commit = true;
    cfg.op_timeout_ms = 60.0;
    dist::ReplicatedKV kv(comm, (*storage)[static_cast<std::size_t>(rank)],
                          cfg);
    kv.set_recorder(recorder.get());
    auto spin = [&] {
      kv.step();
      testkit::poll_pause("kv.pump", 0.5e-3);
    };
    while (shared->first_leader.load() == -1) {
      if (kv.is_leader()) shared->first_leader = rank;
      spin();
    }
    if (rank == shared->first_leader.load()) {
      std::vector<int> rest;
      for (int r = 0; r < kRanks; ++r) {
        if (r != rank) rest.push_back(r);
      }
      injector->partition({{rank}, rest});
      (void)kv.put("k", "lost");  // acked without a quorum — the bug
      shared->put_done = true;
      while (!shared->healed.load()) spin();
    } else {
      while (!shared->put_done.load()) spin();
      while (shared->second_leader.load() == -1) {
        if (kv.is_leader()) shared->second_leader = rank;
        spin();
      }
      if (rank == shared->second_leader.load()) {
        injector->heal();
        shared->healed = true;
        (void)kv.get("k");
        shared->read_done = true;
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

TEST(RaftStress, UnsafeEarlyCommitCaughtAcrossSeedSweep) {
  testkit::ExplorerConfig config;
  config.iterations = 25;
  config.base_seed = 500;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  auto make_run = [] {
    return make_unsafe_partition_plan(
        std::make_shared<testkit::HistoryRecorder>());
  };
  const auto result = explorer.explore(make_run);
  ASSERT_TRUE(result.failure_found);
  EXPECT_NE(result.failure.find("no linearization exists"), std::string::npos)
      << result.failure;
  std::string failure1;
  std::string failure2;
  const auto replay1 =
      explorer.replay(result.failing_seed, make_run, &failure1);
  const auto replay2 =
      explorer.replay(result.failing_seed, make_run, &failure2);
  EXPECT_EQ(failure1, failure2);
  EXPECT_FALSE(failure1.empty());
  EXPECT_EQ(replay1.format_minimal_trace(), replay2.format_minimal_trace());
}

// ------------------------------- leader lease under the clock-rate fault

TEST(RaftStress, UnsafeLeaseCaughtAcrossSeedSweep) {
  testkit::ExplorerConfig config;
  config.iterations = 25;
  config.base_seed = 700;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  auto make_run = [] {
    return lease_scenario::make_lease_skew_plan(
        /*unsafe_lease=*/true, std::make_shared<testkit::HistoryRecorder>());
  };
  const auto result = explorer.explore(make_run);
  ASSERT_TRUE(result.failure_found);
  EXPECT_NE(result.failure.find("no linearization exists"), std::string::npos)
      << result.failure;
  std::string failure1;
  std::string failure2;
  const auto replay1 =
      explorer.replay(result.failing_seed, make_run, &failure1);
  const auto replay2 =
      explorer.replay(result.failing_seed, make_run, &failure2);
  EXPECT_EQ(failure1, failure2);
  EXPECT_FALSE(failure1.empty());
  EXPECT_EQ(replay1.format_minimal_trace(), replay2.format_minimal_trace());
}

TEST(RaftStress, SafeLeaseHoldsAcrossSeedSweep) {
  testkit::ExplorerConfig config;
  config.iterations = 25;
  config.base_seed = 700;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  const auto result = explorer.explore([] {
    return lease_scenario::make_lease_skew_plan(
        /*unsafe_lease=*/false, std::make_shared<testkit::HistoryRecorder>());
  });
  EXPECT_FALSE(result.failure_found) << result.describe();
}

}  // namespace
