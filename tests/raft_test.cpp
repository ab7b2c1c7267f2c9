// Deterministic simulation tests for dist::Raft and dist::ReplicatedKV:
// leader election, log convergence across a leader crash, stale-leader
// rejection through a network partition, snapshot install to a lagging
// follower, the term-start no-op barrier, malformed RPCs dropped and
// counted, the leader lease and the vote-refusal window that makes it
// sound, and linearizability of the KV store — including the
// unsafe_early_commit and unsafe_lease_ignores_drift teaching bugs, which
// the checker must catch with a replayable minimal trace.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/raft.hpp"
#include "dist/replicated_kv.hpp"
#include "lease_scenario.hpp"
#include "mp/world.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/linearizability.hpp"
#include "testkit/schedule_explorer.hpp"
#include "testkit/sim_scheduler.hpp"

namespace {

using namespace pdc;
using dist::RaftNode;
using dist::RaftOptions;
using dist::RaftPersistentState;
using dist::RaftRole;
using mp::Communicator;
using mp::World;
using testkit::FaultConfig;
using testkit::FaultInjector;
using testkit::SchedulerOptions;
using testkit::SimScheduler;

std::vector<std::uint8_t> cmd(const std::string& s) {
  return {s.begin(), s.end()};
}

/// State machine that records applied commands as strings; the snapshot
/// image is the full applied list, so a restore is observable.
class RecordingMachine : public dist::StateMachine {
 public:
  std::vector<std::uint8_t> apply(
      std::uint64_t index, const std::vector<std::uint8_t>& command) override {
    (void)index;
    applied_.emplace_back(command.begin(), command.end());
    return {};
  }
  std::vector<std::uint8_t> snapshot_image() override {
    dist::wire::Writer w;
    w.u64(applied_.size());
    for (const auto& s : applied_) w.str(s);
    return w.take();
  }
  void restore(const std::vector<std::uint8_t>& image) override {
    applied_.clear();
    if (image.empty()) return;
    dist::wire::Reader r(image);
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) applied_.push_back(r.str());
  }
  [[nodiscard]] const std::vector<std::string>& applied() const {
    return applied_;
  }

 private:
  std::vector<std::string> applied_;
};

void pump(RaftNode& node, double seconds = 0.5e-3) {
  node.tick();
  testkit::poll_pause("raft.pump", seconds);
}

// --------------------------------------------------------------- election

struct ElectionOutcome {
  std::array<int, 3> roles{};
  std::array<std::uint64_t, 3> terms{};
  std::string trace;
};

ElectionOutcome run_election(std::uint64_t seed) {
  ElectionOutcome out;
  World world(3);
  auto bodies = world.rank_bodies([&out](Communicator& comm) {
    RecordingMachine machine;
    RaftPersistentState storage;
    RaftNode node(comm, machine, storage, RaftOptions{});
    while (testkit::sim_now() < 0.10) pump(node);
    out.roles[static_cast<std::size_t>(comm.rank())] =
        static_cast<int>(node.role());
    out.terms[static_cast<std::size_t>(comm.rank())] = node.current_term();
  });
  SchedulerOptions options;
  options.seed = seed;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  EXPECT_TRUE(report.ok()) << report.error;
  out.trace = report.format_trace();
  return out;
}

TEST(RaftSim, SingleTermElectionProducesExactlyOneLeader) {
  const auto out = run_election(7);
  int leaders = 0;
  for (const int role : out.roles) {
    if (role == static_cast<int>(RaftRole::kLeader)) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // Distinct randomized timeouts: the first candidate wins outright, so
  // one term suffices and every rank converges on it.
  for (const auto term : out.terms) EXPECT_EQ(term, 1u);
}

TEST(RaftSim, ElectionTraceIsByteStableUnderFixedSeed) {
  const auto a = run_election(21);
  const auto b = run_election(21);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.roles, b.roles);
  const auto c = run_election(22);
  EXPECT_NE(a.trace, c.trace);  // the seed is what's driving the schedule
}

// ------------------------------- duplicated votes must not elect a leader

// Regression: vote counting must be idempotent per rank. With every
// message duplicated and a 2-node minority partition {0,1} of a 5-rank
// cluster, a candidate in the minority collects at most 2 distinct votes
// (self + peer) — short of quorum 3. A bare vote counter would count the
// duplicated VoteReply twice and elect a minority leader (split brain).
TEST(RaftSim, DuplicatedVoteRepliesCannotElectMinorityLeader) {
  constexpr int kRanks = 5;
  auto minority_led = std::make_shared<std::atomic<bool>>(false);
  FaultConfig faults;
  faults.duplicate = 1.0;  // every delivered message arrives twice
  auto injector = std::make_shared<FaultInjector>(faults);
  injector->partition({{0, 1}, {2, 3, 4}});

  World world(kRanks);
  world.set_fault_injector(injector);
  auto bodies = world.rank_bodies([minority_led](Communicator& comm) {
    RecordingMachine machine;
    RaftPersistentState storage;
    RaftNode node(comm, machine, storage, RaftOptions{});
    // ~6-12 election attempts on the minority side, each with a
    // duplicated granted reply: any double-count elects immediately.
    while (testkit::sim_now() < 0.15) {
      pump(node);
      if (comm.rank() <= 1 && node.role() == RaftRole::kLeader) {
        *minority_led = true;
      }
    }
  });
  SchedulerOptions options;
  options.seed = 9;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_GT(injector->stats().duplicated, 0u);
  EXPECT_FALSE(minority_led->load());
}

// ------------------------------------------------- leader crash mid-append

TEST(RaftSim, LogConvergesAfterLeaderCrashMidAppend) {
  constexpr int kRanks = 3;
  struct Shared {
    std::atomic<int> first_leader{-1};
    std::atomic<int> second_leader{-1};
    std::atomic<bool> crashed{false};
    std::atomic<int> done{0};
    std::array<std::vector<std::string>, kRanks> applied;
  };
  auto shared = std::make_shared<Shared>();
  auto storage = std::make_shared<std::vector<RaftPersistentState>>(kRanks);

  World world(kRanks);
  auto bodies = world.rank_bodies([shared, storage](Communicator& comm) {
    const auto rank = comm.rank();
    RaftOptions opts;
    opts.seed = 2024;
    std::optional<RecordingMachine> machine(std::in_place);
    std::optional<RaftNode> node;
    node.emplace(comm, *machine, (*storage)[static_cast<std::size_t>(rank)],
                 opts);

    while (shared->first_leader.load() == -1) {
      if (node->role() == RaftRole::kLeader) shared->first_leader = rank;
      pump(*node);
    }
    if (rank == shared->first_leader.load()) {
      const auto idx_a = node->submit(cmd("a"));
      ASSERT_TRUE(idx_a.has_value());
      while (node->commit_index() < *idx_a) pump(*node);
      // Mid-append crash: "b" is broadcast but the leader dies before any
      // acknowledgement can commit it. Volatile state is gone; the
      // persistent log (with "b") survives in `storage`.
      ASSERT_TRUE(node->submit(cmd("b")).has_value());
      node.reset();
      shared->crashed = true;
      while (shared->second_leader.load() == -1) {
        testkit::poll_pause("raft.down", 1e-3);
      }
      machine.emplace();  // fresh machine: state rebuilt from the log
      node.emplace(comm, *machine, (*storage)[static_cast<std::size_t>(rank)],
                   opts);
    } else {
      while (!shared->crashed.load()) pump(*node);
      while (shared->second_leader.load() == -1) {
        if (node->role() == RaftRole::kLeader) shared->second_leader = rank;
        pump(*node);
      }
      if (rank == shared->second_leader.load()) {
        ASSERT_TRUE(node->submit(cmd("c")).has_value());
      }
    }
    bool counted = false;
    while (shared->done.load() < kRanks) {
      const auto& a = machine->applied();
      if (!counted && !a.empty() && a.back() == "c") {
        ++shared->done;
        counted = true;
      }
      pump(*node);
    }
    shared->applied[static_cast<std::size_t>(rank)] = machine->applied();
  });

  SchedulerOptions options;
  options.seed = 5;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;

  // "b" reached both followers before the crash, so the new leader's
  // no-op barrier commits it; every log (including the rejoined crasher's)
  // converges to the same applied sequence.
  const std::vector<std::string> expect{"a", "b", "c"};
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(shared->applied[static_cast<std::size_t>(r)], expect)
        << "rank " << r;
  }
}

// -------------------------------------------- stale leader via partition

TEST(RaftSim, StaleLeaderIsRejectedAndTruncatedAfterPartitionHeals) {
  constexpr int kRanks = 3;
  struct Shared {
    std::atomic<int> first_leader{-1};
    std::atomic<int> second_leader{-1};
    std::atomic<bool> partitioned{false};
    std::atomic<bool> healed{false};
    std::atomic<int> done{0};
    std::array<std::vector<std::string>, kRanks> applied;
    std::array<std::uint64_t, kRanks> terms{};
    std::atomic<int> old_leader_final_role{-1};
  };
  auto shared = std::make_shared<Shared>();
  auto storage = std::make_shared<std::vector<RaftPersistentState>>(kRanks);
  auto injector = std::make_shared<FaultInjector>(FaultConfig{});

  World world(kRanks);
  world.set_fault_injector(injector);
  auto bodies = world.rank_bodies([shared, storage,
                                   injector](Communicator& comm) {
    const auto rank = comm.rank();
    RaftOptions opts;
    opts.seed = 31;
    RecordingMachine machine;
    RaftNode node(comm, machine, (*storage)[static_cast<std::size_t>(rank)],
                  opts);

    while (shared->first_leader.load() == -1) {
      if (node.role() == RaftRole::kLeader) shared->first_leader = rank;
      pump(node);
    }
    const int old_leader = shared->first_leader.load();
    if (rank == old_leader) {
      std::vector<int> rest;
      for (int r = 0; r < kRanks; ++r) {
        if (r != rank) rest.push_back(r);
      }
      injector->partition({{rank}, rest});
      shared->partitioned = true;
      // Appended on the stale side only: must be truncated after healing.
      ASSERT_TRUE(node.submit(cmd("x")).has_value());
      while (!shared->healed.load()) pump(node);
      // The first append/heartbeat exchange after healing deposes us.
      while (node.role() == RaftRole::kLeader) pump(node);
    } else {
      while (!shared->partitioned.load()) pump(node);
      while (shared->second_leader.load() == -1) {
        if (node.role() == RaftRole::kLeader) shared->second_leader = rank;
        pump(node);
      }
      if (rank == shared->second_leader.load()) {
        const auto idx_y = node.submit(cmd("y"));
        ASSERT_TRUE(idx_y.has_value());
        while (node.commit_index() < *idx_y) pump(node);
        injector->heal();
        shared->healed = true;
      }
    }
    bool counted = false;
    while (shared->done.load() < kRanks) {
      const auto& a = machine.applied();
      const bool caught_up = !a.empty() && a.back() == "y" &&
                             (rank != old_leader ||
                              node.role() == RaftRole::kFollower);
      if (!counted && caught_up) {
        ++shared->done;
        counted = true;
      }
      pump(node);
    }
    shared->applied[static_cast<std::size_t>(rank)] = machine.applied();
    shared->terms[static_cast<std::size_t>(rank)] = node.current_term();
    if (rank == old_leader) {
      shared->old_leader_final_role = static_cast<int>(node.role());
    }
  });

  SchedulerOptions options;
  options.seed = 11;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;

  const std::vector<std::string> expect{"y"};
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(shared->applied[static_cast<std::size_t>(r)], expect)
        << "rank " << r;
    EXPECT_EQ(shared->terms[static_cast<std::size_t>(r)], shared->terms[0]);
  }
  EXPECT_EQ(shared->old_leader_final_role.load(),
            static_cast<int>(RaftRole::kFollower));
  // The stale entry is gone from the deposed leader's durable log.
  const auto& old_log =
      (*storage)[static_cast<std::size_t>(shared->first_leader.load())].log;
  for (const auto& entry : old_log) {
    EXPECT_NE(std::string(entry.command.begin(), entry.command.end()), "x");
  }
  EXPECT_GT(injector->stats().partitioned, 0u);
}

// ------------------------------------------- snapshot to lagging follower

TEST(RaftSim, SnapshotInstallsOnLaggingFollower) {
  constexpr int kRanks = 3;
  constexpr int kLagger = 2;
  struct Shared {
    std::atomic<bool> feed_done{false};
    std::atomic<bool> lagger_caught_up{false};
    std::atomic<int> done{0};
    std::array<std::vector<std::string>, kRanks> applied;
    std::atomic<std::uint64_t> installs{0};
  };
  auto shared = std::make_shared<Shared>();
  auto storage = std::make_shared<std::vector<RaftPersistentState>>(kRanks);
  auto injector = std::make_shared<FaultInjector>(FaultConfig{});
  // The lagger is cut off from the start so nothing accumulates in its
  // mailbox; by the time it heals, the feed entries are compacted away and
  // only InstallSnapshot can catch it up.
  injector->partition({{0, 1}, {kLagger}});

  World world(kRanks);
  world.set_fault_injector(injector);
  auto bodies = world.rank_bodies([shared, storage,
                                   injector](Communicator& comm) {
    const auto rank = comm.rank();
    RaftOptions opts;
    opts.seed = 12;
    opts.snapshot_threshold = 4;
    RecordingMachine machine;

    if (rank == kLagger) {
      while (!shared->feed_done.load()) {
        testkit::poll_pause("raft.lag", 1e-3);
      }
      injector->heal();
      RaftNode node(comm, machine,
                    (*storage)[static_cast<std::size_t>(rank)], opts);
      while (machine.applied().size() < 8) pump(node);
      shared->installs = node.snapshots_installed();
      shared->lagger_caught_up = true;
      bool counted = false;
      while (shared->done.load() < kRanks) {
        const auto& a = machine.applied();
        if (!counted && !a.empty() && a.back() == "tail") {
          ++shared->done;
          counted = true;
        }
        pump(node);
      }
      shared->applied[static_cast<std::size_t>(rank)] = machine.applied();
      return;
    }

    RaftNode node(comm, machine, (*storage)[static_cast<std::size_t>(rank)],
                  opts);
    // Ranks 0 and 1 elect and commit 8 entries; the snapshot threshold
    // forces compaction long before the lagger appears.
    bool is_feeder = false;
    while (!shared->feed_done.load()) {
      if (node.role() == RaftRole::kLeader && !is_feeder) {
        is_feeder = true;
        for (int i = 0; i < 8; ++i) {
          const auto idx = node.submit(cmd("v" + std::to_string(i)));
          ASSERT_TRUE(idx.has_value());
          while (node.commit_index() < *idx) pump(node);
        }
        EXPECT_GT((*storage)[static_cast<std::size_t>(rank)].snapshot_index,
                  0u);
        shared->feed_done = true;
      }
      pump(node);
    }
    if (is_feeder) {
      while (!shared->lagger_caught_up.load()) pump(node);
      const auto idx = node.submit(cmd("tail"));
      ASSERT_TRUE(idx.has_value());
    }
    bool counted = false;
    while (shared->done.load() < kRanks) {
      const auto& a = machine.applied();
      if (!counted && !a.empty() && a.back() == "tail") {
        ++shared->done;
        counted = true;
      }
      pump(node);
    }
    shared->applied[static_cast<std::size_t>(rank)] = machine.applied();
  });

  SchedulerOptions options;
  options.seed = 3;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;

  EXPECT_GE(shared->installs.load(), 1u);
  std::vector<std::string> expect;
  for (int i = 0; i < 8; ++i) expect.push_back("v" + std::to_string(i));
  expect.emplace_back("tail");
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(shared->applied[static_cast<std::size_t>(r)], expect)
        << "rank " << r;
  }
}

// ------------------------------------------------- term-start no-op entry

TEST(RaftSim, LeaderAppendsNoOpBarrierOnTermStart) {
  struct Seen {
    std::atomic<std::uint64_t> index{0};
    std::atomic<bool> empty_command{false};
    std::atomic<std::uint64_t> term{0};
  };
  auto seen = std::make_shared<Seen>();
  World world(1);
  auto bodies = world.rank_bodies([seen](Communicator& comm) {
    RecordingMachine machine;
    RaftPersistentState storage;
    RaftNode node(comm, machine, storage, RaftOptions{});
    node.set_apply_listener([seen](std::uint64_t index, std::uint64_t term,
                                   const std::vector<std::uint8_t>& command,
                                   const std::vector<std::uint8_t>& reply) {
      (void)reply;
      if (seen->index.load() == 0) {
        seen->index = index;
        seen->empty_command = command.empty();
        seen->term = term;
      }
    });
    while (node.commit_index() < 1) pump(node);
    EXPECT_EQ(node.role(), RaftRole::kLeader);
    const auto* noop = node.entry(1);
    ASSERT_NE(noop, nullptr);
    EXPECT_TRUE(noop->command.empty());
    EXPECT_EQ(noop->term, node.current_term());
    EXPECT_TRUE(machine.applied().empty());  // no-ops bypass the machine
  });
  SchedulerOptions options;
  options.seed = 2;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;
  // The first applied entry is the barrier itself: index 1, empty command,
  // stamped with the leader's term.
  EXPECT_EQ(seen->index.load(), 1u);
  EXPECT_TRUE(seen->empty_command.load());
  EXPECT_EQ(seen->term.load(), 1u);
}

// ------------------------------------------------- malformed Raft traffic

// Raft's RPC kinds on tag 70 (the RaftNode::Rpc order, docs/raft.md), for
// scripting one side of a conversation by hand.
constexpr int kTagRaft = 70;
constexpr std::uint8_t kRequestVote = 0;
constexpr std::uint8_t kVoteReply = 1;
constexpr std::uint8_t kAppend = 2;

/// A RequestVote for `term` from a candidate with an empty log.
std::vector<std::uint8_t> request_vote(std::uint64_t term) {
  dist::wire::Writer w;
  w.u8(kRequestVote);
  w.u64(term);
  w.u64(0);  // candidate's last log index
  w.u64(0);  // and its term
  return w.take();
}

/// Pauses the calling rank until `seconds` of virtual time have passed.
void sleep_sim(double seconds) {
  const double until = testkit::sim_now() + seconds;
  while (testkit::sim_now() < until) testkit::poll_pause("raft.sleep", 0.5e-3);
}

// Raft's RPCs share tag 70, kind byte first (docs/raft.md). A payload with
// no kind byte, or a kind past the handler table, is dropped and counted
// in pdc.raft.malformed: it must neither throw on the node's pump nor
// keep the cluster from electing a leader and committing.
TEST(RaftSim, MalformedRpcIsDroppedAndCounted) {
  constexpr int kRanks = 3;
  auto& malformed =
      obs::MetricsRegistry::instance().counter("pdc.raft.malformed");
  const std::uint64_t before = malformed.total();
  std::atomic<bool> garbage_sent{false};
  std::atomic<bool> put_done{false};
  std::atomic<bool> put_ok{false};
  std::vector<RaftPersistentState> storage(kRanks);
  World world(kRanks);
  auto bodies = world.rank_bodies([&](Communicator& comm) {
    const int rank = comm.rank();
    if (rank == 2) {
      comm.send_vector(std::vector<std::uint8_t>{}, 0, kTagRaft);
      comm.send_vector(std::vector<std::uint8_t>{6, 0, 0}, 0, kTagRaft);
      garbage_sent = true;
    }
    dist::KvConfig cfg;
    cfg.raft.seed = 11;
    dist::ReplicatedKV kv(comm, storage[static_cast<std::size_t>(rank)], cfg);
    auto spin = [&] {
      kv.step();
      testkit::poll_pause("kv.pump", 0.5e-3);
    };
    if (rank == 0) {
      while (!garbage_sent.load()) spin();
      put_ok = kv.put("k", "v").ok();
      put_done = true;
    }
    while (!put_done.load()) spin();
  });
  SchedulerOptions options;
  options.seed = 5;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(put_ok.load());
  if (obs::kObsEnabled) {
    EXPECT_EQ(malformed.total() - before, 2u);
  }
}

// ------------------------------------------------------- leader lease

// A settled leader answers a get from its lease: no heartbeat round goes
// out for it, and pdc.raft.lease_reads counts it.
TEST(RaftLease, SettledLeaderServesGetWithoutARound) {
  constexpr int kRanks = 3;
  auto& lease_reads =
      obs::MetricsRegistry::instance().counter("pdc.raft.lease_reads");
  struct Outcome {
    std::atomic<bool> done{false};
    std::atomic<bool> got_value{false};
    std::atomic<std::uint64_t> sent{~std::uint64_t{0}};
    std::atomic<std::uint64_t> lease_reads{0};
  };
  auto out = std::make_shared<Outcome>();
  std::vector<RaftPersistentState> storage(kRanks);
  World world(kRanks);
  auto bodies = world.rank_bodies([&](Communicator& comm) {
    dist::KvConfig cfg;
    cfg.raft.seed = 21;
    dist::ReplicatedKV kv(comm, storage[static_cast<std::size_t>(comm.rank())],
                          cfg);
    auto spin = [&] {
      kv.step();
      testkit::poll_pause("kv.pump", 0.5e-3);
    };
    while (!out->done.load()) {
      if (!kv.is_leader() || !kv.put("k", "v").ok()) {
        spin();
        continue;
      }
      // Right after a confirmed round the lease holds and the heartbeat
      // timer is far from due, so the get's one step sends nothing.
      const std::uint64_t seen = kv.raft().confirmed_round();
      while (kv.raft().confirmed_round() == seen) spin();
      const std::uint64_t sent = kv.raft().messages_sent();
      const std::uint64_t leases = lease_reads.total();
      const auto got = kv.get("k");
      out->got_value = got.ok() && got.value == "v";
      out->sent = kv.raft().messages_sent() - sent;
      out->lease_reads = lease_reads.total() - leases;
      out->done = true;
    }
  });
  SchedulerOptions options;
  options.seed = 4;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(out->got_value.load());
  EXPECT_EQ(out->sent.load(), 0u);
  if (obs::kObsEnabled) {
    EXPECT_EQ(out->lease_reads.load(), 1u);
  }
}

struct VoteWindowOutcome {
  bool early_reply = true;            // any answer to the first RequestVote
  std::uint64_t term_after_early = 0;  // the node's term just after it
  bool granted_late = false;           // the repeat, just past W, granted
};

/// §4.2.3 from the voter's side. Rank 1 runs a RaftNode whose refusal
/// window W is 32 ms; rank 0 scripts the other side by hand. With
/// `append_first`, rank 0 first plays a term-1 leader, so W runs from the
/// node's receipt of that AppendEntries; otherwise W runs from the node's
/// start. Rank 0 then asks for a vote in the next term at once, and
/// again just past W (before the node's own 40–80 ms election timer).
VoteWindowOutcome probe_vote_window(bool append_first) {
  RaftOptions opts;
  opts.election_timeout_min_ms = 40.0;
  opts.election_timeout_max_ms = 80.0;
  const double window_s =
      opts.election_timeout_min_ms / dist::kLeaseClockDrift * 1e-3;
  const std::uint64_t term = append_first ? 2 : 1;
  VoteWindowOutcome out;
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  std::atomic<std::uint64_t> node_term{0};
  World world(2);
  auto bodies = world.rank_bodies([&](Communicator& comm) {
    if (comm.rank() == 1) {
      RecordingMachine machine;
      RaftPersistentState storage;
      RaftNode node(comm, machine, storage, opts);
      started = true;
      while (!finished.load()) {
        pump(node);
        node_term = node.current_term();
      }
      return;
    }
    while (!started.load()) testkit::poll_pause("raft.wait", 0.1e-3);
    if (append_first) {
      dist::wire::Writer append;
      append.u8(kAppend);
      for (const std::uint64_t field : {1, 0, 0, 0, 1, 0}) {
        append.u64(field);  // term, prev index/term, commit, round, entries
      }
      comm.send_vector(append.take(), 1, kTagRaft);
      (void)comm.take(1, kTagRaft);  // the AppendReply: it heard us
    }
    const double window_start = testkit::sim_now();
    comm.send_vector(request_vote(term), 1, kTagRaft);
    sleep_sim(5e-3);
    out.early_reply = comm.try_take(1, kTagRaft).has_value();
    out.term_after_early = node_term.load();

    sleep_sim(window_start + window_s + 1e-3 - testkit::sim_now());
    comm.send_vector(request_vote(term), 1, kTagRaft);
    const auto reply = comm.take(1, kTagRaft);
    dist::wire::Reader r(reply.payload);
    const bool is_vote_reply = r.u8() == kVoteReply;
    const std::uint64_t reply_term = r.u64();
    out.granted_late = is_vote_reply && reply_term == term && r.u8() == 1;
    finished = true;
  });
  SchedulerOptions options;
  options.seed = 8;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  EXPECT_TRUE(report.ok()) << report.error;
  return out;
}

// Within W of an accepted AppendEntries a follower ignores a RequestVote
// outright (no term adoption, no reply), and grants it once W has passed.
TEST(RaftLease, FollowerIgnoresVotesWithinWindowOfAppend) {
  const auto out = probe_vote_window(/*append_first=*/true);
  EXPECT_FALSE(out.early_reply);
  EXPECT_EQ(out.term_after_early, 1u);
  EXPECT_TRUE(out.granted_late);
}

// A rank that just started may have acked a lease round before it
// crashed: it refuses votes for W after construction, too.
TEST(RaftLease, FreshRankRefusesVotesWithinWindowOfStart) {
  const auto out = probe_vote_window(/*append_first=*/false);
  EXPECT_FALSE(out.early_reply);
  EXPECT_EQ(out.term_after_early, 0u);
  EXPECT_TRUE(out.granted_late);
}

// The lease outlives the leader's isolation only briefly: a get right
// after the cut is served from it, but once it lapses every get falls
// back to a round that cannot confirm, while the majority elects anew and
// overwrites the key. No read is served stale.
TEST(RaftLease, IsolatedLeaderLeaseLapsesAndReadsFallBackToRounds) {
  constexpr int kRanks = 3;
  auto& lease_reads =
      obs::MetricsRegistry::instance().counter("pdc.raft.lease_reads");
  struct Shared {
    std::atomic<int> leader{-1};
    std::atomic<bool> isolated{false};
    std::atomic<bool> put_done{false};
    std::atomic<bool> read_done{false};
    std::atomic<int> done{0};
    std::atomic<bool> lease_read_ok{false};
    std::atomic<std::uint64_t> lease_read_sent{~std::uint64_t{0}};
    std::atomic<std::uint64_t> lease_reads_during{0};
    std::atomic<bool> lapsed_read_timed_out{false};
    std::atomic<std::uint64_t> lapsed_read_sent{0};
    std::atomic<std::uint64_t> lease_reads_after{~std::uint64_t{0}};
  };
  auto shared = std::make_shared<Shared>();
  auto recorder = std::make_shared<testkit::HistoryRecorder>();
  std::vector<RaftPersistentState> storage(kRanks);
  auto injector = std::make_shared<FaultInjector>(FaultConfig{});
  World world(kRanks);
  world.set_fault_injector(injector);
  auto bodies = world.rank_bodies([&](Communicator& comm) {
    const int rank = comm.rank();
    dist::KvConfig cfg;
    cfg.raft.seed = 55;
    cfg.op_timeout_ms = 30.0;
    dist::ReplicatedKV kv(comm, storage[static_cast<std::size_t>(rank)], cfg);
    kv.set_recorder(recorder.get());
    auto spin = [&] {
      kv.step();
      testkit::poll_pause("kv.pump", 0.5e-3);
    };
    while (shared->leader.load() == -1) {
      if (kv.is_leader() && kv.put("k", "v1").ok()) {
        shared->leader = rank;
      } else {
        spin();
      }
    }
    if (rank == shared->leader.load()) {
      const std::uint64_t seen = kv.raft().confirmed_round();
      while (kv.raft().confirmed_round() == seen) spin();
      std::vector<int> rest;
      for (int r = 0; r < kRanks; ++r) {
        if (r != rank) rest.push_back(r);
      }
      injector->partition({{rank}, rest});
      shared->isolated = true;

      std::uint64_t sent = kv.raft().messages_sent();
      std::uint64_t leases = lease_reads.total();
      const auto in_lease = kv.get("k");
      shared->lease_read_ok = in_lease.ok() && in_lease.value == "v1";
      shared->lease_read_sent = kv.raft().messages_sent() - sent;
      shared->lease_reads_during = lease_reads.total() - leases;

      // The majority can elect only after the refusal window, which
      // outlasts the lease: by then every get here needs a round.
      while (!shared->put_done.load()) spin();
      sent = kv.raft().messages_sent();
      leases = lease_reads.total();
      shared->lapsed_read_timed_out = kv.get("k").timed_out();
      shared->lapsed_read_sent = kv.raft().messages_sent() - sent;
      shared->lease_reads_after = lease_reads.total() - leases;
      shared->read_done = true;
    } else {
      while (!shared->isolated.load()) spin();
      while (!shared->put_done.load()) {
        if (kv.is_leader() && kv.put("k", "v2").ok()) {
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
  SchedulerOptions options;
  options.seed = 6;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(shared->lease_read_ok.load());
  EXPECT_EQ(shared->lease_read_sent.load(), 0u);
  EXPECT_TRUE(shared->lapsed_read_timed_out.load());
  EXPECT_GT(shared->lapsed_read_sent.load(), 0u);  // rounds, all dropped
  if (obs::kObsEnabled) {
    EXPECT_EQ(shared->lease_reads_during.load(), 1u);
    EXPECT_EQ(shared->lease_reads_after.load(), 0u);
  }
  const auto lin = testkit::LinearizabilityChecker{}.check(recorder->history());
  EXPECT_TRUE(lin.linearizable()) << lin.describe();
}

// ------------------------------- linearizability: safe vs unsafe commit

/// The partition scenario as a RunPlan: a leader is elected, isolated,
/// accepts (or times out on) a put, the majority elects a replacement that
/// serves a read after healing. With the correct commit rule the put
/// either commits through a quorum or stays pending; with
/// unsafe_early_commit the isolated leader acknowledges the put and the
/// later read misses it — a linearizability violation.
testkit::RunPlan make_partition_kv_plan(
    bool unsafe, std::shared_ptr<testkit::HistoryRecorder> recorder) {
  constexpr int kRanks = 3;
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
                                     unsafe, world](Communicator& comm) {
    const auto rank = comm.rank();
    dist::KvConfig cfg;
    cfg.raft.seed = 404;
    cfg.raft.unsafe_early_commit = unsafe;
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
      const auto res = kv.put("k", "lost");
      if (unsafe) {
        // The bug in action: acknowledged with no quorum.
        EXPECT_TRUE(res.ok());
      }
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
        const auto res = kv.get("k");
        EXPECT_NE(res.status, dist::KvResult::Status::kTimeout);
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

TEST(RaftLinearizability, SafeCommitSurvivesPartitionScenario) {
  testkit::ExplorerConfig config;
  config.iterations = 2;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  const auto result = explorer.explore([] {
    return make_partition_kv_plan(/*unsafe=*/false,
                                  std::make_shared<testkit::HistoryRecorder>());
  });
  EXPECT_FALSE(result.failure_found) << result.describe();
}

TEST(RaftLinearizability, UnsafeEarlyCommitIsCaughtWithReplayableTrace) {
  testkit::ExplorerConfig config;
  config.iterations = 3;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  auto make_run = [] {
    return make_partition_kv_plan(/*unsafe=*/true,
                                  std::make_shared<testkit::HistoryRecorder>());
  };
  const auto result = explorer.explore(make_run);
  ASSERT_TRUE(result.failure_found);
  EXPECT_NE(result.failure.find("no linearization exists"), std::string::npos)
      << result.failure;
  // The acceptance bar: the violating seed replays bit-identically, minimal
  // trace included, so the broken interleaving can be studied offline.
  std::string failure1;
  std::string failure2;
  const auto replay1 = explorer.replay(result.failing_seed, make_run, &failure1);
  const auto replay2 = explorer.replay(result.failing_seed, make_run, &failure2);
  EXPECT_EQ(failure1, failure2);
  EXPECT_FALSE(failure1.empty());
  EXPECT_EQ(replay1.format_trace(), replay2.format_trace());
  EXPECT_EQ(replay1.format_minimal_trace(), replay2.format_minimal_trace());
}

// ----------------------- linearizability: safe vs unsafe lease, clock skew

TEST(RaftLinearizability, SafeLeaseSurvivesClockSkewScenario) {
  testkit::ExplorerConfig config;
  config.iterations = 2;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  const auto result = explorer.explore([] {
    return lease_scenario::make_lease_skew_plan(
        /*unsafe_lease=*/false, std::make_shared<testkit::HistoryRecorder>());
  });
  EXPECT_FALSE(result.failure_found) << result.describe();
}

TEST(RaftLinearizability, UnsafeLeaseIsCaughtWithReplayableTrace) {
  testkit::ExplorerConfig config;
  config.iterations = 3;
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
  const auto replay1 = explorer.replay(result.failing_seed, make_run, &failure1);
  const auto replay2 = explorer.replay(result.failing_seed, make_run, &failure2);
  EXPECT_EQ(failure1, failure2);
  EXPECT_FALSE(failure1.empty());
  EXPECT_EQ(replay1.format_minimal_trace(), replay2.format_minimal_trace());
}

// --------------------------------------- faulty sweep stays linearizable

TEST(RaftLinearizability, KvSweepUnderMessageFaultsStaysLinearizable) {
  testkit::ExplorerConfig config;
  config.iterations = 3;
  config.max_steps = 1u << 22;
  testkit::ScheduleExplorer explorer(config);
  const auto result = explorer.explore([] {
    constexpr int kRanks = 3;
    auto recorder = std::make_shared<testkit::HistoryRecorder>();
    auto storage = std::make_shared<std::vector<RaftPersistentState>>(kRanks);
    auto done = std::make_shared<std::atomic<int>>(0);
    auto world = std::make_shared<World>(kRanks);
    FaultConfig faults;
    faults.drop = 0.1;
    faults.duplicate = 0.05;
    faults.reorder = 0.05;
    faults.seed = 99;
    world->set_fault_injector(std::make_shared<FaultInjector>(faults));

    testkit::RunPlan plan;
    plan.threads = world->rank_bodies([recorder, storage, done,
                                       world](Communicator& comm) {
      const auto rank = comm.rank();
      dist::KvConfig cfg;
      cfg.raft.seed = 7;
      cfg.op_timeout_ms = 200.0;
      dist::ReplicatedKV kv(comm, (*storage)[static_cast<std::size_t>(rank)],
                            cfg);
      kv.set_recorder(recorder.get());
      const std::string key = rank % 2 == 0 ? "even" : "odd";
      (void)kv.put(key, "r" + std::to_string(rank));
      (void)kv.get(key);
      ++*done;
      while (done->load() < kRanks) {
        kv.step();
        testkit::poll_pause("kv.pump", 0.5e-3);
      }
    });
    plan.check = [recorder] {
      const auto report =
          testkit::LinearizabilityChecker{}.check(recorder->history());
      return report.linearizable() ? std::string{} : report.describe();
    };
    return plan;
  });
  EXPECT_FALSE(result.failure_found) << result.describe();
}

// ------------------------------------------------------ wire codec bounds

TEST(WireDeathTest, CorruptLengthFailsTheTruncationCheck) {
  // An 8-byte header, then a length of 2^64 - 4: with the check written as
  // `pos + n <= size` the sum wraps to 12 and passes, and the process dies
  // later in the string or vector constructor. A node decodes on its own
  // thread, where an escaping exception ends the process — so the death
  // must name the truncation check.
  dist::wire::Writer w;
  w.u64(7);
  w.u64(~std::uint64_t{0} - 3);
  const std::vector<std::uint8_t> message = w.take();
  const auto decode_on_thread = [&message](auto read_field) {
    std::thread([&] {
      dist::wire::Reader r(message);
      (void)r.u64();
      read_field(r);
    }).join();
  };
  EXPECT_DEATH(decode_on_thread([](auto& r) { (void)r.str(); }),
               "truncated raft message");
  EXPECT_DEATH(decode_on_thread([](auto& r) { (void)r.bytes(); }),
               "truncated raft message");
}

}  // namespace
