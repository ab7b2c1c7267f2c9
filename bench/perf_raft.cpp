// Experiment PERF-RAFT — what consensus costs on real threads.
//
// A 3-rank dist::ReplicatedKV cluster on OS threads (no simulator):
//   1. client-visible operation latency: put (log append + quorum commit +
//      apply + reply) and get (served from the leader lease with no
//      message; a read-index heartbeat round only when the lease has
//      lapsed), mean / p50 / p99 microseconds;
//   2. pipelined log throughput: entries submitted back-to-back at the
//      leader, committed entries per second;
//   3. leader failover: destroy the leader, time until a replacement wins
//      an election (randomized 12-24ms timeouts bound this below). The
//      crashed leader rejoins and refuses votes for a refusal window after
//      its restart (the lease's safety rule), so it cannot vote at once in
//      the next round's election.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/raft.hpp"
#include "dist/replicated_kv.hpp"
#include "mp/world.hpp"
#include "obs/bench_report.hpp"
#include "support/table.hpp"

using namespace pdc;
using dist::RaftPersistentState;
using mp::Communicator;
using mp::World;
using support::TextTable;

namespace {

constexpr int kRanks = 3;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Discards commands: isolates raw log replication cost from any state
/// machine (raw submit payloads are not KvMachine commands).
class DiscardMachine : public dist::StateMachine {
 public:
  std::vector<std::uint8_t> apply(std::uint64_t,
                                  const std::vector<std::uint8_t>&) override {
    return {};
  }
  std::vector<std::uint8_t> snapshot_image() override { return {}; }
  void restore(const std::vector<std::uint8_t>&) override {}
};

struct LatencyStats {
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

LatencyStats summarize(std::vector<double> samples) {
  LatencyStats out;
  if (samples.empty()) return out;
  double total = 0.0;
  for (const double s : samples) total += s;
  out.mean = total / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  out.p50 = samples[samples.size() / 2];
  out.p99 = samples[samples.size() * 99 / 100];
  return out;
}

}  // namespace

int main() {
  obs::BenchReport report("perf_raft");
  std::cout << "=== PERF-RAFT: consensus on real threads ===\n\n";

  // --------------------------------------------- 1: client op latency
  {
    constexpr int kWarmup = 16;
    constexpr int kOps = 200;
    std::atomic<bool> bench_done{false};
    std::atomic<int> leader_slot{-1};
    std::vector<double> put_us;
    std::vector<double> get_us;

    std::vector<RaftPersistentState> storage(kRanks);
    World world(kRanks);
    world.run([&](Communicator& comm) {
      dist::ReplicatedKV kv(comm, storage[static_cast<std::size_t>(comm.rank())]);
      while (leader_slot.load() == -1) {
        if (kv.is_leader()) leader_slot.store(comm.rank());
        kv.step();
        std::this_thread::yield();
      }
      if (comm.rank() != leader_slot.load()) {
        while (!bench_done.load()) {
          kv.step();
          std::this_thread::yield();
        }
        return;
      }

      for (int i = 0; i < kWarmup; ++i) (void)kv.put("bench", "warm");
      for (int i = 0; i < kOps; ++i) {
        const double t0 = now_us();
        (void)kv.put("bench", "v" + std::to_string(i));
        put_us.push_back(now_us() - t0);
      }
      for (int i = 0; i < kOps; ++i) {
        const double t0 = now_us();
        (void)kv.get("bench");
        get_us.push_back(now_us() - t0);
      }
      bench_done = true;
    });

    const auto put = summarize(put_us);
    const auto get = summarize(get_us);
    TextTable table("1. ReplicatedKV client latency (3 ranks, OS threads)");
    table.set_header({"op", "mean us", "p50 us", "p99 us"});
    table.add_row({"put", TextTable::num(put.mean, 1), TextTable::num(put.p50, 1),
                   TextTable::num(put.p99, 1)});
    table.add_row({"get", TextTable::num(get.mean, 1), TextTable::num(get.p50, 1),
                   TextTable::num(get.p99, 1)});
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("put.mean_us", put.mean);
    report.add_metric("put.p50_us", put.p50);
    report.add_metric("put.p99_us", put.p99);
    report.add_metric("get.mean_us", get.mean);
    report.add_metric("get.p50_us", get.p50);
    report.add_metric("get.p99_us", get.p99);
    std::cout << "(get rides the leader lease: no log write and no "
                 "message while a quorum-acked heartbeat is under 7.7 ms "
                 "old; otherwise one confirmed heartbeat round)\n\n";
  }

  // ------------------------------------- 2: pipelined log throughput
  {
    constexpr int kPipeline = 512;
    std::atomic<bool> bench_done{false};
    std::atomic<int> leader_slot{-1};
    double commits_per_s = 0.0;

    std::vector<RaftPersistentState> storage(kRanks);
    World world(kRanks);
    world.run([&](Communicator& comm) {
      DiscardMachine machine;
      dist::RaftNode node(comm, machine,
                          storage[static_cast<std::size_t>(comm.rank())],
                          dist::RaftOptions{});
      while (leader_slot.load() == -1) {
        if (node.role() == dist::RaftRole::kLeader) {
          leader_slot.store(comm.rank());
        }
        node.tick();
        std::this_thread::yield();
      }
      if (comm.rank() != leader_slot.load()) {
        while (!bench_done.load()) {
          node.tick();
          std::this_thread::yield();
        }
        return;
      }

      // Don't wait per entry; keep the log full and let appends batch.
      const std::vector<std::uint8_t> payload(16, 0x2a);
      const double t0 = now_us();
      std::uint64_t last = 0;
      for (int i = 0; i < kPipeline; ++i) {
        const auto idx = node.submit(payload);
        if (idx) last = *idx;
        if (i % 8 == 0) node.tick();
      }
      while (node.commit_index() < last) {
        node.tick();
        std::this_thread::yield();
      }
      commits_per_s = static_cast<double>(kPipeline) / ((now_us() - t0) * 1e-6);
      bench_done = true;
    });

    report.add_metric("pipeline.commits_per_s", commits_per_s);
    std::cout << "2. Pipelined log throughput: "
              << TextTable::num(commits_per_s, 0) << " commits/s ("
              << kPipeline << " entries in flight)\n\n";
  }

  // --------------------------------------------------------- 3: failover
  {
    constexpr int kCrashes = 3;
    std::array<std::atomic<int>, kCrashes + 1> slot;
    std::array<std::atomic<double>, kCrashes + 1> claim_us{};
    std::array<std::atomic<double>, kCrashes> crash_us{};
    for (auto& s : slot) s.store(-1);

    std::vector<RaftPersistentState> storage(kRanks);
    World world(kRanks);
    world.run([&](Communicator& comm) {
      const auto rank = comm.rank();
      std::optional<dist::KvMachine> machine(std::in_place);
      std::optional<dist::RaftNode> node(
          std::in_place, comm, *machine,
          storage[static_cast<std::size_t>(rank)], dist::RaftOptions{});
      for (int round = 0; round <= kCrashes; ++round) {
        while (slot[static_cast<std::size_t>(round)].load() == -1) {
          if (node && node->role() == dist::RaftRole::kLeader) {
            int expected = -1;
            if (slot[static_cast<std::size_t>(round)]
                    .compare_exchange_strong(expected, rank)) {
              claim_us[static_cast<std::size_t>(round)].store(now_us());
            }
          }
          if (node) node->tick();
          std::this_thread::yield();
        }
        if (round == kCrashes) break;
        if (rank == slot[static_cast<std::size_t>(round)].load()) {
          crash_us[static_cast<std::size_t>(round)].store(now_us());
          node.reset();  // the leader dies mid-reign
          while (slot[static_cast<std::size_t>(round + 1)].load() == -1) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
          machine.emplace();
          node.emplace(comm, *machine,
                       storage[static_cast<std::size_t>(rank)],
                       dist::RaftOptions{});
        }
      }
    });

    TextTable table("3. Leader failover (crash -> new leader elected)");
    table.set_header({"round", "failover ms"});
    double total = 0.0;
    double worst = 0.0;
    for (int i = 0; i < kCrashes; ++i) {
      const double ms = (claim_us[static_cast<std::size_t>(i + 1)].load() -
                         crash_us[static_cast<std::size_t>(i)].load()) *
                        1e-3;
      total += ms;
      worst = std::max(worst, ms);
      table.add_row({std::to_string(i + 1), TextTable::num(ms, 2)});
    }
    table.render(std::cout);
    report.add_table(table);
    report.add_metric("failover.mean_ms", total / kCrashes);
    report.add_metric("failover.max_ms", worst);
    std::cout << "(bounded by the randomized election timeout band, "
                 "12-24ms, plus one round of RequestVote RTTs)\n";
  }

  report.write_if_requested();
  return 0;
}
