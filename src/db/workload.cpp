#include "db/workload.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "concurrency/backoff.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace pdc::db {

namespace {
std::string key_name(std::size_t k) { return "k" + std::to_string(k); }

// A victim restarts as a fresh transaction, younger than the one that
// won, so it loses again if it re-enters that deadlock; retrying at once
// can do so before the winner has finished. Backing off — a few yields,
// then short sleeps — lets the winner run first.
void back_off(concurrency::Backoff& backoff) {
  if (backoff.park_ready()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  } else {
    backoff.step();
  }
}
}  // namespace

WorkloadResult run_2pl_workload(Database& db, const WorkloadConfig& config) {
  PDC_CHECK(config.clients >= 1);
  WorkloadResult result;
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> deadlock_aborts{0};
  std::atomic<std::uint64_t> gave_up{0};
  support::Stopwatch clock;

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      support::Rng rng(config.seed + c * 1000003);
      const support::ZipfDistribution zipf(config.keys, config.zipf_skew);
      for (std::size_t t = 0; t < config.txns_per_client; ++t) {
        // Pre-draw the op list so a retry re-executes the same logical txn.
        struct PlannedOp {
          bool write;
          std::size_t key;
        };
        std::vector<PlannedOp> ops(config.ops_per_txn);
        for (auto& op : ops) {
          op.write = rng.bernoulli(config.write_fraction);
          op.key = zipf(rng);
        }
        concurrency::Backoff backoff(/*spin_limit=*/0, /*yield_limit=*/4);
        bool done = false;
        for (std::size_t attempt = 0; !done && attempt < config.max_attempts;
             ++attempt) {
          Txn txn = db.begin();
          bool victim = false;
          for (const auto& op : ops) {
            if (config.yield_between_ops) std::this_thread::yield();
            if (op.write) {
              const auto status =
                  txn.put(key_name(op.key), std::to_string(txn.id()));
              if (!status.is_ok()) {
                victim = true;
                break;
              }
            } else {
              const auto value = txn.get(key_name(op.key));
              if (!value.is_ok() &&
                  value.status().code() == support::StatusCode::kAborted) {
                victim = true;
                break;
              }
            }
          }
          if (!victim) {
            PDC_CHECK(txn.commit().is_ok());
            ++committed;
            done = true;
          } else {
            ++deadlock_aborts;  // txn already rolled back; retry
            back_off(backoff);
          }
        }
        if (!done) ++gave_up;
      }
    });
  }
  for (auto& t : clients) t.join();

  result.seconds = clock.elapsed_seconds();
  result.committed = committed.load();
  result.deadlock_aborts = deadlock_aborts.load();
  result.gave_up = gave_up.load();
  return result;
}

Schedule make_schedule(const WorkloadConfig& config) {
  // Per-client op streams, interleaved round-robin one op at a time — a
  // dense interleaving that stresses T/O the way concurrency stresses 2PL.
  struct Stream {
    std::size_t txn;
    std::vector<ScheduleOp> ops;
  };
  std::vector<Stream> streams;
  std::size_t txn_id = 1;
  for (std::size_t c = 0; c < config.clients; ++c) {
    support::Rng rng(config.seed + c * 1000003);
    const support::ZipfDistribution zipf(config.keys, config.zipf_skew);
    for (std::size_t t = 0; t < config.txns_per_client; ++t) {
      Stream stream;
      stream.txn = txn_id++;
      for (std::size_t o = 0; o < config.ops_per_txn; ++o) {
        stream.ops.push_back(
            {stream.txn,
             rng.bernoulli(config.write_fraction) ? OpType::kWrite : OpType::kRead,
             key_name(zipf(rng))});
      }
      streams.push_back(std::move(stream));
    }
  }

  Schedule schedule;
  // Interleave `clients` concurrent transactions at a time.
  std::size_t window_start = 0;
  while (window_start < streams.size()) {
    const std::size_t window_end =
        std::min(window_start + config.clients, streams.size());
    for (std::size_t o = 0; o < config.ops_per_txn; ++o) {
      for (std::size_t s = window_start; s < window_end; ++s) {
        schedule.push_back(streams[s].ops[o]);
      }
    }
    window_start = window_end;
  }
  return schedule;
}

}  // namespace pdc::db
