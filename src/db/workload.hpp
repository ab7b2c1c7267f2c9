// Transactional workload generation and execution harness.
//
// Drives the Database with a configurable OLTP-shaped workload (key count,
// Zipf skew, transaction length, write fraction, client threads); also
// generates plain Schedules for the T/O scheduler and serializability
// analysis, so both schedulers run the *same* logical workloads in
// bench/perf_txn_sched.
#pragma once

#include <cstdint>

#include "db/serializability.hpp"
#include "db/transaction.hpp"

namespace pdc::db {

struct WorkloadConfig {
  std::size_t clients = 4;          // concurrent worker threads
  std::size_t txns_per_client = 100;
  std::size_t keys = 64;            // keyspace size
  double zipf_skew = 0.0;           // 0 = uniform; higher = more contention
  std::size_t ops_per_txn = 4;
  double write_fraction = 0.5;
  std::size_t max_attempts = 64;    // attempts per transaction
  std::uint64_t seed = 42;
  /// Yield the OS scheduler between operations: forces real interleaving
  /// on few-core hosts so lock contention and deadlocks actually manifest.
  bool yield_between_ops = false;
};

struct WorkloadResult {
  std::uint64_t committed = 0;
  std::uint64_t deadlock_aborts = 0;  // total victim events (before retry)
  std::uint64_t gave_up = 0;          // dropped after max_attempts aborts
  double seconds = 0.0;

  [[nodiscard]] double throughput() const {
    return seconds <= 0.0 ? 0.0 : static_cast<double>(committed) / seconds;
  }
  [[nodiscard]] double abort_ratio() const {
    const auto attempts = committed + deadlock_aborts;
    return attempts == 0
               ? 0.0
               : static_cast<double>(deadlock_aborts) / static_cast<double>(attempts);
  }
};

/// Runs the workload against `db` with strict-2PL transactions; deadlock
/// victims back off and retry (fresh transaction) up to max_attempts, then
/// count as gave_up.
WorkloadResult run_2pl_workload(Database& db, const WorkloadConfig& config);

/// Generates the same shape of workload as one interleaved Schedule for
/// the T/O scheduler (round-robin interleaving of the clients' ops).
Schedule make_schedule(const WorkloadConfig& config);

}  // namespace pdc::db
