// Tests for pdc::db: lock manager semantics and deadlock victims, strict
// 2PL transactions (atomicity, rollback, isolation), serializability
// analysis, timestamp ordering, and concurrent workloads.
#include <gtest/gtest.h>

#include <thread>

#include "concurrency/barrier.hpp"
#include "db/lock_manager.hpp"
#include "db/recovery.hpp"
#include "db/serializability.hpp"
#include "db/timestamp.hpp"
#include "db/transaction.hpp"
#include "db/workload.hpp"
#include "support/rng.hpp"

namespace {

using namespace pdc::db;
using pdc::support::StatusCode;

// ------------------------------------------------------------- lock manager

TEST(LockManager, SharedLocksCoexist) {
  LockManager locks;
  EXPECT_TRUE(locks.lock(1, "a", LockMode::kShared).is_ok());
  EXPECT_TRUE(locks.lock(2, "a", LockMode::kShared).is_ok());
  EXPECT_TRUE(locks.holds(1, "a"));
  EXPECT_TRUE(locks.holds(2, "a"));
  locks.unlock_all(1);
  EXPECT_FALSE(locks.holds(1, "a"));
}

TEST(LockManager, ExclusiveBlocksUntilRelease) {
  LockManager locks;
  ASSERT_TRUE(locks.lock(1, "a", LockMode::kExclusive).is_ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(locks.lock(2, "a", LockMode::kExclusive).is_ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  locks.unlock_all(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManager, UpgradeWhenSoleSharer) {
  LockManager locks;
  ASSERT_TRUE(locks.lock(1, "a", LockMode::kShared).is_ok());
  ASSERT_TRUE(locks.lock(1, "a", LockMode::kExclusive).is_ok());
  EXPECT_TRUE(locks.holds(1, "a"));
  // Another reader must now block or fail; verify via a second thread that
  // only proceeds after unlock.
  std::atomic<bool> granted{false};
  std::thread reader([&] {
    ASSERT_TRUE(locks.lock(2, "a", LockMode::kShared).is_ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(granted.load());
  locks.unlock_all(1);
  reader.join();
}

TEST(LockManager, XOwnerMayReadItsOwnKey) {
  LockManager locks;
  ASSERT_TRUE(locks.lock(1, "a", LockMode::kExclusive).is_ok());
  EXPECT_TRUE(locks.lock(1, "a", LockMode::kShared).is_ok());  // subsumed
  EXPECT_TRUE(locks.holds(1, "a"));
}

TEST(LockManager, DeadlockChoosesYoungestVictim) {
  LockManager locks;
  ASSERT_TRUE(locks.lock(1, "a", LockMode::kExclusive).is_ok());
  ASSERT_TRUE(locks.lock(2, "b", LockMode::kExclusive).is_ok());

  pdc::support::Status status1, status2;
  std::thread t1([&] { status1 = locks.lock(1, "b", LockMode::kExclusive); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread t2([&] { status2 = locks.lock(2, "a", LockMode::kExclusive); });
  t2.join();
  // Txn 2 (youngest) must be the victim.
  EXPECT_EQ(status2.code(), StatusCode::kAborted);
  locks.unlock_all(2);  // victim's rollback
  t1.join();
  EXPECT_TRUE(status1.is_ok());
  EXPECT_EQ(locks.deadlocks_detected(), 1u);
}

// ------------------------------------------------------------- transactions

TEST(Transaction, CommitPublishesWrites) {
  Database db;
  Txn txn = db.begin();
  ASSERT_TRUE(txn.put("x", "1").is_ok());
  ASSERT_TRUE(txn.commit().is_ok());
  EXPECT_EQ(db.peek("x").value_or(""), "1");
  EXPECT_EQ(db.stats().committed, 1u);
}

TEST(Transaction, AbortRollsBackAllWrites) {
  Database db;
  {
    Txn setup = db.begin();
    ASSERT_TRUE(setup.put("x", "original").is_ok());
    ASSERT_TRUE(setup.commit().is_ok());
  }
  Txn txn = db.begin();
  ASSERT_TRUE(txn.put("x", "changed").is_ok());
  ASSERT_TRUE(txn.put("y", "new").is_ok());
  ASSERT_TRUE(txn.erase("x").is_ok());
  txn.abort();
  EXPECT_EQ(db.peek("x").value_or(""), "original");
  EXPECT_FALSE(db.peek("y").has_value());
}

TEST(Transaction, DestructionOfActiveTxnAborts) {
  Database db;
  { Txn txn = db.begin(); (void)txn.put("ghost", "1"); }
  EXPECT_FALSE(db.peek("ghost").has_value());
  EXPECT_EQ(db.stats().aborted, 1u);
}

TEST(Transaction, GetReturnsNotFoundForMissingKey) {
  Database db;
  Txn txn = db.begin();
  EXPECT_EQ(txn.get("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(txn.commit().is_ok());
}

TEST(Transaction, RepeatedWritesUndoToOriginal) {
  Database db;
  {
    Txn setup = db.begin();
    ASSERT_TRUE(setup.put("k", "v0").is_ok());
    ASSERT_TRUE(setup.commit().is_ok());
  }
  Txn txn = db.begin();
  ASSERT_TRUE(txn.put("k", "v1").is_ok());
  ASSERT_TRUE(txn.put("k", "v2").is_ok());
  txn.abort();
  EXPECT_EQ(db.peek("k").value_or(""), "v0");
}

TEST(Transaction, DeadlockVictimIsRolledBackAndReports) {
  Database db;
  {
    Txn setup = db.begin();
    ASSERT_TRUE(setup.put("a", "0").is_ok());
    ASSERT_TRUE(setup.put("b", "0").is_ok());
    ASSERT_TRUE(setup.commit().is_ok());
  }
  pdc::concurrency::CyclicBarrier barrier(2);
  std::atomic<int> aborted_count{0};
  auto worker = [&](const std::string& first, const std::string& second) {
    Txn txn = db.begin();
    ASSERT_TRUE(txn.put(first, "mine").is_ok());
    barrier.arrive_and_wait();  // both hold their first key
    const auto status = txn.put(second, "mine");
    if (!status.is_ok()) {
      EXPECT_EQ(status.code(), StatusCode::kAborted);
      EXPECT_FALSE(txn.active());  // already rolled back
      ++aborted_count;
      return;
    }
    ASSERT_TRUE(txn.commit().is_ok());
  };
  std::thread t1(worker, "a", "b");
  std::thread t2(worker, "b", "a");
  t1.join();
  t2.join();
  EXPECT_EQ(aborted_count.load(), 1);  // exactly one victim
  EXPECT_EQ(db.stats().deadlock_aborts, 1u);
  // Survivor's writes are visible; DB is consistent.
  EXPECT_EQ(db.peek("a").value_or(""), "mine");
  EXPECT_EQ(db.peek("b").value_or(""), "mine");
}

TEST(Transaction, ConcurrentIncrementsSerialize) {
  Database db;
  {
    Txn setup = db.begin();
    ASSERT_TRUE(setup.put("counter", "0").is_ok());
    ASSERT_TRUE(setup.commit().is_ok());
  }
  constexpr int kThreads = 4, kIncrements = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        // Read-modify-write with retry: two transactions S-locking then
        // upgrading deadlock — detection aborts one, which retries.
        for (;;) {
          Txn txn = db.begin();
          const auto current = txn.get("counter");
          if (!current.is_ok()) continue;  // deadlock victim: txn rolled back
          const int parsed = std::stoi(current.value());
          if (!txn.put("counter", std::to_string(parsed + 1)).is_ok()) {
            continue;
          }
          if (txn.commit().is_ok()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.peek("counter").value_or(""),
            std::to_string(kThreads * kIncrements));
}

// ----------------------------------------------------------- serializability

TEST(Serializability, SerialScheduleIsSerializable) {
  const Schedule schedule{
      {1, OpType::kRead, "x"}, {1, OpType::kWrite, "x"},
      {2, OpType::kRead, "x"}, {2, OpType::kWrite, "x"},
  };
  EXPECT_TRUE(conflict_serializable(schedule));
  const auto order = serialization_order(schedule);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::size_t>{1, 2}));
}

TEST(Serializability, ClassicUnserializableInterleaving) {
  // T1 reads x, T2 writes x, T2 reads y... the lost-update shape:
  // r1(x) w2(x) w1(x) — edges 1->2 and 2->1.
  const Schedule schedule{
      {1, OpType::kRead, "x"},
      {2, OpType::kWrite, "x"},
      {1, OpType::kWrite, "x"},
  };
  EXPECT_FALSE(conflict_serializable(schedule));
  EXPECT_FALSE(serialization_order(schedule).has_value());
}

TEST(Serializability, ReadsDoNotConflict) {
  const Schedule schedule{
      {1, OpType::kRead, "x"},
      {2, OpType::kRead, "x"},
      {1, OpType::kRead, "x"},
  };
  EXPECT_TRUE(conflict_serializable(schedule));
  EXPECT_TRUE(precedence_edges(schedule).empty());
}

TEST(Serializability, InterleavedButEquivalentToSerial) {
  // Disjoint keys: any interleaving is serializable.
  const Schedule schedule{
      {1, OpType::kWrite, "x"},
      {2, OpType::kWrite, "y"},
      {1, OpType::kWrite, "x"},
      {2, OpType::kWrite, "y"},
  };
  EXPECT_TRUE(conflict_serializable(schedule));
}

TEST(Serializability, EdgesAreDeduplicated) {
  const Schedule schedule{
      {1, OpType::kWrite, "x"},
      {2, OpType::kWrite, "x"},
      {1, OpType::kWrite, "y"},
      {2, OpType::kWrite, "y"},
  };
  EXPECT_EQ(precedence_edges(schedule).size(), 1u);  // 1->2 once
}

// --------------------------------------------------------- timestamp ordering

TEST(TimestampOrdering, InOrderOpsAllCommit) {
  const Schedule schedule{
      {1, OpType::kWrite, "x"},
      {2, OpType::kRead, "x"},
      {3, OpType::kWrite, "x"},
  };
  const auto stats = run_timestamp_ordering(schedule);
  EXPECT_EQ(stats.committed, 3u);
  EXPECT_EQ(stats.aborted, 0u);
}

TEST(TimestampOrdering, LateWriteAfterYoungerReadAborts) {
  // Txn 1's write arrives after txn 2 already read x: 1 must abort.
  const Schedule schedule{
      {2, OpType::kRead, "x"},
      {1, OpType::kWrite, "x"},
  };
  const auto stats = run_timestamp_ordering(schedule);
  EXPECT_EQ(stats.aborted, 1u);
}

TEST(TimestampOrdering, LateReadAfterYoungerWriteAborts) {
  const Schedule schedule{
      {2, OpType::kWrite, "x"},
      {1, OpType::kRead, "x"},
  };
  const auto stats = run_timestamp_ordering(schedule);
  EXPECT_EQ(stats.aborted, 1u);
}

TEST(TimestampOrdering, ThomasWriteRuleSkipsInsteadOfAborting) {
  const Schedule schedule{
      {2, OpType::kWrite, "x"},
      {1, OpType::kWrite, "x"},  // obsolete write
  };
  const auto basic = run_timestamp_ordering(schedule, false);
  EXPECT_EQ(basic.aborted, 1u);
  const auto thomas = run_timestamp_ordering(schedule, true);
  EXPECT_EQ(thomas.aborted, 0u);
  EXPECT_EQ(thomas.thomas_skips, 1u);
}

TEST(TimestampOrdering, AbortedTxnOpsIgnored) {
  const Schedule schedule{
      {2, OpType::kRead, "x"},
      {1, OpType::kWrite, "x"},  // 1 aborts here
      {1, OpType::kWrite, "y"},  // ignored
      {3, OpType::kRead, "y"},   // y untouched by txn 1
  };
  const auto stats = run_timestamp_ordering(schedule);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.committed, 2u);
  EXPECT_EQ(stats.operations_executed, 2u);
}

// ------------------------------------------------------------------ workload

TEST(Workload, AllTransactionsEventuallyCommit) {
  Database db;
  WorkloadConfig config;
  config.clients = 4;
  config.txns_per_client = 50;
  config.keys = 16;
  config.zipf_skew = 0.9;  // contended
  config.write_fraction = 0.7;
  const auto result = run_2pl_workload(db, config);
  // Every transaction is accounted for, and with backoff none is dropped.
  EXPECT_EQ(result.committed + result.gave_up, 200u);
  EXPECT_EQ(result.gave_up, 0u);
  EXPECT_EQ(db.stats().committed, result.committed);
}

TEST(Workload, ContentionIncreasesDeadlockAborts) {
  WorkloadConfig uncontended;
  uncontended.clients = 4;
  uncontended.txns_per_client = 100;
  uncontended.keys = 4096;
  uncontended.write_fraction = 0.8;
  uncontended.yield_between_ops = true;  // force interleaving on 1 core

  WorkloadConfig contended = uncontended;
  contended.keys = 8;
  contended.zipf_skew = 1.0;

  Database db1, db2;
  const auto low = run_2pl_workload(db1, uncontended);
  const auto high = run_2pl_workload(db2, contended);
  EXPECT_GE(high.deadlock_aborts, low.deadlock_aborts);
  EXPECT_GT(high.deadlock_aborts, 0u);  // hot keys + writes must deadlock
}

TEST(Workload, ScheduleGeneratorShapesMatch) {
  WorkloadConfig config;
  config.clients = 3;
  config.txns_per_client = 5;
  config.ops_per_txn = 4;
  const auto schedule = make_schedule(config);
  EXPECT_EQ(schedule.size(), 3u * 5 * 4);
  // All txn ids appear, each with exactly ops_per_txn operations.
  std::map<std::size_t, int> counts;
  for (const auto& op : schedule) counts[op.txn]++;
  EXPECT_EQ(counts.size(), 15u);
  for (const auto& [txn, count] : counts) EXPECT_EQ(count, 4) << txn;
}

TEST(Workload, Property_Every2plHistoryIsConflictSerializable) {
  // The fundamental theorem of 2PL, checked against real concurrent
  // executions: whatever interleaving the scheduler produced, the
  // committed history must be conflict-serializable. Several seeds and
  // contention levels to diversify interleavings.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Database db;
    db.record_history(true);
    WorkloadConfig config;
    config.clients = 4;
    config.txns_per_client = 50;
    config.keys = 8;  // hot: plenty of conflicts
    config.zipf_skew = 1.0;
    config.write_fraction = 0.6;
    config.yield_between_ops = true;
    config.seed = seed;
    (void)run_2pl_workload(db, config);
    const auto history = db.committed_history();
    EXPECT_FALSE(history.empty());
    EXPECT_TRUE(conflict_serializable(history)) << "seed " << seed;
  }
}

TEST(Workload, HistoryExcludesAbortedTransactions) {
  Database db;
  db.record_history(true);
  {
    Txn committed_txn = db.begin();
    ASSERT_TRUE(committed_txn.put("a", "1").is_ok());
    ASSERT_TRUE(committed_txn.commit().is_ok());
  }
  {
    Txn doomed = db.begin();
    ASSERT_TRUE(doomed.put("a", "2").is_ok());
    doomed.abort();
  }
  const auto history = db.committed_history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].key, "a");
  EXPECT_EQ(history[0].type, OpType::kWrite);
}

TEST(Workload, TimestampOrderingAbortsRiseWithContention) {
  WorkloadConfig uncontended;
  uncontended.clients = 8;
  uncontended.txns_per_client = 50;
  uncontended.keys = 4096;

  WorkloadConfig contended = uncontended;
  contended.keys = 8;
  contended.zipf_skew = 1.0;

  const auto low = run_timestamp_ordering(make_schedule(uncontended));
  const auto high = run_timestamp_ordering(make_schedule(contended));
  EXPECT_GT(high.abort_rate(), low.abort_rate());
}

// ---------------------------------------------------------------- recovery

TEST(WalRecovery, CommittedDataSurvivesCrash) {
  WalStore store;
  const auto txn = store.begin();
  store.put(txn, "x", "42");
  store.put(txn, "y", "7");
  store.commit(txn);
  // NO-FORCE: nothing was flushed; the log alone must carry the data.
  store.crash();
  const auto stats = store.recover();
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.redone, 2u);
  EXPECT_EQ(store.read("x").value_or(""), "42");
  EXPECT_EQ(store.read("y").value_or(""), "7");
}

TEST(WalRecovery, UncommittedDataNeverSurfaces) {
  WalStore store;
  const auto txn = store.begin();
  store.put(txn, "x", "dirty");
  store.flush_page("x");  // STEAL: dirty page reaches stable storage
  store.crash();
  const auto stats = store.recover();
  EXPECT_EQ(stats.losers, 1u);
  EXPECT_GE(stats.undone, 1u);
  EXPECT_FALSE(store.read("x").has_value());
}

TEST(WalRecovery, StealPlusCommitMix) {
  WalStore store;
  // Committed baseline.
  const auto setup = store.begin();
  store.put(setup, "a", "old");
  store.commit(setup);
  store.flush_page("a");

  const auto winner = store.begin();
  const auto loser = store.begin();
  store.put(winner, "a", "new");
  store.put(loser, "b", "ghost");
  store.flush_page("b");  // loser's dirty page stolen
  store.commit(winner);   // winner's page NOT flushed
  store.crash();

  store.recover();
  EXPECT_EQ(store.read("a").value_or(""), "new");   // redo won
  EXPECT_FALSE(store.read("b").has_value());        // undo won
}

TEST(WalRecovery, EraseIsRecoverable) {
  WalStore store;
  const auto setup = store.begin();
  store.put(setup, "k", "v");
  store.commit(setup);

  const auto txn = store.begin();
  store.erase(txn, "k");
  store.commit(txn);
  store.crash();
  store.recover();
  EXPECT_FALSE(store.read("k").has_value());
}

TEST(WalRecovery, CleanAbortThenCrash) {
  WalStore store;
  const auto setup = store.begin();
  store.put(setup, "k", "original");
  store.commit(setup);
  store.flush_page("k");

  const auto txn = store.begin();
  store.put(txn, "k", "scribble");
  store.flush_page("k");  // stolen before the abort
  store.abort(txn);
  EXPECT_EQ(store.read("k").value_or(""), "original");  // cache view fixed
  store.crash();
  store.recover();
  EXPECT_EQ(store.read("k").value_or(""), "original");  // stable view fixed
}

TEST(WalRecovery, RecoveryIsIdempotent) {
  WalStore store;
  const auto txn = store.begin();
  store.put(txn, "x", "1");
  store.commit(txn);
  store.crash();
  store.recover();
  const auto again = store.recover();  // e.g. crash during recovery
  EXPECT_EQ(again.committed_txns, 1u);
  EXPECT_EQ(store.read("x").value_or(""), "1");
}

TEST(WalRecovery, ConflictingConcurrentWritersRejected) {
  WalStore store;
  const auto t1 = store.begin();
  const auto t2 = store.begin();
  store.put(t1, "k", "a");
  EXPECT_THROW(store.put(t2, "k", "b"), pdc::support::CheckFailure);
}

TEST(WalRecovery, RandomizedCrashProperty) {
  // Property: after ANY interleaving of puts/flushes and a crash, recovery
  // exposes exactly the committed transactions' final values.
  pdc::support::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    WalStore store;
    std::map<std::string, std::string> committed_view;
    for (int t = 0; t < 10; ++t) {
      const auto txn = store.begin();
      const bool will_commit = rng.bernoulli(0.6);
      std::map<std::string, std::string> writes;
      const auto ops = 1 + rng.index(3);
      for (std::size_t o = 0; o < ops; ++o) {
        // Disjoint keyspace per txn avoids 2PL conflicts (sequential txns
        // here anyway, but keys repeat across txns).
        const std::string key = "k" + std::to_string(rng.index(6));
        const std::string value =
            "t" + std::to_string(t) + "o" + std::to_string(o);
        store.put(txn, key, value);
        writes[key] = value;
        if (rng.bernoulli(0.5)) store.flush_page(key);
      }
      if (will_commit) {
        store.commit(txn);
        for (auto& [key, value] : writes) committed_view[key] = value;
      } else {
        // Crash with this transaction in flight half the time; otherwise
        // clean abort.
        if (rng.bernoulli(0.5)) {
          store.crash();
          store.recover();
        } else {
          store.abort(txn);
        }
      }
    }
    store.crash();
    store.recover();
    for (const auto& [key, value] : committed_view) {
      EXPECT_EQ(store.read(key).value_or("<missing>"), value)
          << "round " << round << " key " << key;
    }
    for (int k = 0; k < 6; ++k) {
      const std::string key = "k" + std::to_string(k);
      if (!committed_view.count(key)) {
        EXPECT_FALSE(store.read(key).has_value()) << "round " << round;
      }
    }
  }
}

}  // namespace
