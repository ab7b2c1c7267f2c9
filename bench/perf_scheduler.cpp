// Experiment PERF-SCHEDULER — cost of the scheduler itself: lock-free
// Chase–Lev work stealing (PR 3, docs/scheduler.md) against the design it
// replaced, per-worker mutexed deques.
//
//   1. spawn/steal throughput: a flood of trivial tasks, so the measured
//      time is almost purely scheduler overhead (enqueue + dispatch +
//      decrement); reported as tasks/second.
//   2. fork/join latency: a binary task tree forked from inside workers —
//      the owner push/pop fast path plus the steal path, the shape
//      parallel sorts and task graphs generate.
//   3. hot-owner flood: one worker spawns every task, peers must steal.
//   4. the ThreadPool front (post/shutdown over the same scheduler):
//      external post→run throughput, and the latency of one parallel_for
//      call (post the runners, run the caller's share, join on a latch).
//
// The baseline pool below deliberately reproduces the pre-PR-3 scheduler:
// one std::mutex per worker deque, std::function tasks, lock-the-victim
// stealing, an unconditional notify_one per spawn, and a timed CV wait
// whenever a worker comes up empty. Same topology, same task bodies — only
// the synchronization strategy differs, so the ratio isolates what every
// scheduler transition used to pay in locks and wakeups.
//
// JSON via PDCKIT_BENCH_JSON (obs::BenchReport); compared across commits
// by bench/compare.py against BENCH_baseline.json.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_report.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using pdc::support::Stopwatch;
using pdc::support::TextTable;

// ------------------------------------------------------------ baseline pool

namespace baseline {

// The pre-PR-3 scheduler, reproduced verbatim in structure: per-worker
// deques each guarded by its own mutex (owners push/pop the back, thieves
// lock a victim and take the front), std::function tasks, one
// notify_one per spawn, and a 1ms timed CV wait when a scan finds nothing.
class MutexedPool {
 public:
  explicit MutexedPool(std::size_t threads) : workers_(threads) {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~MutexedPool() {
    wait_idle();
    stopping_.store(true, std::memory_order_release);
    idle_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void spawn(std::function<void()> fn) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t index =
        (t_pool == this) ? t_index : next_.fetch_add(1) % workers_.size();
    Worker& w = workers_[index];
    {
      std::scoped_lock lock(w.mutex);
      w.queue.push_back(std::move(fn));
    }
    idle_cv_.notify_one();
  }

  void wait_idle() {
    while (pending_.load(std::memory_order_acquire) != 0) {
      if (!run_one(SIZE_MAX)) {
        std::unique_lock lock(idle_mutex_);
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return pending_.load(std::memory_order_acquire) == 0;
        });
      }
    }
  }

 private:
  struct alignas(64) Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> queue;
  };

  bool run_one(std::size_t self) {
    std::function<void()> task;
    if (!try_take(self, task)) return false;
    task();
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  bool try_take(std::size_t self, std::function<void()>& out) {
    if (self != SIZE_MAX) {
      Worker& w = workers_[self];
      std::scoped_lock lock(w.mutex);
      if (!w.queue.empty()) {
        out = std::move(w.queue.back());
        w.queue.pop_back();
        return true;
      }
    }
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      if (k == self) continue;
      Worker& w = workers_[k];
      std::scoped_lock lock(w.mutex);
      if (!w.queue.empty()) {
        out = std::move(w.queue.front());
        w.queue.pop_front();
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    t_pool = this;
    t_index = self;
    while (!stopping_.load(std::memory_order_acquire)) {
      if (!run_one(self)) {
        std::unique_lock lock(idle_mutex_);
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return stopping_.load(std::memory_order_acquire) ||
                 pending_.load(std::memory_order_acquire) != 0;
        });
      }
    }
    t_pool = nullptr;
  }

  static thread_local const MutexedPool* t_pool;
  static thread_local std::size_t t_index;

  std::deque<Worker> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

thread_local const MutexedPool* MutexedPool::t_pool = nullptr;
thread_local std::size_t MutexedPool::t_index = 0;

}  // namespace baseline

// ------------------------------------------------------------- experiments

constexpr int kSpawnTasks = 200000;
constexpr int kForkDepth = 12;  // binary tree: 2^12 - 1 = 4095 tasks
constexpr int kForkTrees = 20;

/// Spawn-throughput probe: tasks do one relaxed increment, nothing else.
template <typename Pool>
double spawn_tasks_per_second(Pool& pool) {
  alignas(64) static std::atomic<int> sink{0};
  sink.store(0, std::memory_order_relaxed);
  Stopwatch timer;
  for (int i = 0; i < kSpawnTasks; ++i) {
    pool.spawn([] { sink.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  const double seconds = timer.elapsed_seconds();
  if (sink.load(std::memory_order_relaxed) != kSpawnTasks) {
    std::cerr << "spawn probe lost tasks\n";
    std::exit(1);
  }
  return static_cast<double>(kSpawnTasks) / seconds;
}

/// Fork/join probe: each task forks two children until depth 0; the
/// recursion runs on worker threads, exercising owner push/pop + steals.
template <typename Pool>
void fork_tree(Pool& pool, std::atomic<int>& count, int depth) {
  count.fetch_add(1, std::memory_order_relaxed);
  if (depth == 0) return;
  for (int i = 0; i < 2; ++i) {
    pool.spawn([&pool, &count, depth] { fork_tree(pool, count, depth - 1); });
  }
}

template <typename Pool>
double forkjoin_us_per_tree(Pool& pool) {
  constexpr int kNodes = (1 << kForkDepth) - 1;
  Stopwatch timer;
  for (int tree = 0; tree < kForkTrees; ++tree) {
    std::atomic<int> count{0};
    pool.spawn([&pool, &count] { fork_tree(pool, count, kForkDepth - 1); });
    pool.wait_idle();
    if (count.load() != kNodes) {
      std::cerr << "fork tree lost tasks\n";
      std::exit(1);
    }
  }
  return timer.elapsed_micros() / kForkTrees;
}

/// Hot-owner flood probe: one worker spawns the whole flood from inside
/// the pool, so every task lands in that worker's deque and the peers can
/// only make progress by stealing from it — the shape a connection-event
/// flood produces when one shard goes hot. This is the probe the
/// steal-half batching in ChaseLevDeque::steal_batch targets: a thief
/// claims up to half the victim's backlog per sweep instead of paying
/// victim selection and a wakeup per task.
template <typename Pool>
double hot_owner_flood_per_second(Pool& pool) {
  alignas(64) static std::atomic<int> sink{0};
  sink.store(0, std::memory_order_relaxed);
  constexpr int kFlood = 100000;
  Stopwatch timer;
  pool.spawn([&pool] {
    for (int i = 0; i < kFlood; ++i) {
      pool.spawn([] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait_idle();
  const double seconds = timer.elapsed_seconds();
  if (sink.load(std::memory_order_relaxed) != kFlood) {
    std::cerr << "hot-owner flood lost tasks\n";
    std::exit(1);
  }
  return kFlood / seconds;
}

constexpr int kForCalls = 2000;
constexpr std::size_t kForRange = 4096;

/// External post→run throughput on the ThreadPool: every task enters
/// through the injection queue from this non-worker thread, and the clock
/// stops when the last one has run (the poster never helps).
double post_tasks_per_second(pdc::parallel::ThreadPool& pool) {
  alignas(64) static std::atomic<int> sink{0};
  sink.store(0, std::memory_order_relaxed);
  Stopwatch timer;
  for (int i = 0; i < kSpawnTasks; ++i) {
    (void)pool.post([] { sink.fetch_add(1, std::memory_order_relaxed); });
  }
  while (sink.load(std::memory_order_relaxed) != kSpawnTasks) {
    std::this_thread::yield();
  }
  return static_cast<double>(kSpawnTasks) / timer.elapsed_seconds();
}

/// Latency of one parallel_for call over kForRange indices with a
/// one-add body: scheduling cost, not compute.
double parallel_for_us_per_call(pdc::parallel::ThreadPool& pool) {
  std::vector<std::uint64_t> data(kForRange, 0);
  Stopwatch timer;
  for (int call = 0; call < kForCalls; ++call) {
    pdc::parallel::parallel_for(pool, 0, kForRange,
                                [&data](std::size_t i) { data[i] += 1; });
  }
  const double us = timer.elapsed_micros() / kForCalls;
  for (const std::uint64_t v : data) {
    if (v != static_cast<std::uint64_t>(kForCalls)) {
      std::cerr << "parallel_for probe missed an index\n";
      std::exit(1);
    }
  }
  return us;
}

std::string tkey(std::size_t threads) {
  return "t" + std::to_string(threads);
}

}  // namespace

int main() {
  pdc::obs::BenchReport report("perf_scheduler");
  std::cout << "=== PERF-SCHEDULER: lock-free Chase-Lev vs mutexed deques "
               "===\n\n";

  TextTable spawn_table("1. Spawn/steal throughput (tasks/s, higher better)");
  spawn_table.set_header(
      {"threads", "mutexed deques", "lock-free", "speedup"});
  TextTable fork_table("2. Fork/join latency (us per 4095-task tree)");
  fork_table.set_header(
      {"threads", "mutexed deques", "lock-free", "speedup"});
  TextTable flood_table(
      "3. Hot-owner flood (tasks/s; thieves batch-steal half the backlog)");
  flood_table.set_header(
      {"threads", "mutexed deques", "lock-free", "speedup"});
  TextTable pool_table(
      "4. ThreadPool front (external post->run tasks/s; parallel_for us per "
      "4096-index call)");
  pool_table.set_header({"threads", "post->run", "parallel_for"});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    double mutex_spawn = 0.0;
    double mutex_fork = 0.0;
    double mutex_flood = 0.0;
    {
      baseline::MutexedPool pool(threads);
      spawn_tasks_per_second(pool);  // warmup
      mutex_spawn = spawn_tasks_per_second(pool);
      mutex_fork = forkjoin_us_per_tree(pool);
      if (threads > 1) mutex_flood = hot_owner_flood_per_second(pool);
    }
    double lockfree_spawn = 0.0;
    double lockfree_fork = 0.0;
    double lockfree_flood = 0.0;
    {
      pdc::parallel::WorkStealingPool pool(threads);
      spawn_tasks_per_second(pool);  // warmup
      lockfree_spawn = spawn_tasks_per_second(pool);
      lockfree_fork = forkjoin_us_per_tree(pool);
      if (threads > 1) lockfree_flood = hot_owner_flood_per_second(pool);
    }

    double pool_post = 0.0;
    double pool_for = 0.0;
    {
      pdc::parallel::ThreadPool pool(threads);
      post_tasks_per_second(pool);  // warmup
      pool_post = post_tasks_per_second(pool);
      pool_for = parallel_for_us_per_call(pool);
    }

    const double spawn_speedup = lockfree_spawn / mutex_spawn;
    const double fork_speedup = mutex_fork / lockfree_fork;
    const std::string key = tkey(threads);
    report.add_metric("spawn.mutex." + key + ".per_s", mutex_spawn);
    report.add_metric("spawn.lockfree." + key + ".per_s", lockfree_spawn);
    report.add_metric("spawn_speedup_vs_mutex." + key, spawn_speedup);
    report.add_metric("forkjoin.mutex." + key + ".us", mutex_fork);
    report.add_metric("forkjoin.lockfree." + key + ".us", lockfree_fork);
    report.add_metric("forkjoin_speedup_vs_mutex." + key, fork_speedup);
    report.add_metric("post.threadpool." + key + ".per_s", pool_post);
    report.add_metric("parallel_for.threadpool." + key + ".us", pool_for);

    spawn_table.add_row({std::to_string(threads),
                         TextTable::num(mutex_spawn / 1e6, 2) + "M/s",
                         TextTable::num(lockfree_spawn / 1e6, 2) + "M/s",
                         TextTable::num(spawn_speedup, 2) + "x"});
    fork_table.add_row({std::to_string(threads),
                        TextTable::num(mutex_fork, 0),
                        TextTable::num(lockfree_fork, 0),
                        TextTable::num(fork_speedup, 2) + "x"});
    pool_table.add_row({std::to_string(threads),
                        TextTable::num(pool_post / 1e6, 2) + "M/s",
                        TextTable::num(pool_for, 1)});
    if (threads > 1) {
      const double flood_speedup = lockfree_flood / mutex_flood;
      report.add_metric("flood.mutex." + key + ".per_s", mutex_flood);
      report.add_metric("flood.lockfree." + key + ".per_s", lockfree_flood);
      report.add_metric("flood_speedup_vs_mutex." + key, flood_speedup);
      flood_table.add_row({std::to_string(threads),
                           TextTable::num(mutex_flood / 1e6, 2) + "M/s",
                           TextTable::num(lockfree_flood / 1e6, 2) + "M/s",
                           TextTable::num(flood_speedup, 2) + "x"});
    }
  }

  spawn_table.render(std::cout);
  report.add_table(spawn_table);
  std::cout << "(every mutexed transition pays lock/unlock plus cache-line "
               "ping-pong on the lock word; the Chase-Lev owner path is one "
               "release store)\n\n";
  fork_table.render(std::cout);
  report.add_table(fork_table);
  std::cout << "(fork/join leans on the owner LIFO fast path, so the gap "
               "widens with nesting depth)\n\n";
  flood_table.render(std::cout);
  report.add_table(flood_table);
  std::cout << "(all tasks land in one worker's deque; peers batch-steal up "
               "to half the backlog per sweep — see docs/scheduler.md, 'Why "
               "steal-half is a loop, not one CAS')\n\n";
  pool_table.render(std::cout);
  report.add_table(pool_table);
  std::cout << "(ThreadPool is a post/shutdown front on the same "
               "work-stealing scheduler; posts from outside go through the "
               "injection queue)\n";

  report.write_if_requested();
  return 0;
}
