// Work-stealing task pool for fork/join (divide-and-conquer) parallelism,
// built on lock-free scheduler primitives (see docs/scheduler.md). It is
// the library's one task scheduler: ThreadPool is a post/shutdown front
// on it.
//
//  - each worker owns a ChaseLevDeque: the owner pushes and pops at the
//    bottom (LIFO, preserving locality of the most recently forked
//    subproblem) with no atomic RMW on the fast path; idle workers steal
//    from the top (FIFO, taking the largest pending subtree) with a single
//    CAS per claim — no mutex anywhere on the task path;
//  - spawns from non-worker threads go to a bounded lock-free MPMC
//    *injection queue* instead of locking a victim's deque;
//  - task closures travel in parallel::Task (64-byte inline storage) held
//    by per-worker TaskSlab nodes — the spawn/steal/run cycle is
//    allocation-free in steady state;
//  - idle workers descend a spin → yield → park ladder; parked workers
//    are visible as the `pdc.steal.parked_workers` gauge and the park
//    itself is a testkit-instrumented timed wait, so the SimScheduler can
//    drive it deterministically.
//
// `help_while` lets a blocked parent execute other tasks instead of
// idling — the work-first principle of Cilk-style schedulers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "concurrency/mpmc_queue.hpp"
#include "obs/obs.hpp"
#include "parallel/chase_lev.hpp"
#include "parallel/task.hpp"
#include "parallel/task_slab.hpp"

namespace pdc::parallel {

class ThreadPool;

class WorkStealingPool {
 public:
  explicit WorkStealingPool(std::size_t threads = 0);

  /// Drains every spawned task, then joins the workers (stop()).
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Schedules a task. From a worker thread the task goes to that worker's
  /// own deque (lock-free push); from outside it goes to the injection
  /// queue (briefly backing off when the queue is momentarily full).
  void spawn(Task fn);

  /// Runs tasks until `done()` returns true. Callable from worker threads
  /// (joins in fork/join) and from the external submitting thread. Spins/
  /// yields but never parks — the caller must stay responsive to `done`.
  void help_while(const std::function<bool()>& done);

  /// Blocks until every spawned task has finished (quiescence). The
  /// calling thread helps execute tasks, which keeps fork/join deadlock-
  /// free even on a pool of size 1.
  void wait_idle();

  /// Lets the workers run every spawned task (including tasks those tasks
  /// spawn), then stops and joins them. Idempotent; the destructor calls
  /// it. A spawn from outside the pool must not race it.
  void stop();

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Total successful steals since construction (scheduler diagnostics).
  [[nodiscard]] std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Workers currently parked in the idle wait (diagnostics; also exported
  /// as the pdc.steal.parked_workers gauge).
  [[nodiscard]] std::size_t parked_workers() const {
    return parked_.load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadPool;

  /// `family` names the pool's metric family (`pdc.<family>.*`) and its
  /// profiler slots (`<family>.w<i>`): "steal" here, "pool" for the
  /// ThreadPool front. It must be a string literal.
  WorkStealingPool(std::size_t threads, const char* family);

  /// True when called from one of this pool's worker threads.
  [[nodiscard]] bool inside_worker() const;

  /// Metric handles, resolved once at construction so no task-path
  /// update looks a name up (all null under PDCKIT_OBS_NOOP).
  struct Metrics {
    obs::Counter* spawned = nullptr;
    obs::Counter* run = nullptr;
    obs::Counter* stolen = nullptr;
    obs::Counter* inject_full = nullptr;
    obs::Histogram* deque_depth = nullptr;
    obs::Histogram* batch = nullptr;
    obs::Gauge* parked_workers = nullptr;
  };

  /// One worker's scheduling state, cache-line separated from its peers.
  struct alignas(64) Worker {
    ChaseLevDeque<TaskNode*> deque;
    TaskSlab slab;
    /// Per-worker deque-depth histogram, resolved once at pool
    /// construction so the owner-push path stays lookup-free (null under
    /// PDCKIT_OBS_NOOP). Depth is the racy size_estimate() at push —
    /// monitoring semantics, good enough to see steal imbalance.
    obs::Histogram* depth_hist = nullptr;
  };

  void worker_loop(std::size_t self);

  /// Takes one task: own deque bottom, then the injection queue, then
  /// steal from the top of a rotating sweep of victims. `self` is
  /// SIZE_MAX for external threads (no own deque, remote node release).
  bool try_take(std::size_t self, Task& out);

  /// Runs one task if any is available anywhere. Returns false when all
  /// sources were observed empty.
  bool run_one(std::size_t hint);

  /// Wakes one parked worker if any (cheap relaxed check when none).
  void wake_one();

  const char* family_;
  Metrics metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
  concurrency::MpmcQueue<Task> inject_;
  std::vector<std::thread> threads_;
  bool stopped_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_victim_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> parked_{0};

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

}  // namespace pdc::parallel
