// Fixed-size thread pool: the "think in terms of tasks, not threads"
// foundation (Core Guidelines CP.4, CP.41) used by parallel_for and the
// task graph. Destruction drains submitted work, then joins all workers.
//
// ThreadPool is a post/shutdown front on WorkStealingPool, the library's
// one scheduler (see docs/scheduler.md): the same per-worker Chase–Lev
// deques, MPMC injection queue, batch steals and spin → yield → park
// ladder run its tasks. A post from one of its workers lands on that
// worker's own deque (LIFO, no atomic RMW); a post from outside enters
// the bounded injection queue. What the front adds is the contract
// fire-and-forget callers need at teardown: after shutdown a post is
// refused with kClosed, and a post that was accepted always runs. Task
// closures travel in parallel::Task (64-byte inline storage), so `post`
// with a small closure allocates nothing at all.
//
// Its metrics are the `pdc.pool.*` family and its workers publish to the
// profiler as `pool.w<i>`, so its work is counted apart from a plain
// WorkStealingPool's (`pdc.steal.*`, `steal.w<i>`).
#pragma once

#include <atomic>
#include <future>
#include <type_traits>
#include <utility>

#include "parallel/task.hpp"
#include "parallel/work_stealing.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace pdc::parallel {

class ThreadPool {
 public:
  /// `threads == 0` uses the hardware concurrency (at least 1).
  /// Worker-local queues grow without bound, so tasks that schedule
  /// further tasks — the task-graph executor does — can never deadlock
  /// the pool by blocking on their own queue. The external injection
  /// queue is bounded; a non-worker caller that finds it full backs off
  /// until the workers drain it (backpressure, not failure).
  explicit ThreadPool(std::size_t threads = 0) : pool_(threads, "pool") {}

  /// Drains queued tasks, then joins every worker (no detach; CP.26).
  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn()` and returns a future for its result. Exceptions
  /// thrown by `fn` surface through the future.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    std::promise<R> promise;
    std::future<R> result = promise.get_future();
    const auto status =
        post(Task([fn = std::forward<Fn>(fn),
                   promise = std::move(promise)]() mutable {
          try {
            if constexpr (std::is_void_v<R>) {
              fn();
              promise.set_value();
            } else {
              promise.set_value(fn());
            }
          } catch (...) {
            promise.set_exception(std::current_exception());
          }
        }));
    PDC_CHECK_MSG(status.is_ok(), "submit after ThreadPool shutdown");
    return result;
  }

  /// Fire-and-forget variant for void work the caller synchronizes itself
  /// (e.g. via a latch); with a small closure this allocates nothing.
  /// Returns kClosed (instead of throwing, unlike submit) after shutdown —
  /// fire-and-forget callers during teardown have nowhere to catch.
  support::Status post(Task fn);

  /// Drains queued tasks and joins every worker. Idempotent; called by the
  /// destructor. After shutdown, `submit` throws and `post` returns
  /// kClosed.
  void shutdown();

  [[nodiscard]] std::size_t size() const { return pool_.size(); }

  /// True when called from one of this pool's worker threads.
  [[nodiscard]] bool inside_worker() const { return pool_.inside_worker(); }

 private:
  WorkStealingPool pool_;
  std::atomic<bool> closed_{false};
  /// Posts between their closed_ check and the end of their spawn.
  std::atomic<std::size_t> posting_{0};
};

/// The process-wide default pool, sized to hardware concurrency. Intended
/// for examples and tests; performance-sensitive code creates its own pool
/// with an explicit size.
ThreadPool& default_pool();

}  // namespace pdc::parallel
