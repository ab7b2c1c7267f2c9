#include "parallel/work_stealing.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "concurrency/backoff.hpp"
#include "obs/obs.hpp"
#include "testkit/hooks.hpp"

namespace pdc::parallel {

namespace {
thread_local std::size_t t_worker_index = SIZE_MAX;
thread_local const WorkStealingPool* t_worker_pool = nullptr;

constexpr std::size_t kInjectCapacity = 1u << 12;
constexpr auto kParkTimeout = std::chrono::milliseconds(1);
// Max tasks claimed per steal sweep (further capped at half the victim's
// backlog by ChaseLevDeque::steal_batch).
constexpr std::size_t kStealBatch = 8;
}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t threads)
    : WorkStealingPool(threads, "steal") {}

WorkStealingPool::WorkStealingPool(std::size_t threads, const char* family)
    : family_(family), inject_(kInjectCapacity) {
  const std::size_t n =
      threads != 0 ? threads
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::MetricsRegistry::instance();
    const std::string prefix = std::string("pdc.") + family + ".";
    metrics_ = {&registry.counter(prefix + "spawned"),
                &registry.counter(prefix + "run"),
                &registry.counter(prefix + "stolen"),
                &registry.counter(prefix + "inject_full"),
                &registry.histogram(prefix + "deque_depth"),
                &registry.histogram(prefix + "batch"),
                &registry.gauge(prefix + "parked_workers")};
    for (std::size_t i = 0; i < n; ++i) {
      workers_[i]->depth_hist =
          &registry.histogram(prefix + "deque_depth.w" + std::to_string(i));
    }
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() { stop(); }

void WorkStealingPool::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  {
    // Notify under the lock: a worker between its predicate check and its
    // park must not miss the wake (and the CV must outlive the notify).
    std::scoped_lock lock(idle_mutex_);
    testkit::notify_all(idle_cv_);
  }
  for (auto& t : threads_) t.join();
}

bool WorkStealingPool::inside_worker() const { return t_worker_pool == this; }

void WorkStealingPool::spawn(Task fn) {
  if constexpr (obs::kObsEnabled) metrics_.spawned->inc();
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (t_worker_pool == this) {
    // Locality: child tasks stay with the forker, LIFO at the deque
    // bottom. No lock, no CAS — the owner-side Chase–Lev fast path.
    Worker& w = *workers_[t_worker_index];
    TaskNode* node = w.slab.acquire();
    node->fn = std::move(fn);
    w.deque.push(node);
    if constexpr (obs::kObsEnabled) {
      const auto depth =
          static_cast<std::uint64_t>(w.deque.size_estimate());
      metrics_.deque_depth->record(depth);
      w.depth_hist->record(depth);
    }
  } else {
    // External threads inject through the bounded MPMC queue; when it is
    // momentarily full, back off until the workers drain it.
    concurrency::Backoff backoff;
    while (!inject_.try_push(std::move(fn))) {
      if constexpr (obs::kObsEnabled) metrics_.inject_full->inc();
      testkit::poll_pause("ws.inject.full");
      backoff.step();
    }
  }
  wake_one();
}

void WorkStealingPool::wake_one() {
  if (parked_.load(std::memory_order_acquire) == 0) return;
  std::scoped_lock lock(idle_mutex_);
  testkit::notify_one(idle_cv_);
}

bool WorkStealingPool::try_take(std::size_t self, Task& out) {
  if (self != SIZE_MAX) {
    TaskNode* node = nullptr;
    if (workers_[self]->deque.pop(node)) {
      out = std::move(node->fn);
      TaskSlab::release(node, /*owner=*/true);
      return true;
    }
  }
  if (inject_.try_pop(out)) return true;
  // Entering the steal sweep: visible to the sampling profiler as
  // "stealing" until the next running/parked publish (no-op for external
  // threads, which have no bound slot).
  obs::publish_worker_state(obs::WorkerState::kStealing);
  // Steal sweep starting at a rotating offset to spread contention. A
  // kLost race with nothing claimed (someone else got the element first)
  // retries the same victim — losing means there IS work, the worst time
  // to give up. Workers steal a *batch* (up to kStealBatch, capped at half
  // the victim's backlog): the first task is returned, the surplus is
  // re-homed into the stealer's own slab and deque so a fine-grained flood
  // costs one sweep instead of one sweep per task. External threads (no
  // own deque to bank into) keep the single steal.
  const std::size_t n = workers_.size();
  const std::size_t start = next_victim_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t want = (self != SIZE_MAX) ? kStealBatch : 1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == self) continue;
    for (;;) {
      TaskNode* nodes[kStealBatch];
      StealResult last = StealResult::kEmpty;
      const std::size_t got =
          workers_[victim]->deque.steal_batch(nodes, want, &last);
      if (got > 0) {
        steals_.fetch_add(got, std::memory_order_relaxed);
        if constexpr (obs::kObsEnabled) {
          metrics_.stolen->inc(got);
          if (got > 1) metrics_.batch->record(got);
        }
        out = std::move(nodes[0]->fn);
        TaskSlab::release(nodes[0], /*owner=*/false);
        // Surplus: move each closure into a node from OUR slab and push it
        // onto OUR deque (owner-side, no CAS); the victim's nodes go back
        // through its remote-free stack. pending_ is untouched — the tasks
        // merely changed queues, none completed. got > 1 implies a worker
        // (external threads request want == 1), so workers_[self] is valid.
        if (got > 1) {
          Worker& mine = *workers_[self];
          for (std::size_t i = 1; i < got; ++i) {
            TaskNode* rehomed = mine.slab.acquire();
            rehomed->fn = std::move(nodes[i]->fn);
            TaskSlab::release(nodes[i], /*owner=*/false);
            mine.deque.push(rehomed);
          }
          wake_one();  // banked work: let a parked peer help
        }
        return true;
      }
      if (last == StealResult::kEmpty) break;
      concurrency::cpu_relax();  // kLost: contended, try again immediately
    }
  }
  return false;
}

bool WorkStealingPool::run_one(std::size_t hint) {
  Task task;
  if (!try_take(hint, task)) return false;
  if constexpr (obs::kObsEnabled) metrics_.run->inc();
  {
    // The per-task store pair: running before, idle after (restored by the
    // scope so nested helpers attribute correctly). External helper
    // threads have no slot and skip both stores.
    obs::ProfiledTask profiled(obs::Profiler::kTaskLabel);
    task();
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Quiescent: release wait_idle(), parked workers and a stopping pool.
    // Under the lock — the waiter may destroy the pool the instant the
    // predicate holds.
    std::scoped_lock lock(idle_mutex_);
    testkit::notify_all(idle_cv_);
  }
  return true;
}

void WorkStealingPool::help_while(const std::function<bool()>& done) {
  const std::size_t self = (t_worker_pool == this) ? t_worker_index : SIZE_MAX;
  concurrency::Backoff backoff;
  while (!done()) {
    if (run_one(self)) {
      backoff.reset();
      continue;
    }
    testkit::spin_yield("ws.help");
    backoff.step();  // spin/yield only: stay responsive to done()
  }
}

void WorkStealingPool::wait_idle() {
  concurrency::Backoff backoff;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (run_one(SIZE_MAX)) {
      backoff.reset();
      continue;
    }
    if (!backoff.park_ready()) {
      testkit::spin_yield("ws.wait_idle");
      backoff.step();
      continue;
    }
    std::unique_lock lock(idle_mutex_);
    testkit::wait_for(
        lock, idle_cv_, kParkTimeout,
        [&] { return pending_.load(std::memory_order_acquire) == 0; },
        "ws.wait_idle.park");
    backoff.reset();
  }
}

void WorkStealingPool::worker_loop(std::size_t self) {
  t_worker_index = self;
  t_worker_pool = this;
  // Profiler slot, published via the bound-slot helpers in run_one and
  // try_take; slots are keyed by name so repeated pool construction reuses
  // them (see obs/profile.hpp).
  obs::WorkerSlot* slot = nullptr;
  if constexpr (obs::kObsEnabled) {
    slot = obs::Profiler::instance().register_worker(
        std::string(family_) + ".w" + std::to_string(self));
    obs::Profiler::bind_current_thread(slot);
  }
  concurrency::Backoff backoff;
  for (;;) {
    if (run_one(self)) {
      backoff.reset();
      continue;
    }
    // stop() lets the workers drain: leave only once stopped AND no
    // spawned task is left anywhere. A running task keeps pending_ above
    // zero until it returns, so a spawn it makes cannot be stranded.
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (!backoff.park_ready()) {
      backoff.step();
      continue;
    }
    // Bottom of the ladder: park on the idle CV. Re-check the wake
    // predicate under the lock so a spawn between our last scan and the
    // park cannot be lost; the timeout is the liveness backstop for the
    // (unlocked) parked_ fast check in wake_one().
    std::unique_lock lock(idle_mutex_);
    if (stopping_.load(std::memory_order_acquire) ||
        pending_.load(std::memory_order_acquire) != 0) {
      backoff.reset();
      continue;
    }
    parked_.fetch_add(1, std::memory_order_release);
    if constexpr (obs::kObsEnabled) {
      metrics_.parked_workers->add(1);
      slot->publish(obs::WorkerState::kParked);
    }
    testkit::wait_for(
        lock, idle_cv_, kParkTimeout,
        [&] {
          return stopping_.load(std::memory_order_acquire) ||
                 pending_.load(std::memory_order_acquire) != 0;
        },
        "ws.park");
    if constexpr (obs::kObsEnabled) {
      slot->publish(obs::WorkerState::kIdle);
    }
    parked_.fetch_sub(1, std::memory_order_release);
    if constexpr (obs::kObsEnabled) metrics_.parked_workers->sub(1);
    backoff.reset();
  }
  if constexpr (obs::kObsEnabled) {
    obs::Profiler::bind_current_thread(nullptr);
    obs::Profiler::instance().release_worker(slot);
  }
  t_worker_pool = nullptr;
  t_worker_index = SIZE_MAX;
}

}  // namespace pdc::parallel
