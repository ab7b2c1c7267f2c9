// Instrumentation hooks the library's synchronization primitives call at
// their synchronization points.
//
// Outside a SimScheduler run every hook is a no-op costing one relaxed
// atomic load, so production and bench behaviour is unchanged. Inside a
// run (tests/testkit_test, tests/stress_test) the hooks hand control to
// the scheduler, which decides — deterministically, from a seed — which
// logical thread runs next:
//
//  - yield_point(label): a preemption point. The policy may switch to
//    another thread here.
//  - spin_yield(label): a busy-wait loop body. Always rotates to another
//    runnable thread so a spinning sim thread cannot starve the holder.
//  - wait/wait_for(lock, cv, [timeout,] pred): guarded condition wait.
//    Sim threads park in the scheduler (wait_for against the virtual
//    clock); everyone else falls through to the real condition variable.
//  - notify_one/notify_all(cv): signals the real condition variable and
//    marks parked sim threads eligible to re-check their predicates.
//
// The contract mirrors std::condition_variable with predicate loops, so
// instrumented code stays correct (and spurious-wakeup tolerant) under
// both real and simulated execution.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace pdc::testkit {

namespace detail {

/// True while any SimScheduler::run is in progress (process-global; one
/// scheduler may be active at a time).
extern std::atomic<bool> g_sim_active;

/// True when the calling thread is a logical thread of the active run.
[[nodiscard]] bool current_thread_is_sim() noexcept;

void yield_slow(const char* label);
void spin_slow(const char* label);
/// Parks the calling sim thread until a notify makes it runnable again.
void block_slow(const char* label);
/// Parks with a virtual-clock deadline; returns true once the deadline
/// has been reached (the thread may also resume earlier on a notify).
bool block_until_slow(const char* label, double deadline);
void notify_slow();
/// Virtual-clock reading for the active run (0.0 when none).
[[nodiscard]] double clock_now_slow();

inline bool sim_thread_active() noexcept {
  return g_sim_active.load(std::memory_order_relaxed) && current_thread_is_sim();
}

}  // namespace detail

/// Preemption point (see file comment). Labels must be string literals —
/// they are stored, not copied, into schedule traces.
inline void yield_point(const char* label = "") {
  if (detail::g_sim_active.load(std::memory_order_relaxed)) {
    detail::yield_slow(label);
  }
}

/// Busy-wait loop body: forces a switch to another runnable thread.
inline void spin_yield(const char* label = "") {
  if (detail::g_sim_active.load(std::memory_order_relaxed)) {
    detail::spin_slow(label);
  }
}

/// Cooperative pause inside a polling loop (retry/timeout protocols that
/// poll a mailbox rather than wait on a condition variable). Off-sim it
/// yields the OS thread. Under the sim it parks with a virtual-clock
/// deadline `seconds` ahead — the crucial difference from spin_yield:
/// when every thread is waiting on protocol timeouts, the parked
/// deadlines are what let the scheduler advance the virtual clock instead
/// of spinning to the step limit.
inline void poll_pause(const char* label, double seconds = 50e-6) {
  if (detail::sim_thread_active()) {
    detail::block_until_slow(label, detail::clock_now_slow() + seconds);
  } else {
    std::this_thread::yield();
  }
}

/// Simulated time in seconds (wall-clock independent); 0.0 off-sim.
inline double sim_now() {
  if (detail::g_sim_active.load(std::memory_order_relaxed)) {
    return detail::clock_now_slow();
  }
  return 0.0;
}

/// Clock-rate fault: from this instant on, the calling logical thread's
/// own clock (thread_clock_now) advances `rate` seconds per virtual
/// second. Time already elapsed keeps its reading, so a rate change never
/// makes the clock jump. One rank of an mp::World is one logical thread,
/// so a rank body that calls this skews that rank's timers
/// (dist::RetryClock reads this clock). Sim threads only; the rate ends
/// with the thread.
void set_clock_rate(double rate);

/// The calling logical thread's own clock in seconds: sim_now() until
/// set_clock_rate() skews it; 0.0 off-sim.
[[nodiscard]] double thread_clock_now();

/// Guarded condition wait. `pred` is always evaluated with `lock` held.
template <typename Pred>
void wait(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
          Pred pred, const char* label = "wait") {
  if (!detail::sim_thread_active()) {
    cv.wait(lock, std::move(pred));
    return;
  }
  while (!pred()) {
    lock.unlock();
    // Only one sim thread executes at a time, so no state change (and no
    // notification) can slip in between the predicate check and the park.
    detail::block_slow(label);
    lock.lock();
  }
}

/// Timed guarded wait; returns pred() at exit exactly like
/// std::condition_variable::wait_for. Sim threads time out against the
/// virtual clock, not the wall clock.
template <typename Rep, typename Period, typename Pred>
bool wait_for(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
              std::chrono::duration<Rep, Period> timeout, Pred pred,
              const char* label = "wait_for") {
  if (!detail::sim_thread_active()) {
    return cv.wait_for(lock, timeout, std::move(pred));
  }
  const double deadline =
      detail::clock_now_slow() +
      std::chrono::duration_cast<std::chrono::duration<double>>(timeout).count();
  for (;;) {
    if (pred()) return true;
    lock.unlock();
    const bool expired = detail::block_until_slow(label, deadline);
    lock.lock();
    if (expired) return pred();
  }
}

/// Signals `cv` and wakes parked sim threads to re-check their predicates.
/// Call while still holding the mutex that guards the changed state: the
/// unlock-then-notify variant races with waiter-side destruction of the
/// condition variable (see BoundedQueue for the full story).
inline void notify_one(std::condition_variable& cv) {
  cv.notify_one();
  if (detail::g_sim_active.load(std::memory_order_relaxed)) {
    detail::notify_slow();
  }
}

inline void notify_all(std::condition_variable& cv) {
  cv.notify_all();
  if (detail::g_sim_active.load(std::memory_order_relaxed)) {
    detail::notify_slow();
  }
}

}  // namespace pdc::testkit
