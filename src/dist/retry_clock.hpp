// RetryClock: elapsed-time source for retry/timeout cadences in the
// distributed protocols.
//
// Under a testkit::SimScheduler run the wall clock is meaningless —
// threads execute one at a time and only parked deadlines advance the
// virtual clock — so elapsed time comes from the calling logical thread's
// clock, testkit::thread_clock_now(): the virtual clock, unless a test
// skewed that thread's rate with testkit::set_clock_rate (the clock-rate
// fault). Off-sim it is a plain Stopwatch. Shared by 2PC retransmission,
// Raft election/heartbeat timers and leader lease, and the ReplicatedKV
// client retry loop.
#pragma once

#include "support/stopwatch.hpp"
#include "testkit/hooks.hpp"

namespace pdc::dist {

class RetryClock {
 public:
  RetryClock() { reset(); }

  void reset() {
    sim_ = testkit::detail::sim_thread_active();
    if (sim_) {
      start_ = testkit::thread_clock_now();
    } else {
      watch_.reset();
    }
  }

  [[nodiscard]] double elapsed_millis() const {
    if (sim_) return (testkit::thread_clock_now() - start_) * 1e3;
    return watch_.elapsed_millis();
  }

 private:
  bool sim_ = false;
  double start_ = 0.0;
  support::Stopwatch watch_;
};

}  // namespace pdc::dist
