#include "parallel/thread_pool.hpp"

#include "testkit/hooks.hpp"

namespace pdc::parallel {

support::Status ThreadPool::post(Task fn) {
  // Dekker-style handshake with shutdown(): raise posting_ BEFORE reading
  // closed_, while shutdown() sets closed_ BEFORE waiting for posting_ to
  // reach zero (all four seq_cst). A post that sees closed == false is
  // therefore one shutdown() waits for, and its spawn is counted by the
  // pool before stop() begins, so stop()'s drain runs it: an accepted post
  // can never be stranded by a racing shutdown.
  posting_.fetch_add(1, std::memory_order_seq_cst);
  if (closed_.load(std::memory_order_seq_cst)) {
    posting_.fetch_sub(1, std::memory_order_release);
    return {support::StatusCode::kClosed, "pool shut down"};
  }
  pool_.spawn(std::move(fn));
  posting_.fetch_sub(1, std::memory_order_release);
  return support::Status::ok();
}

void ThreadPool::shutdown() {
  closed_.store(true, std::memory_order_seq_cst);
  // An accepted external post may still be backing off on a full
  // injection queue; the workers are running, so it gets in.
  while (posting_.load(std::memory_order_seq_cst) != 0) {
    testkit::poll_pause("pool.shutdown");
  }
  pool_.stop();
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pdc::parallel
