// Per-rank mailbox: the delivery substrate under Communicator.
//
// Messages are matched MPI-style: a receive names (context, source, tag)
// where source/tag may be wildcards; candidates are considered in arrival
// order, which yields MPI's non-overtaking guarantee for any fixed
// (context, source, tag) triple.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "mp/message.hpp"
#include "support/status.hpp"

namespace pdc::mp {

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a delivered message (called by the sender's thread).
  void deliver(Message message);

  /// Blocks until a matching message arrives, then removes and returns it.
  Message match(std::uint32_t context, int source, int tag);

  /// Non-blocking match; nullopt when nothing matches right now.
  std::optional<Message> try_match(std::uint32_t context, int source, int tag);

  /// Blocks until a matching message is queued and returns a copy of its
  /// envelope and size without removing it (MPI_Probe analogue).
  RecvInfo probe(std::uint32_t context, int source, int tag);

 private:
  /// Index of the first queued message matching the triple, or npos.
  [[nodiscard]] std::size_t find_locked(std::uint32_t context, int source,
                                        int tag) const;
  /// Waits under `lock` until a message matches; returns its index.
  std::size_t await_locked(std::unique_lock<std::mutex>& lock,
                           std::uint32_t context, int source, int tag,
                           const char* label);
  /// Removes and returns the queued message at `idx`.
  Message remove_locked(std::size_t idx);

  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<Message> queue_;
};

}  // namespace pdc::mp
