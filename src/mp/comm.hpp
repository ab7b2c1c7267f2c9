// Communicator: MPI-flavoured message passing between ranks.
//
// The programming model is distributed-memory regardless of the physical
// substrate (the LLNL MPI tutorial's framing): ranks here are threads, and
// all sharing happens through explicit messages. Sends are eager/buffered —
// the payload is copied into the destination mailbox immediately, so a send
// never blocks (MPI buffered-mode semantics; the classic head-to-head
// blocking-send deadlock therefore cannot occur, which is documented
// behaviour, not an accident).
//
// take()/try_take() are the matched receive — MPI-3's MPI_Improbe +
// MPI_Mrecv in one call: one matching pass removes the message and hands
// it over whole (envelope + payload), so a protocol that dispatches on the
// source or tag never probes first. Every receive path, typed or whole,
// collective or point-to-point, ends in one accept step that counts the
// message and joins the sender's trace.
//
// Collectives are implemented on top of point-to-point with the textbook
// algorithms: dissemination barrier, binomial-tree broadcast and reduce,
// ring allgather, pairwise alltoall, Hillis–Steele scan, and a
// bandwidth-optimal ring allreduce alongside the tree reduce+bcast variant
// (compared in bench/perf_collectives).
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace pdc::testkit {
class FaultInjector;
}  // namespace pdc::testkit

namespace pdc::mp {

namespace detail {

/// Shared delivery fabric: one mailbox per world rank plus a context
/// allocator for derived communicators.
///
/// When a testkit::FaultInjector is attached (World::set_fault_injector),
/// every USER-context message (even contexts) consults it on delivery and
/// may be dropped, duplicated, or held back past later traffic. Collective
/// and internal contexts (odd) are never impaired — collectives assume a
/// reliable transport, and the lessons inject faults only where protocols
/// are supposed to tolerate them.
struct Fabric {
  explicit Fabric(int size) {
    boxes.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) boxes.push_back(std::make_unique<Mailbox>());
  }

  /// Delivery entry point used by Communicator; applies fault injection.
  /// `src` is the sender's world rank so the injector can apply per-link
  /// faults (network partitions). Defined in comm.cpp (needs the
  /// FaultInjector definition).
  void deliver(std::size_t box, Message message, int src);

  std::vector<std::unique_ptr<Mailbox>> boxes;
  std::atomic<std::uint32_t> next_context{2};  // 0/1 belong to the world comm

  std::shared_ptr<testkit::FaultInjector> injector;  // may be null

 private:
  struct HeldMessage {  // reordered: released after `remaining` deliveries
    std::size_t box;
    Message message;
    int remaining;
  };
  std::mutex held_mutex_;
  std::deque<HeldMessage> held_;
};

}  // namespace detail

/// Handle for a nonblocking operation (MPI_Request analogue).
class Request {
 public:
  Request() = default;

  /// True when complete; a completed irecv has filled its buffer.
  bool test() {
    if (!state_) return true;
    if (state_->done) return true;
    if (auto info = state_->try_complete()) {
      state_->info = *info;
      state_->done = true;
    }
    return state_->done;
  }

  /// Blocks until complete; returns the receive info (zeroed for sends).
  RecvInfo wait() {
    if (!state_) return {};
    if (!state_->done) {
      state_->info = state_->block();
      state_->done = true;
    }
    return state_->info;
  }

 private:
  friend class Communicator;
  struct State {
    std::function<std::optional<RecvInfo>()> try_complete;
    std::function<RecvInfo()> block;
    bool done = false;
    RecvInfo info;
  };
  std::shared_ptr<State> state_;
};

class Communicator {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }

  /// Monotonic wall time in seconds (MPI_Wtime analogue).
  static double wtime();

  // ------------------------------------------------------------------ p2p

  /// Copies `count` elements to `dest`'s mailbox. Never blocks.
  template <typename T>
  void send(const T* data, std::size_t count, int dest, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(dest);
    PDC_CHECK_MSG(tag >= 0, "negative tags are reserved for wildcards");
    Payload payload(count * sizeof(T));
    // memcpy needs valid pointers even for zero bytes; an empty vector's
    // data() may be null.
    if (count != 0) std::memcpy(payload.data(), data, payload.size());
    deliver(dest, user_context_, tag, std::move(payload));
  }

  template <typename T>
  void send_value(const T& value, int dest, int tag = 0) {
    send(&value, 1, dest, tag);
  }

  template <typename T>
  void send_vector(const std::vector<T>& values, int dest, int tag = 0) {
    send(values.data(), values.size(), dest, tag);
  }

  /// Matched receive: blocks until a matching message arrives and returns
  /// it whole; decode with Message::as<T>() / as_vector<T>().
  Message take(int source = kAnySource, int tag = kAnyTag) {
    return receive(user_context_, source, tag);
  }

  /// Non-blocking take: nullopt when nothing matches right now.
  std::optional<Message> try_take(int source = kAnySource, int tag = kAnyTag);

  /// Blocks until a matching message arrives; fills up to `capacity`
  /// elements. The sent count must not exceed `capacity`.
  template <typename T>
  RecvInfo recv(T* data, std::size_t capacity, int source = kAnySource,
                int tag = kAnyTag) {
    const Message message = take(source, tag);
    message.copy_to(data, capacity);
    return message.info();
  }

  template <typename T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    recv(&value, 1, source, tag);
    return value;
  }

  /// Receives a whole message as a vector, sized from the actual payload.
  template <typename T>
  std::vector<T> recv_vector(int source = kAnySource, int tag = kAnyTag) {
    return take(source, tag).as_vector<T>();
  }

  /// Blocks until a matching message is available without consuming it.
  RecvInfo probe(int source = kAnySource, int tag = kAnyTag) {
    return mailbox().probe(user_context_, source, tag);
  }

  /// Nonblocking send: with eager delivery this completes immediately; the
  /// Request is provided for source-compatibility with the MPI idiom.
  template <typename T>
  Request isend(const T* data, std::size_t count, int dest, int tag = 0) {
    send(data, count, dest, tag);
    return Request{};
  }

  /// Nonblocking receive into caller-owned storage, completed by
  /// test()/wait(). The buffer must outlive the request.
  template <typename T>
  Request irecv(T* data, std::size_t capacity, int source = kAnySource,
                int tag = kAnyTag) {
    Request request;
    request.state_ = std::make_shared<Request::State>();
    request.state_->try_complete = [this, data, capacity, source, tag]()
        -> std::optional<RecvInfo> {
      auto message = try_take(source, tag);
      if (!message) return std::nullopt;
      message->copy_to(data, capacity);
      return message->info();
    };
    request.state_->block = [this, data, capacity, source, tag] {
      return recv(data, capacity, source, tag);
    };
    return request;
  }

  /// Combined send+receive (MPI_Sendrecv): safe in rings because the send
  /// is eager.
  template <typename T>
  RecvInfo sendrecv(const T* send_data, std::size_t send_count, int dest,
                    int send_tag, T* recv_data, std::size_t recv_capacity,
                    int source, int recv_tag) {
    send(send_data, send_count, dest, send_tag);
    return recv(recv_data, recv_capacity, source, recv_tag);
  }

  // ---------------------------------------------------------- collectives
  // All ranks of the communicator must call each collective in the same
  // order (standard MPI contract).

  /// Dissemination barrier: ceil(log2 p) rounds, no root bottleneck.
  void barrier();

  /// Binomial-tree broadcast from `root`.
  template <typename T>
  void broadcast(T* data, std::size_t count, int root) {
    const int p = size();
    if (p == 1) return;
    const int r = relative(root);
    int mask = 1;
    while (mask < p) {
      if (r & mask) {
        coll_recv(data, count, absolute((r - mask), root), kTagBcast);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (r + mask < p) {
        coll_send(data, count, absolute(r + mask, root), kTagBcast);
      }
      mask >>= 1;
    }
  }

  /// Binomial-tree reduction to `root`. `op` must be associative and
  /// commutative (element-wise over `count` elements).
  template <typename T, typename Op>
  void reduce(const T* input, T* output, std::size_t count, Op op, int root) {
    const int p = size();
    std::vector<T> acc(input, input + count);
    std::vector<T> incoming(count);
    const int r = relative(root);
    int mask = 1;
    while (mask < p) {
      if (r & mask) {
        coll_send(acc.data(), count, absolute(r - mask, root), kTagReduce);
        break;
      }
      if (r + mask < p) {
        coll_recv(incoming.data(), count, absolute(r + mask, root), kTagReduce);
        for (std::size_t i = 0; i < count; ++i) acc[i] = op(acc[i], incoming[i]);
      }
      mask <<= 1;
    }
    if (rank_ == root) std::copy(acc.begin(), acc.end(), output);
  }

  /// Tree allreduce: reduce to rank 0 then broadcast. Latency-optimal for
  /// small messages.
  template <typename T, typename Op>
  void allreduce(const T* input, T* output, std::size_t count, Op op) {
    reduce(input, output, count, op, 0);
    broadcast(output, count, 0);
  }

  /// Ring allreduce (reduce-scatter + allgather): bandwidth-optimal for
  /// large messages — each rank moves 2(p-1)/p of the data instead of
  /// log2(p) full copies.
  template <typename T, typename Op>
  void allreduce_ring(const T* input, T* output, std::size_t count, Op op) {
    const int p = size();
    std::copy(input, input + count, output);
    if (p == 1) return;
    // Block b covers [offsets[b], offsets[b+1]).
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
    for (int b = 0; b < p; ++b) {
      offsets[static_cast<std::size_t>(b) + 1] =
          offsets[static_cast<std::size_t>(b)] +
          count / static_cast<std::size_t>(p) +
          (static_cast<std::size_t>(b) < count % static_cast<std::size_t>(p) ? 1 : 0);
    }
    auto block_len = [&](int b) {
      return offsets[static_cast<std::size_t>(b) + 1] - offsets[static_cast<std::size_t>(b)];
    };
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    std::vector<T> incoming(count);
    // Phase 1: reduce-scatter. After p-1 steps rank r owns block (r+1)%p.
    for (int step = 0; step < p - 1; ++step) {
      const int send_block = (rank_ - step + 2 * p) % p;
      const int recv_block = (rank_ - step - 1 + 2 * p) % p;
      coll_send(output + offsets[static_cast<std::size_t>(send_block)],
                block_len(send_block), right, kTagRingReduce);
      coll_recv(incoming.data(), block_len(recv_block), left, kTagRingReduce);
      T* dst = output + offsets[static_cast<std::size_t>(recv_block)];
      for (std::size_t i = 0; i < block_len(recv_block); ++i) {
        dst[i] = op(dst[i], incoming[i]);
      }
    }
    // Phase 2: allgather of the finished blocks.
    for (int step = 0; step < p - 1; ++step) {
      const int send_block = (rank_ + 1 - step + 2 * p) % p;
      const int recv_block = (rank_ - step + 2 * p) % p;
      coll_send(output + offsets[static_cast<std::size_t>(send_block)],
                block_len(send_block), right, kTagRingGather);
      coll_recv(output + offsets[static_cast<std::size_t>(recv_block)],
                block_len(recv_block), left, kTagRingGather);
    }
  }

  /// Root sends `count_per` elements to each rank (linear).
  template <typename T>
  void scatter(const T* send_data, T* recv_data, std::size_t count_per,
               int root) {
    if (rank_ == root) {
      for (int dest = 0; dest < size(); ++dest) {
        const T* block = send_data + static_cast<std::size_t>(dest) * count_per;
        if (dest == root) {
          std::copy(block, block + count_per, recv_data);
        } else {
          coll_send(block, count_per, dest, kTagScatter);
        }
      }
    } else {
      coll_recv(recv_data, count_per, root, kTagScatter);
    }
  }

  /// Each rank sends `count_per` elements to root (linear).
  template <typename T>
  void gather(const T* send_data, T* recv_data, std::size_t count_per,
              int root) {
    if (rank_ == root) {
      for (int src = 0; src < size(); ++src) {
        T* block = recv_data + static_cast<std::size_t>(src) * count_per;
        if (src == root) {
          std::copy(send_data, send_data + count_per, block);
        } else {
          coll_recv(block, count_per, src, kTagGather);
        }
      }
    } else {
      coll_send(send_data, count_per, root, kTagGather);
    }
  }

  /// Variable-count gather (MPI_Gatherv): rank r contributes `send_count`
  /// elements; at root, `recv_counts[r]` gives each contribution's length
  /// and blocks are placed contiguously in rank order.
  template <typename T>
  void gatherv(const T* send_data, std::size_t send_count, T* recv_data,
               const std::vector<std::size_t>& recv_counts, int root) {
    if (rank_ == root) {
      PDC_CHECK(recv_counts.size() == static_cast<std::size_t>(size()));
      PDC_CHECK(recv_counts[static_cast<std::size_t>(root)] == send_count);
      std::size_t offset = 0;
      for (int src = 0; src < size(); ++src) {
        const std::size_t count = recv_counts[static_cast<std::size_t>(src)];
        if (src == root) {
          std::copy(send_data, send_data + count, recv_data + offset);
        } else {
          coll_recv(recv_data + offset, count, src, kTagGatherv);
        }
        offset += count;
      }
    } else {
      coll_send(send_data, send_count, root, kTagGatherv);
    }
  }

  /// Variable-count scatter (MPI_Scatterv): root sends `send_counts[r]`
  /// elements to rank r from contiguous rank-ordered blocks; each rank's
  /// `recv_count` must equal its slice length.
  template <typename T>
  void scatterv(const T* send_data, const std::vector<std::size_t>& send_counts,
                T* recv_data, std::size_t recv_count, int root) {
    if (rank_ == root) {
      PDC_CHECK(send_counts.size() == static_cast<std::size_t>(size()));
      std::size_t offset = 0;
      for (int dest = 0; dest < size(); ++dest) {
        const std::size_t count = send_counts[static_cast<std::size_t>(dest)];
        if (dest == root) {
          PDC_CHECK(count == recv_count);
          std::copy(send_data + offset, send_data + offset + count, recv_data);
        } else {
          coll_send(send_data + offset, count, dest, kTagScatterv);
        }
        offset += count;
      }
    } else {
      coll_recv(recv_data, recv_count, root, kTagScatterv);
    }
  }

  /// Ring allgather: p-1 steps, each forwarding the block received last.
  template <typename T>
  void allgather(const T* send_data, T* recv_data, std::size_t count_per) {
    const int p = size();
    std::copy(send_data, send_data + count_per,
              recv_data + static_cast<std::size_t>(rank_) * count_per);
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int step = 0; step < p - 1; ++step) {
      const int send_block = (rank_ - step + 2 * p) % p;
      const int recv_block = (rank_ - step - 1 + 2 * p) % p;
      coll_send(recv_data + static_cast<std::size_t>(send_block) * count_per,
                count_per, right, kTagAllgather);
      coll_recv(recv_data + static_cast<std::size_t>(recv_block) * count_per,
                count_per, left, kTagAllgather);
    }
  }

  /// Pairwise-exchange alltoall: rank r sends block d to rank d.
  template <typename T>
  void alltoall(const T* send_data, T* recv_data, std::size_t count_per) {
    const int p = size();
    std::copy(send_data + static_cast<std::size_t>(rank_) * count_per,
              send_data + static_cast<std::size_t>(rank_ + 1) * count_per,
              recv_data + static_cast<std::size_t>(rank_) * count_per);
    for (int offset = 1; offset < p; ++offset) {
      const int dest = (rank_ + offset) % p;
      const int src = (rank_ - offset + p) % p;
      coll_send(send_data + static_cast<std::size_t>(dest) * count_per,
                count_per, dest, kTagAlltoall);
      coll_recv(recv_data + static_cast<std::size_t>(src) * count_per,
                count_per, src, kTagAlltoall);
    }
  }

  /// Inclusive scan (Hillis–Steele): output = op-fold of ranks 0..rank.
  /// `op` must be associative; applied as op(lower_ranks, mine).
  template <typename T, typename Op>
  void scan(const T* input, T* output, std::size_t count, Op op) {
    const int p = size();
    std::copy(input, input + count, output);
    std::vector<T> incoming(count);
    for (int d = 1; d < p; d <<= 1) {
      // Send the running prefix up; fold the one from below on top.
      if (rank_ + d < p) coll_send(output, count, rank_ + d, kTagScan + d);
      if (rank_ - d >= 0) {
        coll_recv(incoming.data(), count, rank_ - d, kTagScan + d);
        for (std::size_t i = 0; i < count; ++i) {
          output[i] = op(incoming[i], output[i]);
        }
      }
    }
  }

  /// Collective split (MPI_Comm_split): ranks with equal `color` form a new
  /// communicator, ordered by (key, old rank). Every rank must call it.
  Communicator split(int color, int key);

 private:
  friend class World;

  Communicator(std::shared_ptr<detail::Fabric> fabric, std::vector<int> members,
               int rank, std::uint32_t user_context)
      : fabric_(std::move(fabric)), members_(std::move(members)), rank_(rank),
        user_context_(user_context) {
    if constexpr (obs::kObsEnabled) {
      // Per-rank labeled series next to the flat pdc.mp.* aggregates, so a
      // federated scrape can attribute traffic per world rank even when
      // every rank shares the process-wide registry. Cached here — the
      // PDC_OBS_* macros' function-local statics cannot hold a per-rank
      // label — and interned for the process lifetime, so the pointers
      // stay valid across communicator copies and splits.
      const std::string r = std::to_string(world_rank());
      auto& registry = obs::MetricsRegistry::instance();
      rank_sent_ = &registry.counter("pdc.mp.rank_sent", {{"rank", r}});
      rank_received_ = &registry.counter("pdc.mp.rank_received", {{"rank", r}});
    }
  }

  // Internal collective tags; the collective context keeps them disjoint
  // from user traffic.
  static constexpr int kTagBcast = 1;
  static constexpr int kTagReduce = 2;
  static constexpr int kTagScatter = 3;
  static constexpr int kTagGather = 4;
  static constexpr int kTagAllgather = 5;
  static constexpr int kTagAlltoall = 6;
  static constexpr int kTagRingReduce = 7;
  static constexpr int kTagRingGather = 8;
  static constexpr int kTagGatherv = 9;
  static constexpr int kTagScatterv = 10;
  static constexpr int kTagBarrier = 64;   // + round index
  static constexpr int kTagScan = 128;     // + distance
  static constexpr int kTagSplit = 256;

  void check_peer(int peer) const {
    PDC_CHECK_MSG(peer >= 0 && peer < size(), "peer rank out of range");
  }

  Mailbox& mailbox() { return *fabric_->boxes[static_cast<std::size_t>(members_[static_cast<std::size_t>(rank_)])]; }

  void deliver(int dest, std::uint32_t context, int tag, Payload payload) {
    PDC_OBS_COUNT("pdc.mp.sent");
    PDC_OBS_COUNT("pdc.mp.sent_bytes", payload.size());
    if (rank_sent_ != nullptr) rank_sent_->inc();
    Message message{Envelope{context, rank_, tag, {}}, std::move(payload)};
    // Captured on the sending thread so the flow arrow starts inside the
    // sender's current span, not wherever the fabric delivers from.
    message.envelope.trace =
        obs::wire_capture("mp.send", static_cast<std::uint64_t>(dest),
                          message.payload.size());
    fabric_->deliver(
        static_cast<std::size_t>(members_[static_cast<std::size_t>(dest)]),
        std::move(message), world_rank());
  }

  template <typename T>
  void coll_send(const T* data, std::size_t count, int dest, int tag) {
    Payload payload(count * sizeof(T));
    if (count != 0) std::memcpy(payload.data(), data, payload.size());
    deliver(dest, user_context_ + 1, tag, std::move(payload));
  }

  template <typename T>
  void coll_recv(T* data, std::size_t capacity, int source, int tag) {
    receive(user_context_ + 1, source, tag).copy_to(data, capacity);
  }

  /// Blocking match on `context`, then accept().
  Message receive(std::uint32_t context, int source, int tag);

  /// The accept step every receive ends in: counts the message in
  /// pdc.mp.received and pdc.mp.rank_received, and joins the sender's trace.
  void accept(const Message& message);

  /// Rank relative to `root` (tree algorithms are written root-at-zero).
  [[nodiscard]] int relative(int root) const {
    return (rank_ - root + size()) % size();
  }
  [[nodiscard]] int absolute(int rel, int root) const {
    return (rel + root) % size();
  }

  [[nodiscard]] int world_rank() const {
    return members_[static_cast<std::size_t>(rank_)];
  }

  std::shared_ptr<detail::Fabric> fabric_;
  std::vector<int> members_;  // world rank of each communicator rank
  int rank_;                  // my rank within this communicator
  std::uint32_t user_context_;
  obs::Counter* rank_sent_ = nullptr;      // pdc.mp.rank_sent{rank=...}
  obs::Counter* rank_received_ = nullptr;  // pdc.mp.rank_received{rank=...}
};

}  // namespace pdc::mp
