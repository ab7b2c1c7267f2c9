// Simulated network fabric: hosts, lossy datagrams, reliable streams.
//
// The RIT breadth course (paper §IV-C) teaches "network communication with
// connections and datagrams" — both live here over one fabric:
//
//  - DatagramSocket: unreliable, unordered delivery with configurable
//    latency, jitter, loss and duplication (the substrate the ARQ lessons
//    in arq.hpp are built on);
//  - Listener/StreamSocket: connection-oriented, reliable, in-order byte
//    streams (the kernel-TCP abstraction the client-server framework in
//    server.hpp uses). By default stream traffic ignores the loss/jitter
//    knobs the way applications never see TCP's retransmissions —
//    reliability as a *service*; how it is achieved is taught separately
//    by arq.hpp. NetConfig::impair_streams opts streams into the fault
//    model as *delay*: a "dropped" chunk costs a retransmit penalty but
//    still arrives, and per-direction delivery times are clamped monotone
//    so the byte stream stays in order.
//
// Delivery. A stream chunk with nothing to wait for — latency_ms == 0 and
// impair_streams off, both fixed at construction — is delivered on the
// sending thread: its bytes (or the FIN) are in the peer's buffer before
// send() (or close()) returns. A single dispatcher thread carries only
// delayed traffic (stream chunks with latency or impairment, every
// datagram, the connect SYN) and delivers it at its scheduled time, so
// latency effects are real wall-clock effects observable in benches.
// Both paths end in one step, StreamSocket::Half::deliver. Lock order:
// sender's locks → receiving Half → ReadySet; the last two are leaves (no
// callback runs under them). An event-driven request therefore takes 2
// thread hand-offs at 0 ms (client → engine worker → client) and 4 with
// delay (the dispatcher sits between each sender and receiver).
//
// Reading. A stream half hands over everything it holds at once:
// try_recv_into appends every buffered byte to the caller's buffer without
// waiting, recv_into waits for at least one byte or the FIN first. There
// is no partial read; a reader keeps its own receive buffer and parses
// frames there (framing.hpp's RxBuffer and MessageCodec::scan_message).
//
// Readiness (event-driven servers): a StreamSocket or Listener can be
// *watched* by a ReadySet. Arriving bytes, a peer close, or a pending
// accept enqueue the socket's tag exactly once; the owner takes tags in
// FIFO batches with ReadySet::poll, consumes the socket non-blockingly
// (try_recv_into / try_accept), and re-arms. rearm() re-enqueues the tag
// if data raced in while the owner was consuming, so no wakeup is lost.
// Whoever took a tag owns its socket until it re-arms or unwatches it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "net/address.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace pdc::testkit {
class FaultInjector;
}  // namespace pdc::testkit

namespace pdc::net {

struct NetConfig {
  double latency_ms = 0.05;     // one-way propagation
  double jitter_ms = 0.0;       // uniform [0, jitter) added per datagram
  double loss = 0.0;            // datagram drop probability
  double duplicate = 0.0;       // datagram duplication probability
  std::uint64_t seed = 0x5eed;  // impairment randomness
  // Apply the impairment model to stream chunks too — as delay only
  // (drop/reorder decisions become a retransmit penalty of the injector's
  // reorder_ms; without an injector, jitter_ms applies). Delivery stays
  // reliable and in-order: per-direction due times are clamped monotone.
  bool impair_streams = false;
};

class Network;
class ReadySet;

/// Registration of one watched endpoint (guarded by the endpoint's mutex).
/// `queued` keeps each tag enqueued at most once between rearm()s.
struct WatchState {
  ReadySet* set = nullptr;
  std::uint64_t tag = 0;
  bool queued = false;
};

/// Level-triggered-with-rearm readiness queue for an event loop. Watched
/// endpoints push their tag when they become ready; poll() hands the
/// accumulated batch to the loop in one call (one wakeup can carry
/// thousands of ready connections), oldest first. Tags are just integers
/// the consumer chooses: a connection id, or the address of its record.
class ReadySet {
 public:
  static constexpr std::size_t kAll = static_cast<std::size_t>(-1);

  ReadySet() = default;
  ReadySet(const ReadySet&) = delete;
  ReadySet& operator=(const ReadySet&) = delete;

  /// Blocks up to `timeout` for at least one ready tag (or a wake()),
  /// appends the oldest `max` queued tags (all by default) to `out` in
  /// arrival order, and returns how many were added. Tags beyond `max`
  /// stay queued for the next poll.
  std::size_t poll(std::vector<std::uint64_t>& out,
                   std::chrono::milliseconds timeout, std::size_t max = kAll);

  /// Tags queued and not yet polled.
  [[nodiscard]] std::size_t size();

  /// Unblocks a poll() in progress (shutdown path).
  void wake();

  /// Enqueues a tag directly (callable by watched endpoints and by event
  /// loops that need to self-post work).
  void push(std::uint64_t tag);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::uint64_t> ready_;
  bool woken_ = false;
};

/// Unreliable, unordered message socket (UDP analogue).
class DatagramSocket {
 public:
  ~DatagramSocket();
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  [[nodiscard]] Address local() const { return local_; }

  /// Fire-and-forget send; the fabric may drop, delay or duplicate it.
  void send_to(const Address& to, Bytes payload);

  /// Timed receive; kTimeout when nothing arrives in time.
  support::Result<Datagram> recv_for(std::chrono::milliseconds timeout);

 private:
  friend class Network;
  DatagramSocket(Network& net, Address local) : net_(net), local_(local) {
    if constexpr (obs::kObsEnabled) {
      // Host-labeled twin of the flat pdc.net.received aggregate. Cached
      // here — the PDC_OBS_* macros' function-local statics cannot hold a
      // per-host label.
      host_received_ = &obs::MetricsRegistry::instance().counter(
          "pdc.net.host_received", {{"host", std::to_string(local_.host)}});
    }
  }

  void deliver(Datagram dgram);

  Network& net_;
  Address local_;
  obs::Counter* host_received_ = nullptr;
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<Datagram> queue_;
  bool closed_ = false;
};

/// Reliable, in-order, bidirectional byte stream (TCP analogue).
class StreamSocket {
 public:
  StreamSocket() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] Address peer() const;

  /// True when both handles refer to the same underlying connection.
  [[nodiscard]] bool is_same(const StreamSocket& other) const {
    return state_ != nullptr && state_ == other.state_;
  }

  /// Sends the whole buffer (never partial). kClosed after either side
  /// closed the connection.
  support::Status send(const Bytes& data);
  support::Status send_text(const std::string& text) { return send(to_bytes(text)); }

  /// What a drain observed.
  struct Drained {
    std::size_t bytes = 0;  // bytes appended to the caller's buffer
    bool closed = false;    // peer has closed this direction
  };

  /// Non-blocking: appends every buffered inbound byte to `out` and
  /// reports whether the peer closed. Never waits — the event-loop read.
  /// Bytes already appended remain valid even when `closed` is set (a FIN
  /// behind buffered data).
  Drained try_recv_into(Bytes& out);

  /// Blocking twin of try_recv_into: waits until at least one byte or the
  /// peer's close is pending, then appends everything buffered.
  Drained recv_into(Bytes& out);

  /// Registers this socket's inbound direction with a ReadySet: `tag` is
  /// enqueued when data or a close is (or becomes) available. One watcher
  /// per socket; watching again replaces the previous registration.
  void watch(ReadySet* set, std::uint64_t tag);

  /// Clears the queued-flag and re-enqueues the tag if the socket became
  /// ready while the owner was consuming it. Call after each drain.
  void rearm();

  /// Removes the ReadySet registration (before destroying the ReadySet).
  void unwatch();

  /// Closes this direction; the peer's reads drain the buffered bytes,
  /// then report `closed`.
  void close();

  /// Hard local teardown: immediately marks both directions closed and
  /// wakes any blocked reader on either end (no latency; used by server
  /// shutdown to unblock handler threads).
  void abort();

 private:
  friend class Network;
  friend class Listener;

  struct Half {  // one direction's receive buffer
    std::mutex mutex;
    std::condition_variable arrived;
    // Bytes delivered and not yet taken; a reader takes all of them.
    Bytes buffer;
    bool closed = false;
    WatchState watch;
    // Last scheduled delivery time (guarded by the Network mutex, not this
    // half's): impairment delays are clamped so bytes — and the FIN —
    // never overtake earlier bytes.
    double last_due = 0.0;

    /// Bytes or the FIN are waiting (caller holds `mutex`).
    [[nodiscard]] bool ready() const { return !buffer.empty() || closed; }
    /// Moves every buffered byte to the end of `out` (caller holds `mutex`).
    Drained take_into(Bytes& out);
    /// The one stream delivery step: under this half's lock, appends
    /// `data` — or, with `fin`, marks the direction closed — enqueues the
    /// watcher's tag, then wakes blocked readers. Runs on the sending
    /// thread for zero-delay traffic and on the dispatcher for delayed
    /// traffic. False when data meets a closed direction (it is dropped).
    bool deliver(const Bytes& data, bool fin);
  };
  struct ConnState {
    Half a_to_b;
    Half b_to_a;
    Address a, b;

    /// The direction that carries bytes sent by side a (or side b).
    Half& from(bool from_a) { return from_a ? a_to_b : b_to_a; }
  };

  StreamSocket(Network* net, std::shared_ptr<ConnState> state, bool is_a)
      : net_(net), state_(std::move(state)), is_a_(is_a) {}

  Half& inbound() const { return state_->from(!is_a_); }
  Half& outbound() const { return state_->from(is_a_); }

  Network* net_ = nullptr;
  std::shared_ptr<ConnState> state_;
  bool is_a_ = false;
};

/// Passive endpoint accepting stream connections (listening socket).
class Listener {
 public:
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] Address local() const { return local_; }

  /// Blocks for the next connection; kClosed after shutdown().
  support::Result<StreamSocket> accept();

  /// Non-blocking accept: kUnavailable when nothing is pending, kClosed
  /// after shutdown() once the backlog is drained.
  support::Result<StreamSocket> try_accept();

  /// ReadySet registration mirroring StreamSocket::watch/rearm: the tag is
  /// enqueued when a connection is (or becomes) pending.
  void watch(ReadySet* set, std::uint64_t tag);
  void rearm();
  void unwatch();

  /// Unblocks pending and future accepts with kClosed.
  void shutdown();

 private:
  friend class Network;
  Listener(Network& net, Address local) : net_(net), local_(local) {}

  void deliver(StreamSocket socket);

  Network& net_;
  Address local_;
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<StreamSocket> pending_;
  bool closed_ = false;
  WatchState watch_;
};

class Network {
 public:
  explicit Network(int hosts, NetConfig config = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] int hosts() const { return hosts_; }
  [[nodiscard]] const NetConfig& config() const { return config_; }

  /// Binds a datagram socket; the address must be free. The returned
  /// socket must not outlive the Network.
  std::unique_ptr<DatagramSocket> open_datagram(int host, std::uint16_t port);

  /// Starts listening; the address must be free.
  std::unique_ptr<Listener> listen(int host, std::uint16_t port);

  /// Connects from `from_host` (ephemeral port) to a listener at `to`.
  /// Blocks for one round trip; kNotFound if nobody listens there.
  support::Result<StreamSocket> connect(int from_host, const Address& to);

  /// Non-blocking connect: schedules the SYN and returns immediately;
  /// `done` is invoked on the dispatcher thread with the client socket
  /// (or kNotFound) one latency later. `done` must not block — it runs in
  /// the fabric's delivery loop. This is how a load generator opens 10^5+
  /// connections without 10^5 round-trip waits in series.
  void connect_async(int from_host, const Address& to,
                     std::function<void(support::Result<StreamSocket>)> done);

  /// Datagrams dropped by the impairment model so far.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Replaces the NetConfig impairment model for datagram traffic with a
  /// testkit::FaultInjector: drop/duplicate/delay come from the injector's
  /// seeded decision stream, and "reordered" packets get an extra delay so
  /// later packets overtake them. Stream traffic stays reliable; with
  /// NetConfig::impair_streams the injector's decisions additionally delay
  /// stream chunks (drop => retransmit penalty — see NetConfig). Pass
  /// nullptr to restore the built-in model.
  void set_fault_injector(std::shared_ptr<testkit::FaultInjector> injector);

 private:
  friend class DatagramSocket;
  friend class StreamSocket;
  friend class Listener;

  struct Event {
    double due;  // seconds on the steady clock
    std::uint64_t seq;
    std::function<void()> deliver;
  };
  struct EventOrder {
    bool operator()(const Event& x, const Event& y) const {
      return x.due > y.due || (x.due == y.due && x.seq > y.seq);
    }
  };

  static double now();
  /// Schedules `deliver` after the configured latency (plus jitter when
  /// `impaired`); applies loss/duplication when `impaired`.
  void schedule(std::function<void()> deliver, bool impaired);
  void dispatcher_loop();

  void unbind_datagram(const Address& addr);
  void unbind_listener(const Address& addr);
  void send_datagram(const Address& from, const Address& to, Bytes payload);
  /// Carries `data` — or, with `fin`, the FIN — from one side of a stream
  /// to the other: delivered before returning when streams have no delay,
  /// otherwise scheduled on the dispatcher. kClosed when the direction is
  /// already closed.
  support::Status send_stream(
      const std::shared_ptr<StreamSocket::ConnState>& state, bool from_a,
      const Bytes& data, bool fin);
  /// Extra stream delay (ms) from the impairment model; caller holds mutex_.
  double stream_impairment_ms();

  int hosts_;
  NetConfig config_;
  // Stream chunks carry no delay (latency 0, streams unimpaired), so
  // send_stream delivers them on the sending thread.
  const bool direct_streams_;
  // Per-host labeled send counters (pdc.net.host_sent{host="<i>"}),
  // resolved once at construction; empty under PDCKIT_OBS_NOOP.
  std::vector<obs::Counter*> host_sent_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::uint64_t dropped_ = 0;
  support::Rng rng_;
  std::shared_ptr<testkit::FaultInjector> injector_;
  std::map<Address, DatagramSocket*> datagram_sockets_;
  std::map<Address, Listener*> listeners_;
  std::uint16_t next_ephemeral_ = 40000;

  std::thread dispatcher_;
};

}  // namespace pdc::net
