#include "net/network.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/check.hpp"
#include "testkit/fault_injector.hpp"

namespace pdc::net {

using support::Status;
using support::StatusCode;

namespace {

/// Enqueues the watcher's tag if registered and not already queued.
/// Caller holds the watched endpoint's mutex; ReadySet's own mutex nests
/// inside it (the one watch-side lock order: endpoint mutex → set mutex).
void signal_watch(WatchState& watch) {
  if (watch.set != nullptr && !watch.queued) {
    watch.queued = true;
    watch.set->push(watch.tag);
  }
}

}  // namespace

// ------------------------------------------------------------------ ReadySet

std::size_t ReadySet::poll(std::vector<std::uint64_t>& out,
                           std::chrono::milliseconds timeout, std::size_t max) {
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, timeout, [&] { return !ready_.empty() || woken_; });
  woken_ = false;
  const std::size_t n = std::min(ready_.size(), max);
  const auto taken = ready_.begin() + static_cast<std::ptrdiff_t>(n);
  out.insert(out.end(), ready_.begin(), taken);
  ready_.erase(ready_.begin(), taken);
  return n;
}

std::size_t ReadySet::size() {
  std::scoped_lock lock(mutex_);
  return ready_.size();
}

void ReadySet::wake() {
  {
    std::scoped_lock lock(mutex_);
    woken_ = true;
  }
  cv_.notify_all();
}

void ReadySet::push(std::uint64_t tag) {
  {
    std::scoped_lock lock(mutex_);
    ready_.push_back(tag);
  }
  cv_.notify_one();
}

// ------------------------------------------------------------ DatagramSocket

DatagramSocket::~DatagramSocket() { net_.unbind_datagram(local_); }

void DatagramSocket::send_to(const Address& to, Bytes payload) {
  net_.send_datagram(local_, to, std::move(payload));
}

void DatagramSocket::deliver(Datagram dgram) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(dgram));
  }
  arrived_.notify_one();
}

support::Result<Datagram> DatagramSocket::recv_for(
    std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  if (!arrived_.wait_for(lock, timeout,
                         [&] { return !queue_.empty() || closed_; })) {
    return Status{StatusCode::kTimeout, "no datagram within timeout"};
  }
  if (queue_.empty()) return Status{StatusCode::kClosed, "socket closed"};
  Datagram dgram = std::move(queue_.front());
  queue_.pop_front();
  PDC_OBS_COUNT("pdc.net.received");
  if (host_received_ != nullptr) host_received_->inc();
  obs::wire_accept(dgram.trace, "net.recv",
                   static_cast<std::uint64_t>(dgram.from.host),
                   dgram.payload.size());
  return dgram;
}

// -------------------------------------------------------------- StreamSocket

Address StreamSocket::peer() const {
  PDC_CHECK(valid());
  return is_a_ ? state_->b : state_->a;
}

Status StreamSocket::send(const Bytes& data) {
  PDC_CHECK(valid());
  return net_->send_stream(state_, is_a_, data, /*fin=*/false);
}

StreamSocket::Drained StreamSocket::try_recv_into(Bytes& out) {
  PDC_CHECK(valid());
  Half& half = inbound();
  std::scoped_lock lock(half.mutex);
  return half.take_into(out);
}

StreamSocket::Drained StreamSocket::recv_into(Bytes& out) {
  PDC_CHECK(valid());
  Half& half = inbound();
  std::unique_lock lock(half.mutex);
  half.arrived.wait(lock, [&] { return half.ready(); });
  return half.take_into(out);
}

void StreamSocket::watch(ReadySet* set, std::uint64_t tag) {
  PDC_CHECK(valid());
  Half& half = inbound();
  std::scoped_lock lock(half.mutex);
  half.watch.set = set;
  half.watch.tag = tag;
  half.watch.queued = false;
  if (half.ready()) signal_watch(half.watch);
}

void StreamSocket::rearm() {
  if (!valid()) return;
  Half& half = inbound();
  std::scoped_lock lock(half.mutex);
  half.watch.queued = false;
  // Data (or the FIN) that raced in while the owner was draining would
  // otherwise be a lost wakeup: re-enqueue immediately.
  if (half.ready()) signal_watch(half.watch);
}

void StreamSocket::unwatch() {
  if (!valid()) return;
  Half& half = inbound();
  std::scoped_lock lock(half.mutex);
  half.watch.set = nullptr;
  half.watch.queued = false;
}

void StreamSocket::close() {
  if (!valid()) return;
  net_->send_stream(state_, is_a_, {}, /*fin=*/true);
}

void StreamSocket::abort() {
  if (!valid()) return;
  state_->a_to_b.deliver({}, /*fin=*/true);
  state_->b_to_a.deliver({}, /*fin=*/true);
}

StreamSocket::Drained StreamSocket::Half::take_into(Bytes& out) {
  const Drained drained{buffer.size(), closed};
  out.insert(out.end(), buffer.begin(), buffer.end());
  buffer.clear();
  return drained;
}

bool StreamSocket::Half::deliver(const Bytes& data, bool fin) {
  {
    std::scoped_lock lock(mutex);
    if (fin) {
      closed = true;
    } else if (closed) {
      return false;
    } else {
      buffer.insert(buffer.end(), data.begin(), data.end());
    }
    signal_watch(watch);
  }
  arrived.notify_all();
  return true;
}

// ------------------------------------------------------------------ Listener

Listener::~Listener() {
  shutdown();
  net_.unbind_listener(local_);
}

support::Result<StreamSocket> Listener::accept() {
  std::unique_lock lock(mutex_);
  arrived_.wait(lock, [&] { return !pending_.empty() || closed_; });
  if (pending_.empty()) return Status{StatusCode::kClosed, "listener shut down"};
  StreamSocket socket = std::move(pending_.front());
  pending_.pop_front();
  return socket;
}

support::Result<StreamSocket> Listener::try_accept() {
  std::scoped_lock lock(mutex_);
  if (pending_.empty()) {
    if (closed_) return Status{StatusCode::kClosed, "listener shut down"};
    return Status{StatusCode::kUnavailable, "no pending connection"};
  }
  StreamSocket socket = std::move(pending_.front());
  pending_.pop_front();
  return socket;
}

void Listener::watch(ReadySet* set, std::uint64_t tag) {
  std::scoped_lock lock(mutex_);
  watch_.set = set;
  watch_.tag = tag;
  watch_.queued = false;
  if (!pending_.empty() || closed_) signal_watch(watch_);
}

void Listener::rearm() {
  std::scoped_lock lock(mutex_);
  watch_.queued = false;
  if (!pending_.empty() || closed_) signal_watch(watch_);
}

void Listener::unwatch() {
  std::scoped_lock lock(mutex_);
  watch_.set = nullptr;
  watch_.queued = false;
}

void Listener::shutdown() {
  {
    std::scoped_lock lock(mutex_);
    closed_ = true;
    signal_watch(watch_);
  }
  arrived_.notify_all();
}

void Listener::deliver(StreamSocket socket) {
  {
    std::scoped_lock lock(mutex_);
    if (closed_) return;  // connection dropped: listener is gone
    pending_.push_back(std::move(socket));
    signal_watch(watch_);
  }
  arrived_.notify_one();
}

// ------------------------------------------------------------------- Network

Network::Network(int hosts, NetConfig config)
    : hosts_(hosts), config_(config),
      direct_streams_(config.latency_ms == 0.0 && !config.impair_streams),
      rng_(config.seed),
      dispatcher_([this] { dispatcher_loop(); }) {
  PDC_CHECK(hosts >= 1);
  PDC_CHECK(config.loss >= 0.0 && config.loss < 1.0);
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::MetricsRegistry::instance();
    host_sent_.reserve(static_cast<std::size_t>(hosts));
    for (int h = 0; h < hosts; ++h) {
      host_sent_.push_back(
          &registry.counter("pdc.net.host_sent", {{"host", std::to_string(h)}}));
    }
  }
}

Network::~Network() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  dispatcher_.join();
}

double Network::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Network::schedule(std::function<void()> deliver, bool impaired) {
  std::size_t copies = 1;
  double jitter = 0.0;
  {
    std::scoped_lock lock(mutex_);
    if (impaired && injector_) {
      // Injector overrides the NetConfig model: drops/duplicates/delays come
      // from its seeded decision stream; "reordered" packets are held back by
      // reorder_ms so subsequently sent packets overtake them.
      const testkit::FaultDecision decision = injector_->next();
      if (decision.drop) {
        ++dropped_;
        PDC_OBS_COUNT("pdc.net.dropped");
        return;
      }
      copies = decision.copies;
      jitter = decision.extra_delay_ms;
      if (decision.reordered) jitter += injector_->config().reorder_ms;
    } else if (impaired) {
      if (rng_.bernoulli(config_.loss)) {
        ++dropped_;
        PDC_OBS_COUNT("pdc.net.dropped");
        return;
      }
      if (rng_.bernoulli(config_.duplicate)) copies = 2;
      if (config_.jitter_ms > 0.0) jitter = rng_.uniform(0.0, config_.jitter_ms);
    }
    const double due = now() + (config_.latency_ms + jitter) / 1e3;
    for (std::size_t c = 0; c < copies; ++c) {
      events_.push(Event{due, next_seq_++, deliver});
    }
  }
  wake_.notify_all();
}

void Network::dispatcher_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (events_.empty()) {
      wake_.wait(lock, [&] { return stopping_ || !events_.empty(); });
      continue;
    }
    const double due = events_.top().due;
    const double current = now();
    if (current < due) {
      wake_.wait_for(lock, std::chrono::duration<double>(due - current));
      continue;  // re-check: new earlier events or shutdown
    }
    auto deliver = events_.top().deliver;
    events_.pop();
    lock.unlock();
    deliver();  // outside the lock: delivery takes per-socket locks
    lock.lock();
  }
}

std::unique_ptr<DatagramSocket> Network::open_datagram(int host,
                                                       std::uint16_t port) {
  PDC_CHECK(host >= 0 && host < hosts_);
  const Address addr{host, port};
  std::unique_ptr<DatagramSocket> socket(new DatagramSocket(*this, addr));
  std::scoped_lock lock(mutex_);
  PDC_CHECK_MSG(datagram_sockets_.find(addr) == datagram_sockets_.end(),
                "address already bound: " + addr.to_string());
  datagram_sockets_[addr] = socket.get();
  return socket;
}

std::unique_ptr<Listener> Network::listen(int host, std::uint16_t port) {
  PDC_CHECK(host >= 0 && host < hosts_);
  const Address addr{host, port};
  std::unique_ptr<Listener> listener(new Listener(*this, addr));
  std::scoped_lock lock(mutex_);
  PDC_CHECK_MSG(listeners_.find(addr) == listeners_.end(),
                "address already listening: " + addr.to_string());
  listeners_[addr] = listener.get();
  return listener;
}

support::Result<StreamSocket> Network::connect(int from_host,
                                               const Address& to) {
  // The blocking connect is the async one plus a one-RTT latch.
  struct Sync {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    support::Result<StreamSocket> result =
        Status{StatusCode::kUnavailable, "connect pending"};
  };
  auto sync = std::make_shared<Sync>();
  connect_async(from_host, to, [sync](support::Result<StreamSocket> result) {
    std::scoped_lock lock(sync->mutex);
    sync->result = std::move(result);
    sync->done = true;
    // Notify while holding the lock: the waiter's stack (and with it the
    // shared_ptr's other owner) may unwind the instant done flips.
    sync->cv.notify_one();
  });
  std::unique_lock lock(sync->mutex);
  sync->cv.wait(lock, [&] { return sync->done; });
  return std::move(sync->result);
}

void Network::connect_async(
    int from_host, const Address& to,
    std::function<void(support::Result<StreamSocket>)> done) {
  PDC_CHECK(from_host >= 0 && from_host < hosts_);
  auto state = std::make_shared<StreamSocket::ConnState>();
  bool missing = false;
  {
    std::scoped_lock lock(mutex_);
    missing = listeners_.find(to) == listeners_.end();
    if (!missing) state->a = Address{from_host, next_ephemeral_++};
  }
  if (missing) {
    // No listener now means no SYN to send; report inline (the only case
    // where `done` runs on the caller's thread).
    done(Status{StatusCode::kNotFound, "nothing listening at " + to.to_string()});
    return;
  }
  state->b = to;
  StreamSocket client(this, state, /*is_a=*/true);
  StreamSocket server(this, state, /*is_a=*/false);
  // SYN travels one latency; the handshake completes when the listener
  // receives its endpoint (abstracted two-way handshake).
  schedule(
      [this, to, client = std::move(client), server = std::move(server),
       done = std::move(done)]() mutable {
        bool delivered = false;
        {
          std::scoped_lock net_lock(mutex_);
          auto it = listeners_.find(to);
          if (it != listeners_.end()) {
            // Listener delivery only takes its own mutex (no lock-order
            // issue nesting inside the net mutex).
            it->second->deliver(std::move(server));
            delivered = true;
          }
        }
        if (delivered) {
          done(std::move(client));
        } else {
          done(Status{StatusCode::kNotFound,
                      "listener shut down before the SYN arrived"});
        }
      },
      /*impaired=*/false);
}

std::uint64_t Network::dropped() const {
  std::scoped_lock lock(mutex_);
  return dropped_;
}

void Network::set_fault_injector(
    std::shared_ptr<testkit::FaultInjector> injector) {
  std::scoped_lock lock(mutex_);
  injector_ = std::move(injector);
}

void Network::unbind_datagram(const Address& addr) {
  std::scoped_lock lock(mutex_);
  datagram_sockets_.erase(addr);
}

void Network::unbind_listener(const Address& addr) {
  std::scoped_lock lock(mutex_);
  listeners_.erase(addr);
}

void Network::send_datagram(const Address& from, const Address& to,
                            Bytes payload) {
  PDC_OBS_COUNT("pdc.net.sent");
  PDC_OBS_COUNT("pdc.net.sent_bytes", payload.size());
  if (!host_sent_.empty() && from.host >= 0 && from.host < hosts_) {
    host_sent_[static_cast<std::size_t>(from.host)]->inc();
  }
  // Captured on the sending thread (not the dispatcher) so the flow arrow
  // originates inside the sender's span.
  const obs::WireTrace trace = obs::wire_capture(
      "net.send", static_cast<std::uint64_t>(to.host), payload.size());
  schedule(
      [this, from, to, trace, payload = std::move(payload)]() mutable {
        // Deliver while holding the net mutex so the socket cannot be
        // destroyed (its destructor unbinds under the same mutex). The
        // socket's own mutex nests inside the net mutex — the datagram
        // lock order (streams never take the net mutex to deliver).
        std::scoped_lock lock(mutex_);
        auto it = datagram_sockets_.find(to);
        if (it == datagram_sockets_.end()) return;  // no receiver: dropped
        it->second->deliver(Datagram{from, std::move(payload), trace});
      },
      /*impaired=*/true);
}

double Network::stream_impairment_ms() {
  if (!config_.impair_streams) return 0.0;
  if (injector_) {
    // Reliability is a service: a chunk the injector would drop or reorder
    // is "retransmitted" instead — it arrives late by reorder_ms, never out
    // of order (the due-time clamp in send_stream). Totals stay
    // deterministic across thread interleavings because every consultation
    // draws the same number of values from the seeded stream.
    const testkit::FaultDecision decision = injector_->next();
    double extra = decision.extra_delay_ms;
    if (decision.drop || decision.reordered) {
      extra += injector_->config().reorder_ms;
    }
    return extra;
  }
  if (config_.jitter_ms > 0.0) return rng_.uniform(0.0, config_.jitter_ms);
  return 0.0;
}

Status Network::send_stream(
    const std::shared_ptr<StreamSocket::ConnState>& state, bool from_a,
    const Bytes& data, bool fin) {
  StreamSocket::Half& half = state->from(from_a);
  if (direct_streams_) {
    // Nothing to wait for: deliver on the sender's thread, with the closed
    // check under the same lock as the append.
    if (half.deliver(data, fin)) return Status::ok();
    return {StatusCode::kClosed, "connection closed"};
  }
  if (!fin) {
    std::scoped_lock lock(half.mutex);
    if (half.closed) return {StatusCode::kClosed, "connection closed"};
  }
  {
    std::scoped_lock lock(mutex_);
    // The FIN rides the plain latency; only data draws an impairment delay.
    const double extra_ms = fin ? 0.0 : stream_impairment_ms();
    // FIFO clamp: a chunk delayed less than its predecessor would overtake
    // it in the priority queue; pinning each due time at or after the
    // previous one keeps the byte stream — and the FIN — in order under
    // any impairment.
    const double due =
        std::max(now() + (config_.latency_ms + extra_ms) / 1e3, half.last_due);
    half.last_due = due;
    events_.push(Event{due, next_seq_++, [state, from_a, data, fin] {
                         state->from(from_a).deliver(data, fin);
                       }});
  }
  wake_.notify_all();
  return Status::ok();
}

}  // namespace pdc::net
