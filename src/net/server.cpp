#include "net/server.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace pdc::net {

using support::Status;
using support::StatusCode;

// ----------------------------------------------------------------EventEngine
//
// The event-driven model, as Leader/Followers (Schmidt, O'Ryan, Kircher,
// Pyarali and Buschmann, PLoP 2000). The engine's `workers` threads share
// one ReadySet, watched by the listener (tag 0) and by every connection
// (tag = the address of its Conn), and take turns leading: the leader
// alone waits in poll() while the followers wait for the leader mutex.
// The leader takes its share of the ready tags, oldest first, hands the
// mutex on, and serves its tags itself: it drains each connection
// non-blockingly, answers every complete frame in place, and re-arms the
// socket; rearm() re-enqueues the tag if bytes raced in, so no wakeup is
// lost. A tag is queued at most once between rearms, so the thread that
// took it is the connection's only owner until it re-arms or closes it:
// connection state needs no lock. An owner unwatches before it closes,
// so no tag outlives its Conn.
struct Server::EventEngine {
  static constexpr std::uint64_t kListenerTag = 0;
  static constexpr auto kPollTimeout = std::chrono::milliseconds(50);
  // Passes one turn makes over a connection while bytes keep arriving:
  // pipelined requests are answered without a ReadySet round trip per
  // burst, and a connection that never stops sending yields the thread.
  static constexpr int kMaxPasses = 8;

  explicit EventEngine(Server& server) : server(server) {
    server.listener_->watch(&ready_set, kListenerTag);
    for (std::size_t w = 0; w < server.config_.workers; ++w) {
      threads.emplace_back([this] { work(); });
    }
  }

  void work() {
    const std::size_t workers = server.config_.workers;
    std::vector<std::uint64_t> tags;
    for (;;) {
      tags.clear();
      {
        std::scoped_lock lead(leader);
        if (server.stopping_.load(std::memory_order_acquire)) return;
        // The leader's share is ⌈queued / workers⌉: the rest stay queued
        // for the followers, which lead in turn.
        const std::size_t share = (ready_set.size() + workers - 1) / workers;
        ready_set.poll(tags, kPollTimeout, std::max<std::size_t>(share, 1));
      }
      if (tags.empty()) continue;
      PDC_OBS_HIST("pdc.server.ready_batch",
                   static_cast<std::uint64_t>(tags.size()));
      for (const std::uint64_t tag : tags) {
        if (tag == kListenerTag) {
          accept_burst();
        } else {
          serve(tag);
        }
      }
    }
  }

  /// Drains the whole accept backlog in one pass.
  void accept_burst() {
    for (;;) {
      auto accepted = server.listener_->try_accept();
      if (!accepted.is_ok()) {
        // A shut-down listener stays un-armed: rearm() would signal its
        // close again at once.
        if (accepted.status().code() == StatusCode::kUnavailable) {
          server.listener_->rearm();
        }
        return;
      }
      auto conn = std::make_unique<Conn>(Conn{std::move(accepted).value(), {}});
      const auto tag = reinterpret_cast<std::uint64_t>(conn.get());
      // Under the table lock, so stop() either aborts this connection or
      // this sees the stop.
      std::scoped_lock lock(conns_mutex);
      if (server.stopping_.load(std::memory_order_acquire)) {
        conn->socket.abort();
        continue;
      }
      PDC_OBS_COUNT("pdc.server.accepted");
      PDC_OBS_GAUGE_ADD("pdc.server.conns", 1);
      conn->socket.watch(&ready_set, tag);
      conns.emplace(tag, std::move(conn));
    }
  }

  /// One turn on a connection: reads and answers while bytes keep
  /// arriving, up to kMaxPasses passes, then re-arms or closes it.
  void serve(std::uint64_t tag) {
    Conn& conn = *reinterpret_cast<Conn*>(tag);
    for (int pass = 0; pass < kMaxPasses; ++pass) {
      const auto drained = conn.socket.try_recv_into(conn.rx.bytes);
      if (pass > 0 && drained.bytes == 0 && !drained.closed) break;
      // Peer FIN: frames ahead of it are answered; a trailing partial
      // frame can never complete.
      if (!server.serve_buffered(conn) || drained.closed) {
        conn.socket.unwatch();
        conn.socket.close();
        {
          std::scoped_lock lock(conns_mutex);
          conns.erase(tag);
        }
        PDC_OBS_GAUGE_SUB("pdc.server.conns", 1);
        return;
      }
    }
    conn.socket.rearm();
  }

  /// stop() path, after Server::stopping_ is set: wakes the leader, aborts
  /// every live connection, then joins the workers, each of which
  /// finishes the tags it holds. Every watch is removed first — the client
  /// half of a connection can outlive this engine, and a late delivery
  /// must not signal a destroyed ReadySet.
  void stop() {
    ready_set.wake();
    server.listener_->unwatch();
    {
      std::scoped_lock lock(conns_mutex);
      for (auto& [tag, conn] : conns) {
        conn->socket.unwatch();
        conn->socket.abort();
      }
    }
    for (auto& thread : threads) thread.join();
    PDC_OBS_GAUGE_SUB("pdc.server.conns", static_cast<std::int64_t>(conns.size()));
    conns.clear();
  }

  Server& server;
  ReadySet ready_set;
  std::mutex leader;  // held by the one worker waiting in poll()
  std::mutex conns_mutex;
  // Live connections by tag; only accept, close and stop() touch it.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::vector<std::thread> threads;
};

// --------------------------------------------------------------------- Server

bool Server::serve_buffered(Conn& conn) {
  for (;;) {
    BytesView request;
    obs::SpanContext trace;
    const auto scan =
        MessageCodec::scan_message(conn.rx.bytes, conn.rx.off, request, trace);
    if (scan == MessageCodec::Scan::kNeedMore) break;
    if (scan == MessageCodec::Scan::kCorrupt) return false;
    // Event-engine frames only: a scrape served by a thread-per-connection
    // TelemetryServer must not count itself into the scrape it renders,
    // and the reference benchmark's frame ledger balances this delta
    // against the requests its client sent.
    if (config_.model == ThreadingModel::kEventDriven) {
      PDC_OBS_COUNT("pdc.server.frames");
    }
    if (!serve_frame(conn.socket, request, trace)) return false;
  }
  conn.rx.compact();
  return true;
}

bool Server::serve_frame(StreamSocket& socket, BytesView request,
                         obs::SpanContext trace) {
  if (config_.raw_handler && config_.raw_handler(request, socket)) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // The handler runs as a child span of the client's request: the
  // bracket covers invoke + reply send, and the ambient scope lets
  // anything the handler submits downstream inherit the trace.
  obs::SpanGuard span("server.drain", trace);
  const std::uint64_t drain_start_us = obs::kObsEnabled ? obs::now_us() : 0;
  const Bytes reply = config_.view_handler ? config_.view_handler(request)
                                           : handler_(request.to_owned());
  requests_.fetch_add(1, std::memory_order_relaxed);
  const bool sent = MessageCodec::send_message(socket, reply).is_ok();
  // Same bracket as the span (invoke + reply send) — the series the
  // server.drain.p99 SLO rule windows.
  PDC_OBS_HIST("pdc.server.drain_us", obs::now_us() - drain_start_us);
  return sent;
}

Server::Server(Network& net, int host, std::uint16_t port, Handler handler,
               ServerConfig config)
    : net_(net), handler_(std::move(handler)), config_(std::move(config)),
      listener_(net.listen(host, port)), pending_(1024) {
  PDC_CHECK(handler_ != nullptr || config_.view_handler != nullptr);
  // Registered eagerly for the same reason as the telemetry self-metrics:
  // a lazy first-record at the first drain would make two fixed-seed runs
  // disagree on the metric set and break the golden exposition.
  if constexpr (obs::kObsEnabled) {
    obs::MetricsRegistry::instance().histogram("pdc.server.drain_us");
  }
  if (config_.model == ThreadingModel::kWorkerPool) {
    PDC_CHECK(config_.workers >= 1);
    for (std::size_t w = 0; w < config_.workers; ++w) {
      workers_.emplace_back([this] {
        for (;;) {
          auto socket = pending_.pop();
          if (!socket.is_ok()) break;
          serve_connection(std::move(socket).value());
        }
      });
    }
  } else if (config_.model == ThreadingModel::kEventDriven) {
    PDC_CHECK(config_.workers >= 1);
    engine_ = std::make_unique<EventEngine>(*this);
    return;  // the engine's workers accept too
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

std::vector<obs::SloRule> Server::default_slo_rules(double window_scale,
                                                    double drain_p99_us) {
  return {
      obs::latency_slo("server.drain.p99", "pdc.server.drain_us", 0.99,
                       drain_p99_us, window_scale),
  };
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  listener_->shutdown();

  if (engine_) {
    engine_->stop();
    return;
  }

  pending_.close();
  // Claim every queued-but-unserved connection before the hard abort: each
  // is served from its buffer and closed *gracefully* below, so its replies
  // actually reach the client (an abort would kill them in flight).
  std::vector<StreamSocket> queued;
  for (;;) {
    auto socket = pending_.try_pop();
    if (!socket.is_ok()) break;
    queued.push_back(std::move(socket).value());
  }
  // Hard-abort live connections so handler threads blocked in recv wake up
  // even when the client never closed its end — skipping the claimed ones.
  {
    std::scoped_lock lock(conn_mutex_);
    for (auto& socket : active_) {
      const bool claimed =
          std::any_of(queued.begin(), queued.end(),
                      [&](const StreamSocket& q) { return q.is_same(socket); });
      if (!claimed) socket.abort();
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& socket : queued) drain_buffered(std::move(socket));
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::vector<std::thread> connections;
  {
    std::scoped_lock lock(conn_mutex_);
    connections.swap(conn_threads_);
    for (auto& t : finished_) connections.push_back(std::move(t));
    finished_.clear();
  }
  for (auto& t : connections) {
    if (t.joinable()) t.join();
  }
}

void Server::accept_loop() {
  for (;;) {
    auto accepted = listener_->accept();
    if (!accepted.is_ok()) return;  // shut down
    StreamSocket socket = std::move(accepted).value();
    std::vector<std::thread> finished;
    {
      std::scoped_lock lock(conn_mutex_);
      finished.swap(finished_);
    }
    for (auto& t : finished) t.join();
    {
      std::scoped_lock lock(conn_mutex_);
      active_.push_back(socket);  // cheap handle copy, for abort on stop
      if (stopping_.load()) {
        socket.abort();
        continue;
      }
      if (config_.model == ThreadingModel::kThreadPerConnection) {
        conn_threads_.emplace_back(
            [this, s = std::move(socket)]() mutable {
              serve_connection(std::move(s));
            });
        continue;
      }
    }
    // Worker pool: parks until a worker picks the connection up.
    (void)pending_.push(std::move(socket));
  }
}

void Server::serve_connection(StreamSocket socket) {
  Conn conn{std::move(socket), {}};
  for (;;) {
    const bool closed = conn.socket.recv_into(conn.rx.bytes).closed;
    if (!serve_buffered(conn) || closed) break;
  }
  conn.socket.close();
  retire(conn.socket);
}

void Server::retire(const StreamSocket& socket) {
  std::scoped_lock lock(conn_mutex_);
  std::erase_if(active_,
                [&](const StreamSocket& s) { return s.is_same(socket); });
  // Not found on a pool worker, or once stop() has claimed the threads.
  const auto self =
      std::find_if(conn_threads_.begin(), conn_threads_.end(),
                   [](const std::thread& t) {
                     return t.get_id() == std::this_thread::get_id();
                   });
  if (self != conn_threads_.end()) {
    finished_.push_back(std::move(*self));
    conn_threads_.erase(self);
  }
}

void Server::drain_buffered(StreamSocket socket) {
  Conn conn{std::move(socket), {}};
  (void)conn.socket.try_recv_into(conn.rx.bytes);
  (void)serve_buffered(conn);
  conn.socket.close();
}

Status Client::connect(const Address& server) {
  auto socket = net_.connect(host_, server);
  if (!socket.is_ok()) return socket.status();
  // Hang up the previous connection: its server would keep serving it,
  // and a worker-pool server stays parked on it.
  close();
  socket_ = std::move(socket).value();
  rx_ = {};
  return Status::ok();
}

support::Result<Bytes> Client::call(const Bytes& request) {
  PDC_CHECK_MSG(socket_.valid(), "call before connect");
  if (auto status = MessageCodec::send_message(socket_, request); !status.is_ok()) {
    return status;
  }
  return recv();
}

support::Result<Bytes> Client::recv() {
  return MessageCodec::recv_message(socket_, rx_);
}

support::Result<std::string> Client::call_text(const std::string& request) {
  auto reply = call(to_bytes(request));
  if (!reply.is_ok()) return reply.status();
  return to_string(reply.value());
}

void Client::close() {
  if (socket_.valid()) socket_.close();
}

// ----------------------------------------------------------------------- RPC

namespace {
constexpr std::uint8_t kRpcOk = 0;
constexpr std::uint8_t kRpcNotFound = 1;
constexpr std::uint8_t kRpcError = 2;
}  // namespace

RpcServer::RpcServer(Network& net, int host, std::uint16_t port,
                     ServerConfig config)
    : server_(std::make_unique<Server>(
          net, host, port, [this](const Bytes& req) { return dispatch(req); },
          config)) {}

void RpcServer::register_procedure(const std::string& name, Handler handler) {
  std::scoped_lock lock(mutex_);
  procedures_[name] = std::move(handler);
}

Bytes RpcServer::dispatch(const Bytes& request) {
  auto fail = [](std::uint8_t code, const std::string& text) {
    Bytes reply;
    reply.push_back(static_cast<std::byte>(code));
    const Bytes body = to_bytes(text);
    reply.insert(reply.end(), body.begin(), body.end());
    return reply;
  };
  if (request.size() < 2) return fail(kRpcError, "malformed envelope");
  const std::size_t name_len =
      static_cast<std::size_t>(request[0]) |
      (static_cast<std::size_t>(request[1]) << 8);
  if (request.size() < 2 + name_len) return fail(kRpcError, "malformed envelope");
  const std::string name =
      to_string(Bytes(request.begin() + 2,
                      request.begin() + 2 + static_cast<std::ptrdiff_t>(name_len)));
  Handler handler;
  {
    std::scoped_lock lock(mutex_);
    const auto it = procedures_.find(name);
    if (it == procedures_.end()) {
      return fail(kRpcNotFound, "no procedure '" + name + "'");
    }
    handler = it->second;
  }
  const Bytes payload(request.begin() + 2 + static_cast<std::ptrdiff_t>(name_len),
                      request.end());
  try {
    Bytes body = handler(payload);
    Bytes reply;
    reply.push_back(std::byte{kRpcOk});
    reply.insert(reply.end(), body.begin(), body.end());
    return reply;
  } catch (const std::exception& e) {
    return fail(kRpcError, e.what());
  }
}

support::Result<Bytes> RpcClient::call(const std::string& name,
                                       const Bytes& payload) {
  PDC_CHECK_MSG(name.size() < 65536, "procedure name too long");
  Bytes request;
  request.push_back(static_cast<std::byte>(name.size() & 0xff));
  request.push_back(static_cast<std::byte>(name.size() >> 8));
  const Bytes name_bytes = to_bytes(name);
  request.insert(request.end(), name_bytes.begin(), name_bytes.end());
  request.insert(request.end(), payload.begin(), payload.end());

  auto reply = client_.call(request);
  if (!reply.is_ok()) return reply.status();
  const Bytes& wire = reply.value();
  if (wire.empty()) return Status{StatusCode::kAborted, "empty rpc reply"};
  const auto code = static_cast<std::uint8_t>(wire[0]);
  Bytes body(wire.begin() + 1, wire.end());
  switch (code) {
    case kRpcOk:
      return body;
    case kRpcNotFound:
      return Status{StatusCode::kNotFound, to_string(body)};
    default:
      return Status{StatusCode::kAborted, to_string(body)};
  }
}

support::Result<std::string> RpcClient::call_text(const std::string& name,
                                                  const std::string& payload) {
  auto reply = call(name, to_bytes(payload));
  if (!reply.is_ok()) return reply.status();
  return to_string(reply.value());
}

}  // namespace pdc::net
