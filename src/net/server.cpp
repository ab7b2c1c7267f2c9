#include "net/server.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/obs.hpp"
#include "parallel/work_stealing.hpp"
#include "support/check.hpp"

namespace pdc::net {

using support::Status;
using support::StatusCode;

// ----------------------------------------------------------------EventEngine
//
// The event-driven model. One acceptor thread runs the readiness loop:
// it polls a ReadySet shared by the listener (tag 0) and every connection
// (tag = connection id), so a single poll() carries an entire batch of
// ready endpoints. Connections are sharded by id; the loop routes each
// ready id into its shard's run queue and schedules at most one drain
// task per shard on the work-stealing pool (the `scheduled` flag). The
// drain task swap-takes the queue, drains each connection non-blockingly,
// parses frames zero-copy in place, runs the handler inline, and re-arms
// the socket — rearm() re-enqueues the tag if bytes raced in, so no
// wakeup is lost. Per-connection processing is serialized by construction
// (one drain task per shard), so connection state needs no lock beyond
// the shard map's.
struct Server::EventEngine {
  static constexpr std::uint64_t kListenerTag = 0;

  struct alignas(64) Shard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, Conn> conns;
    std::vector<std::uint64_t> ready;  // ids with pending readiness
    std::atomic<bool> scheduled{false};
    // pdc.server.inflight{shard=}: readiness entries routed but not yet
    // drained — the "queued in shard ready-list" depth per shard.
    obs::Gauge* inflight = nullptr;
  };

  explicit EventEngine(Server& server)
      : server(server),
        pool(server.config_.workers),
        shard_count(server.config_.shards != 0 ? server.config_.shards
                                               : 2 * server.config_.workers) {
    shards.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards.push_back(std::make_unique<Shard>());
      if constexpr (obs::kObsEnabled) {
        shards.back()->inflight = &obs::MetricsRegistry::instance().gauge(
            "pdc.server.inflight", {{"shard", std::to_string(i)}});
      }
    }
    server.listener_->watch(&ready_set, kListenerTag);
  }

  Shard& shard_of(std::uint64_t id) { return *shards[id % shard_count]; }

  /// Readiness loop (runs on the Server's acceptor thread).
  void loop() {
    std::vector<std::uint64_t> tags;
    while (!stopping.load(std::memory_order_acquire)) {
      tags.clear();
      ready_set.poll(tags, std::chrono::milliseconds(50));
      if (stopping.load(std::memory_order_acquire)) return;
      if (tags.empty()) continue;
      PDC_OBS_HIST("pdc.server.ready_batch",
                   static_cast<std::uint64_t>(tags.size()));
      for (const std::uint64_t tag : tags) {
        if (tag == kListenerTag) {
          accept_burst();
        } else {
          route(tag);
        }
      }
    }
  }

  /// Drains the whole accept backlog in one pass.
  void accept_burst() {
    for (;;) {
      auto accepted = server.listener_->try_accept();
      if (!accepted.is_ok()) break;
      StreamSocket socket = std::move(accepted).value();
      if (server.stopping_.load(std::memory_order_acquire)) {
        socket.abort();
        continue;
      }
      const std::uint64_t id = next_id++;
      Shard& shard = shard_of(id);
      {
        std::scoped_lock lock(shard.mutex);
        shard.conns[id].socket = socket;
      }
      PDC_OBS_COUNT("pdc.server.accepted");
      PDC_OBS_GAUGE_ADD("pdc.server.conns", 1);
      // Registering after the shard insert: if data already arrived the
      // watch signals immediately and route() finds the connection.
      socket.watch(&ready_set, id);
    }
    server.listener_->rearm();
  }

  void route(std::uint64_t id) {
    Shard& shard = shard_of(id);
    {
      std::scoped_lock lock(shard.mutex);
      // A tag can outlive its connection (closed while the tag sat in the
      // ready queue); integers don't dangle, just drop it.
      if (shard.conns.find(id) == shard.conns.end()) return;
      shard.ready.push_back(id);
      if (shard.inflight != nullptr) shard.inflight->add(1);
    }
    schedule(shard);
  }

  void schedule(Shard& shard) {
    // One in-flight drain task per shard: the flag is cleared only when
    // the run queue is observed empty under the shard lock, so a route()
    // racing that clear either lands in the still-running drain's next
    // sweep or wins this exchange and schedules a fresh task.
    if (!shard.scheduled.exchange(true, std::memory_order_acq_rel)) {
      pool.spawn([this, &shard] { drain(shard); });
    }
  }

  void drain(Shard& shard) {
    std::vector<std::uint64_t> batch;
    for (;;) {
      batch.clear();
      {
        std::scoped_lock lock(shard.mutex);
        batch.swap(shard.ready);
      }
      PDC_OBS_HIST("pdc.server.shard_batch",
                   static_cast<std::uint64_t>(batch.size()));
      if (shard.inflight != nullptr && !batch.empty()) {
        shard.inflight->sub(static_cast<std::int64_t>(batch.size()));
      }
      for (const std::uint64_t id : batch) {
        Conn* conn = nullptr;
        {
          std::scoped_lock lock(shard.mutex);
          auto it = shard.conns.find(id);
          // unordered_map references are stable across other keys'
          // inserts/erases; this id is only erased below, by this task.
          if (it != shard.conns.end()) conn = &it->second;
        }
        if (conn == nullptr) continue;
        if (process(*conn)) {
          conn->socket.rearm();
        } else {
          conn->socket.unwatch();
          conn->socket.close();
          {
            std::scoped_lock lock(shard.mutex);
            shard.conns.erase(id);
          }
          PDC_OBS_GAUGE_SUB("pdc.server.conns", 1);
        }
      }
      {
        std::scoped_lock lock(shard.mutex);
        if (shard.ready.empty()) {
          shard.scheduled.store(false, std::memory_order_release);
          return;
        }
      }
    }
  }

  /// Drains and serves one connection; false when it should be closed.
  bool process(Conn& conn) {
    const bool closed = conn.socket.try_recv_into(conn.rx.bytes).closed;
    // Peer FIN: frames ahead of it are answered; a trailing partial frame
    // can never complete.
    return server.serve_buffered(conn) && !closed;
  }

  /// stop() path: called after the loop thread joined. Aborts every live
  /// connection, then quiesces the pool so no drain task outlives us.
  /// Every watch is removed first — the client half of a connection can
  /// outlive this engine, and a late delivery must not signal a destroyed
  /// ReadySet.
  void shutdown() {
    server.listener_->unwatch();
    for (auto& shard : shards) {
      std::scoped_lock lock(shard->mutex);
      for (auto& [id, conn] : shard->conns) {
        conn.socket.unwatch();
        conn.socket.abort();
      }
    }
    pool.wait_idle();
    for (auto& shard : shards) {
      std::scoped_lock lock(shard->mutex);
      PDC_OBS_GAUGE_SUB("pdc.server.conns",
                        static_cast<std::int64_t>(shard->conns.size()));
      shard->conns.clear();
    }
  }

  Server& server;
  ReadySet ready_set;
  parallel::WorkStealingPool pool;
  std::size_t shard_count;
  std::vector<std::unique_ptr<Shard>> shards;
  std::uint64_t next_id = 1;  // acceptor thread only; 0 is the listener
  std::atomic<bool> stopping{false};
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
    if (engine_) PDC_OBS_COUNT("pdc.server.frames");
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
  }
  acceptor_ = std::thread([this] {
    if (engine_) {
      engine_->loop();
    } else {
      accept_loop();
    }
  });
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
    engine_->stopping.store(true, std::memory_order_release);
    engine_->ready_set.wake();
    if (acceptor_.joinable()) acceptor_.join();
    engine_->shutdown();
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
