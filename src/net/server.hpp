// Client-server framework and a small RPC layer over framed streams.
//
// "Client-server programming" appears in Table I under both systems
// programming and networks, and the RIT course builds network application
// programs around it. Server supports three threading models so their
// trade-offs are observable in bench/perf_server and bench/lab_rit_netserver:
//
//  - kThreadPerConnection: classic, simple, O(connections) threads;
//  - kWorkerPool: a fixed pool pulls whole connections from a queue — one
//    blocked connection holds one worker hostage, so concurrency is capped
//    at the pool size;
//  - kEventDriven: a readiness loop over the simulated fabric multiplexes
//    every connection onto a lock-free WorkStealingPool. Connections are
//    sharded by id; each ready batch is drained by a task on the shard,
//    and handler invocations run inline in the task. This is the model
//    that holds 10^5..10^6 concurrent connections (see docs/serving.md).
//
// The models differ only in who waits for bytes. Each appends what the
// socket holds to the connection's receive buffer (the event engine and
// the worker-pool stop drain without waiting, the connection threads
// blocking), then one serve step parses every complete frame in place and
// answers it: raw handler, server.drain span, handler, reply.
//
// The RPC layer adds named-procedure dispatch on top (the "middleware"
// rung of the distributed-systems lecture).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/bounded_queue.hpp"
#include "net/framing.hpp"
#include "net/network.hpp"
#include "obs/slo.hpp"

namespace pdc::net {

/// Computes the reply for one request (invoked concurrently).
using Handler = std::function<Bytes(const Bytes& request)>;

/// Zero-copy variant: the request is a view into the connection's receive
/// buffer, valid only for the duration of the call. When set, it replaces
/// Handler on every threading model; the request is not copied out of
/// the receive buffer.
using ViewHandler = std::function<Bytes(BytesView request)>;

/// Stream-level interceptor, consulted before `Handler` for every framed
/// request on a connection: return true after writing zero or more framed
/// replies directly to the socket (the connection then resumes normal
/// request-response service), false to fall through to the one-reply
/// Handler. This is how an endpoint pushes multi-frame streams — e.g. the
/// telemetry plane's delta subscriptions — without abandoning the framed
/// request/reply framework. The request is a view into the receive buffer
/// like ViewHandler's, valid only for the call.
using RawHandler = std::function<bool(BytesView request, StreamSocket& socket)>;

enum class ThreadingModel {
  kThreadPerConnection,  // classic: simple, unbounded threads
  kWorkerPool,           // fixed pool pulls connections from a queue
  kEventDriven,          // readiness loop + sharded lock-free task pool
};

struct ServerConfig {
  ThreadingModel model = ThreadingModel::kThreadPerConnection;
  std::size_t workers = 4;    // pool threads (worker-pool and event-driven)
  std::size_t shards = 0;     // event-driven connection shards (0 = 2x workers)
  RawHandler raw_handler;     // optional; see RawHandler
  ViewHandler view_handler;   // optional; see ViewHandler
};

/// Request-response server: each connection carries a sequence of framed
/// requests, each answered with one framed reply.
class Server {
 public:
  Server(Network& net, int host, std::uint16_t port, Handler handler,
         ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] Address address() const { return listener_->local(); }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// The serving plane's default SLO rule for an obs::SloMonitor:
  /// server.drain.p99 — windowed p99 of pdc.server.drain_us (the handler
  /// invoke + reply send bracket, all three threading models) against
  /// `drain_p99_us`. Canonical burn-rate windows scale by `window_scale`
  /// (see obs::latency_slo).
  [[nodiscard]] static std::vector<obs::SloRule> default_slo_rules(
      double window_scale = 1.0, double drain_p99_us = 10'000.0);

  /// Stops accepting; existing connections finish their current request.
  /// Worker-pool model: connections still queued (accepted but never
  /// picked up by a worker) are drained deterministically — every complete
  /// frame already delivered is answered, then the connection is closed
  /// gracefully — so no accepted connection is silently dropped.
  void stop();

 private:
  struct EventEngine;  // defined in server.cpp (owns the task pool)
  friend struct EventEngine;

  /// One connection's receive state, whatever the threading model.
  struct Conn {
    StreamSocket socket;
    Bytes rx;             // receive buffer; frames parsed in place
    std::size_t off = 0;  // parse offset into rx
  };

  void accept_loop();
  void serve_connection(StreamSocket socket);
  /// Answers every complete frame already buffered on `socket` without
  /// blocking, then closes it gracefully (stop()-time drain).
  void drain_buffered(StreamSocket socket);
  /// Answers every complete frame in `conn.rx`, then compacts it; false
  /// when the connection should be closed (corrupt frame, reply failed).
  bool serve_buffered(Conn& conn);
  /// The per-frame step of every threading model; false when the reply
  /// could not be sent.
  bool serve_frame(StreamSocket& socket, BytesView request,
                   obs::SpanContext trace);

  Network& net_;
  Handler handler_;
  ServerConfig config_;
  std::unique_ptr<Listener> listener_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<bool> stopping_{false};

  concurrency::BoundedQueue<StreamSocket> pending_;  // worker-pool model
  std::vector<std::thread> workers_;
  std::unique_ptr<EventEngine> engine_;  // event-driven model
  std::thread acceptor_;
  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;  // thread-per-connection model
  std::vector<StreamSocket> active_;       // for hard abort on stop()
};

/// Client endpoint issuing framed request-response calls.
class Client {
 public:
  Client(Network& net, int host) : net_(net), host_(host) {}

  /// Opens the connection (one per client).
  support::Status connect(const Address& server);

  /// One round trip; kClosed if the server went away.
  support::Result<Bytes> call(const Bytes& request);
  support::Result<std::string> call_text(const std::string& request);

  /// Receives the next frame the server pushes after a call (a RawHandler
  /// stream); kClosed if the server went away.
  support::Result<Bytes> recv();

  void close();

 private:
  Network& net_;
  int host_;
  StreamSocket socket_;
};

// ----------------------------------------------------------------------- RPC

/// Named-procedure server: dispatches `call(name, payload)` to registered
/// handlers. Envelope: u16 name length | name | payload; replies are
/// u8 status | body (body = error text on failure).
class RpcServer {
 public:
  RpcServer(Network& net, int host, std::uint16_t port,
            ServerConfig config = {});

  /// Registers a procedure (before or between calls; thread-safe).
  void register_procedure(const std::string& name, Handler handler);

  [[nodiscard]] Address address() const { return server_->address(); }
  void stop() { server_->stop(); }

 private:
  Bytes dispatch(const Bytes& request);

  std::mutex mutex_;
  std::map<std::string, Handler> procedures_;
  std::unique_ptr<Server> server_;
};

class RpcClient {
 public:
  RpcClient(Network& net, int host) : client_(net, host) {}

  support::Status connect(const Address& server) { return client_.connect(server); }

  /// Calls a remote procedure; kNotFound if it is not registered remotely,
  /// kAborted if the remote handler threw.
  support::Result<Bytes> call(const std::string& name, const Bytes& payload);
  support::Result<std::string> call_text(const std::string& name,
                                         const std::string& payload);

 private:
  Client client_;
};

}  // namespace pdc::net
