// The KV workloads: a 3-rank dist::ReplicatedKV on mp::World, each rank
// behind its own event-driven net::Server speaking a small text protocol
//
//   "<id> PUT <key> <value>"  ->  "OK"
//   "<id> GET <key>"          ->  "VALUE <value>" | "ABSENT"
//
// (a KV call that times out answers "TIMEOUT"). The client keeps one
// connection per rank with one request outstanding on each; a follower's
// handler forwards through its ReplicatedKV client to the leader over mp,
// as KV clients do, so up to three writes are in flight at the leader.
//
//   kv_mixed        50/50 put/get: the full reference path.
//   kv_read_mostly  95/5 get/put: mostly read-index reads (one heartbeat
//                   round, no log write).
//   kv_observed     kv_mixed with observability running: every frame
//                   carries a SpanContext into a running SpanCollector, a
//                   TimeSeriesStore is sampled and a SloMonitor evaluated
//                   every kObsTickOps requests, and /metrics is fetched
//                   from a TelemetryServer every kScrapeEveryTicks ticks.
#include <array>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "dist/replicated_kv.hpp"
#include "mp/world.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/tsdb.hpp"
#include "workloads.hpp"

namespace refbench {

namespace {

constexpr int kRanks = 3;
constexpr std::uint16_t kPort = 7000;
constexpr int kClientHost = 3;
constexpr int kObsHost = 4;
constexpr std::uint16_t kTelemetryPort = 9100;
constexpr std::size_t kKeysPerConn = 64;
constexpr std::uint64_t kWarmIdBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kObsTickOps = 256;
constexpr std::uint64_t kScrapeEveryTicks = 4;
constexpr auto kReadyTimeout = std::chrono::seconds(10);

/// The KV configuration every rank runs: the program's defaults, except
/// that the client waits up to 10 s instead of 400 ms before giving up on
/// a request. Under host CPU contention a follower can fall behind and the
/// leader then re-ships its unacknowledged window on every submit (the
/// roadmap's Raft pipeline item): single requests took up to 1.9 s, and
/// with the 400 ms default 2 of 40 twenty-second runs failed on one
/// timed-out request. With the longer wait such a stall shows as latency
/// (p999, the slowest request and the round's throughput are printed) and
/// in raft.appends_per_op, instead of failing the run.
dist::KvConfig kv_config(std::uint64_t raft_seed) {
  dist::KvConfig config;
  config.raft.seed = raft_seed;
  config.op_timeout_ms = 10'000.0;
  return config;
}

struct KvOp {
  bool put = false;
  std::uint32_t key = 0;  // index within the connection's key range
  std::string value;      // put only; unique across the run
};

using OpLists = std::vector<std::vector<KvOp>>;  // one list per connection

/// Each connection owns a disjoint key range, and with one request
/// outstanding per connection the last acknowledged PUT of a key is the
/// only value a GET of it may return.
class KvModel {
 public:
  explicit KvModel(const std::vector<std::string>& keys)
      : keys_(keys), values_(keys.size()) {}
  [[nodiscard]] const std::string& key(std::size_t conn,
                                       std::uint32_t k) const {
    return keys_[conn * kKeysPerConn + k];
  }
  [[nodiscard]] const std::string& value(std::size_t conn,
                                         std::uint32_t k) const {
    return values_[conn * kKeysPerConn + k];
  }
  void acknowledge(std::size_t conn, const KvOp& op) {
    values_[conn * kKeysPerConn + op.key] = op.value;
  }

 private:
  const std::vector<std::string>& keys_;
  std::vector<std::string> values_;  // "" = absent; values are never empty
};

class KvTraffic : public Traffic {
 public:
  KvTraffic(const OpLists& ops, KvModel& model, std::uint64_t fault_id)
      : ops_(ops), model_(model), fault_id_(fault_id),
        next_(ops.size(), 0), pending_(ops.size(), nullptr),
        expected_(ops.size()) {}

  void make_request(std::size_t conn, std::uint64_t id,
                    net::Bytes& payload) override {
    const KvOp& op = ops_[conn][next_[conn]++];
    pending_[conn] = &op;
    std::uint32_t key = op.key;
    std::string& expect = expected_[conn];
    if (op.put) {
      expect = "OK";
    } else {
      const std::string& value = model_.value(conn, key);
      expect = value.empty() ? "ABSENT" : "VALUE " + value;
      // Self-test: ask for the neighbouring key (preloaded with another
      // value) while expecting this one; the check below must catch it.
      if (id >= fault_id_) {
        key = (key + 1) % kKeysPerConn;
        fault_id_ = ~std::uint64_t{0};
      }
    }
    text_ = std::to_string(id);
    text_ += op.put ? " PUT " : " GET ";
    text_ += model_.key(conn, key);
    if (op.put) {
      text_ += ' ';
      text_ += op.value;
    }
    const auto* bytes = reinterpret_cast<const std::byte*>(text_.data());
    payload.assign(bytes, bytes + text_.size());
  }

  bool check_reply(std::size_t conn, net::BytesView reply) override {
    const std::string& expect = expected_[conn];
    const bool ok = reply.size == expect.size() &&
                    std::memcmp(reply.data, expect.data(), reply.size) == 0;
    if (ok && pending_[conn]->put) model_.acknowledge(conn, *pending_[conn]);
    return ok;
  }

 private:
  const OpLists& ops_;
  KvModel& model_;
  std::uint64_t fault_id_;
  std::vector<std::size_t> next_;
  std::vector<const KvOp*> pending_;
  std::vector<std::string> expected_;
  std::string text_;
};

/// One request handed from a server handler (pool worker) to the rank's
/// pump thread, which owns the rank's ReplicatedKV.
struct LiveOp {
  std::uint64_t id = 0;
  bool put = false;
  std::string key;
  std::string value;
  obs::SpanContext ctx;  // the server's server.drain span, when traced
  SpanTable* spans = nullptr;
  std::int64_t enqueued_ns = 0;
  std::string reply;
  bool done = false;  // guarded by the plane mutex
};

struct Plane {
  std::mutex mutex;
  std::condition_variable answered;
  std::deque<LiveOp*> ops;
  std::atomic<std::size_t> queued{0};  // lets an idle pump skip the lock
  bool closed = false;                 // the pump has stopped serving
};

bool parse_request(net::BytesView request, LiveOp& op) {
  std::string_view text(reinterpret_cast<const char*>(request.data),
                        request.size);
  auto token = [&text]() {
    const std::size_t space = text.find(' ');
    const std::string_view head = text.substr(0, space);
    text = space == std::string_view::npos ? std::string_view{}
                                           : text.substr(space + 1);
    return head;
  };
  const std::string_view id = token();
  const std::string_view verb = token();
  if (id.empty()) return false;
  for (const char digit : id) {
    if (digit < '0' || digit > '9') return false;
    op.id = op.id * 10 + static_cast<std::uint64_t>(digit - '0');
  }
  op.key = std::string(token());
  if (op.key.empty()) return false;
  if (verb == "PUT") {
    op.put = true;
    op.value = std::string(token());
    return !op.value.empty();
  }
  return verb == "GET";
}

/// Three ranks, each pumping its ReplicatedKV behind an event-driven
/// server. Spawned on construction; stop() joins.
class KvCluster {
 public:
  KvCluster(net::Network& net, std::uint64_t raft_seed, Tracing& tracing)
      : net_(net), tracing_(tracing), raft_seed_(raft_seed),
        storage_(kRanks), world_(kRanks) {
    thread_ = std::thread([this] {
      try {
        world_.run([this](mp::Communicator& comm) { rank_body(comm); });
      } catch (const std::exception& error) {
        const std::scoped_lock lock(error_mutex_);
        error_ = error.what();
      }
    });
  }
  ~KvCluster() { stop(); }
  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;

  /// Waits until every server listens and a leader is elected.
  bool wait_ready() {
    const auto deadline = std::chrono::steady_clock::now() + kReadyTimeout;
    while (ready_.load() < kRanks || leader_.load() < 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  [[nodiscard]] static std::vector<net::Address> addresses() {
    std::vector<net::Address> out;
    for (int rank = 0; rank < kRanks; ++rank) {
      out.push_back(net::Address{rank, kPort});
    }
    return out;
  }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::string error() {
    const std::scoped_lock lock(error_mutex_);
    return error_;
  }

 private:
  void rank_body(mp::Communicator& comm) {
    const int rank = comm.rank();
    Plane& plane = planes_[static_cast<std::size_t>(rank)];
    dist::ReplicatedKV kv(comm, storage_[static_cast<std::size_t>(rank)],
                          kv_config(raft_seed_));
    net::ServerConfig server_config;
    server_config.model = net::ThreadingModel::kEventDriven;
    server_config.workers = 1;
    server_config.view_handler = [this, &plane](net::BytesView request) {
      return handle(plane, request);
    };
    net::Server server(net_, rank, kPort, nullptr, server_config);
    ready_.fetch_add(1);

    while (!stop_.load(std::memory_order_relaxed)) {
      if (kv.is_leader()) leader_.store(rank, std::memory_order_relaxed);
      LiveOp* op = plane.queued.load(std::memory_order_acquire) != 0
                       ? pop(plane)
                       : nullptr;
      if (op != nullptr) {
        serve(kv, plane, *op);
      } else {
        kv.step();
        std::this_thread::yield();
      }
    }
    {
      const std::scoped_lock lock(plane.mutex);
      plane.closed = true;  // later requests are refused, not queued
    }
    while (LiveOp* op = pop(plane)) serve(kv, plane, *op);
    server.stop();
  }

  static LiveOp* pop(Plane& plane) {
    const std::scoped_lock lock(plane.mutex);
    if (plane.ops.empty()) return nullptr;
    LiveOp* op = plane.ops.front();
    plane.ops.pop_front();
    plane.queued.fetch_sub(1, std::memory_order_relaxed);
    return op;
  }

  net::Bytes handle(Plane& plane, net::BytesView request) {
    SpanTable* spans = tracing_.table();
    const std::int64_t start = spans != nullptr ? now_ns() : 0;
    LiveOp op;
    if (!parse_request(request, op)) return net::to_bytes("ERR bad request");
    op.ctx = obs::current_span();
    op.spans = spans;
    {
      std::unique_lock lock(plane.mutex);
      if (plane.closed) return net::to_bytes("ERR stopping");
      if (spans != nullptr) op.enqueued_ns = now_ns();
      plane.ops.push_back(&op);
      plane.queued.fetch_add(1, std::memory_order_release);
      plane.answered.wait(lock, [&op] { return op.done; });
    }
    const auto* bytes = reinterpret_cast<const std::byte*>(op.reply.data());
    net::Bytes reply(bytes, bytes + op.reply.size());
    if (spans != nullptr) spans->record(op.id, kHandler, start, now_ns());
    return reply;
  }

  static void serve(dist::ReplicatedKV& kv, Plane& plane, LiveOp& op) {
    const std::int64_t picked = op.spans != nullptr ? now_ns() : 0;
    std::string reply;
    {
      // Sends the KV client makes join the request's trace.
      obs::SpanScope scope(op.ctx);
      const dist::KvResult result =
          op.put ? kv.put(op.key, op.value) : kv.get(op.key);
      if (op.spans != nullptr) {
        op.spans->record(op.id, kQueue, op.enqueued_ns, picked);
        op.spans->record(op.id, op.put ? kPut : kGet, picked, now_ns());
      }
      if (result.timed_out()) {
        reply = "TIMEOUT";
      } else if (op.put) {
        reply = result.ok() ? "OK" : dist::to_string(result.status);
      } else {
        reply = result.ok() ? "VALUE " + result.value : "ABSENT";
      }
    }
    {
      const std::scoped_lock lock(plane.mutex);
      op.reply = std::move(reply);
      op.done = true;
    }
    plane.answered.notify_all();
  }

  net::Network& net_;
  Tracing& tracing_;
  std::uint64_t raft_seed_;
  std::vector<dist::RaftPersistentState> storage_;
  std::array<Plane, kRanks> planes_;
  std::atomic<int> leader_{-1};
  std::atomic<int> ready_{0};
  std::atomic<bool> stop_{false};
  mp::World world_;
  std::mutex error_mutex_;
  std::string error_;
  std::thread thread_;
};

/// The observability plane of kv_observed. The client calls tick() every
/// kObsTickOps completed requests; a separate thread runs each tick, so
/// the calls compete with the reference path for the processors the way
/// a sampler and a scraper would.
class ObsPlane {
 public:
  explicit ObsPlane(net::Network& net)
      : telemetry_(net, kObsHost, kTelemetryPort), client_(net, kObsHost) {
    collector_.start();
    for (obs::SloRule& rule : dist::ReplicatedKV::default_slo_rules()) {
      slo_.add_rule(std::move(rule));
    }
    for (obs::SloRule& rule : net::Server::default_slo_rules()) {
      slo_.add_rule(std::move(rule));
    }
    telemetry_.attach_spans(&collector_);
    telemetry_.attach_tsdb(&tsdb_);
    telemetry_.attach_slo(&slo_);
    connected_ = client_.connect(telemetry_.address()).is_ok();
    ok_ = connected_;
    thread_ = std::thread([this] { loop(); });
  }
  ~ObsPlane() { finish(); }
  ObsPlane(const ObsPlane&) = delete;
  ObsPlane& operator=(const ObsPlane&) = delete;

  void tick() {
    {
      const std::scoped_lock lock(mutex_);
      ++queued_;
    }
    cv_.notify_all();
  }

  /// Waits until every queued tick ran; returns their times and resets.
  ObsTimes drain() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return done_ == queued_; });
    return std::exchange(times_, ObsTimes{});
  }

  /// Stops the tick thread, the telemetry server and the collector.
  /// Returns false when a tick failed to fetch /metrics.
  bool finish() {
    {
      const std::scoped_lock lock(mutex_);
      if (stopping_) return ok_;
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    client_.close();
    telemetry_.stop();
    collector_.stop();
    return ok_;
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return stopping_ || done_ < queued_; });
      if (done_ == queued_) return;  // stopping and drained
      const std::uint64_t tick = done_;
      lock.unlock();

      ObsTimes times;
      const std::int64_t t0 = now_ns();
      tsdb_.sample_once();
      const std::int64_t t1 = now_ns();
      slo_.evaluate(obs::now_us());
      const std::int64_t t2 = now_ns();
      times.tsdb_tick_us = static_cast<double>(t1 - t0) / 1e3;
      times.slo_eval_us = static_cast<double>(t2 - t1) / 1e3;
      times.ticks = 1;
      bool ok = true;
      if (tick % kScrapeEveryTicks == 0) {
        const auto snapshot = obs::MetricsRegistry::instance().scrape();
        const std::int64_t t3 = now_ns();
        const auto body = connected_ ? client_.get("/metrics")
                                     : support::Result<std::string>(
                                           support::Status{
                                               support::StatusCode::kClosed,
                                               "not connected"});
        const std::int64_t t4 = now_ns();
        ok = !snapshot.samples.empty() && body.is_ok() &&
             body.value().find("pdc_kv_ops") != std::string::npos;
        times.scrape_us = static_cast<double>(t3 - t2) / 1e3;
        times.metrics_get_us = static_cast<double>(t4 - t3) / 1e3;
        times.scrapes = 1;
      }

      lock.lock();
      times_ += times;
      ok_ = ok_ && ok;
      ++done_;
      cv_.notify_all();
    }
  }

  obs::SpanCollector collector_;
  obs::TimeSeriesStore tsdb_;
  obs::SloMonitor slo_{&tsdb_};
  obs::TelemetryServer telemetry_;
  obs::TelemetryClient client_;
  bool connected_ = false;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t queued_ = 0;  // guarded by mutex_, like everything below
  std::uint64_t done_ = 0;
  bool stopping_ = false;
  bool ok_ = true;
  ObsTimes times_;
  std::thread thread_;
};

class KvBench : public Bench {
 public:
  KvBench(Workload workload, std::uint64_t seed, bool smoke)
      : observed_(workload == Workload::kKvObserved), seed_(seed) {
    const std::uint64_t get_per_mille =
        workload == Workload::kKvReadMostly ? 950 : 500;
    const std::size_t warm = smoke ? 50 : 300;
    const std::size_t timed = smoke ? 300 : 5'000;
    SplitMix rng(seed ^ 0x6b76'6b76'6b76'6b76ULL);
    std::uint64_t serial = 0;
    auto value = [&rng, &serial] {
      return "v" + std::to_string(serial++) + "." +
             std::to_string(rng.next() % 1'000'000'007ULL);
    };
    auto mix = [&](std::size_t n) {
      std::vector<KvOp> ops(n);
      for (KvOp& op : ops) {
        op.put = rng.below(1000) >= get_per_mille;
        op.key = static_cast<std::uint32_t>(rng.below(kKeysPerConn));
        if (op.put) op.value = value();
      }
      return ops;
    };
    for (int conn = 0; conn < kRanks; ++conn) {
      std::vector<KvOp> preload(kKeysPerConn);
      for (std::uint32_t k = 0; k < kKeysPerConn; ++k) {
        keys_.push_back("c" + std::to_string(conn) + "k" + std::to_string(k));
        preload[k] = KvOp{true, k, value()};
      }
      preload_.push_back(std::move(preload));
      warm_.push_back(mix(warm));
      timed_.push_back(mix(timed));
    }
  }

  [[nodiscard]] std::uint64_t timed_requests() const override {
    return timed_.front().size() * kRanks;
  }

  RoundResult round(const RoundEnv& env) override {
    RoundResult result;
    const std::int64_t setup_start = now_ns();
    const Counters round_start = Counters::read();
    net::NetConfig net_config;
    net_config.latency_ms = 0.0;
    net::Network net(kObsHost + 1, net_config);
    Tracing tracing;
    std::unique_ptr<ObsPlane> obs_plane;
    if (observed_) obs_plane = std::make_unique<ObsPlane>(net);
    KvCluster cluster(net, SplitMix(seed_ * 1'000'003 + env.index).next(),
                      tracing);
    if (!cluster.wait_ready()) {
      result.violations.push_back("no KV leader within 10 s: " +
                                  cluster.error());
    } else {
      ClosedLoopClient client(net, kClientHost, KvCluster::addresses(), 1);
      KvModel model(keys_);
      Phase setup;
      setup.program_spans = observed_;
      setup.first_id = kWarmIdBase;
      setup.per_conn = kKeysPerConn;
      KvTraffic preload(preload_, model, ~std::uint64_t{0});
      result.count(client.run(preload, setup));
      setup.per_conn = warm_.front().size();
      KvTraffic warm(warm_, model, ~std::uint64_t{0});
      result.count(client.run(warm, setup));
      if (obs_plane) {
        obs_plane->tick();  // the first sample builds the TSDB plan
        obs_plane->drain();
      }
      result.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

      Phase timed;
      timed.per_conn = timed_.front().size();
      timed.program_spans = observed_;
      if (obs_plane) {
        timed.tick_every = kObsTickOps;
        timed.tick = [&obs_plane] { obs_plane->tick(); };
      }
      KvTraffic traffic(timed_, model,
                        env.inject_fault ? timed_requests() / 2
                                         : ~std::uint64_t{0});
      result.run_timed(client, traffic, timed, env, tracing);
      if (obs_plane) result.obs = obs_plane->drain();
    }
    cluster.stop();
    if (const std::string error = cluster.error(); !error.empty()) {
      result.violations.push_back("KV rank failed: " + error);
    }
    result.check_frames();
    if (obs_plane) {
      if (!obs_plane->finish()) {
        result.violations.push_back("telemetry: /metrics fetch failed");
      }
      const Counters spans = Counters::read() - round_start;
      if (spans.spans_sampled + spans.spans_dropped != spans.spans_finished) {
        result.violations.push_back(
            "span ledger: pdc.span.sampled " +
            std::to_string(spans.spans_sampled) + " + dropped " +
            std::to_string(spans.spans_dropped) + " != finished " +
            std::to_string(spans.spans_finished));
      }
    }
    return result;
  }

 private:
  bool observed_;
  std::uint64_t seed_;
  std::vector<std::string> keys_;
  OpLists preload_;
  OpLists warm_;
  OpLists timed_;
};

}  // namespace

std::unique_ptr<Bench> make_kv(Workload workload, std::uint64_t seed,
                               bool smoke) {
  return std::make_unique<KvBench>(workload, seed, smoke);
}

}  // namespace refbench
