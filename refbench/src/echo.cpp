// echo: one event-driven net::Server echoing 64-byte payloads. Four
// connections each keep a window of 16 requests outstanding, so the
// server never idles. The serving plane does all the work (fabric,
// MessageCodec, readiness loop, shard drain, work-stealing pool) and
// dist/obs do none: a Raft or obs change must read "no change" here.
#include <cstring>

#include "net/server.hpp"
#include "workloads.hpp"

namespace refbench {

namespace {

constexpr std::size_t kConns = 4;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kPool = 1024;  // distinct payloads per connection
constexpr std::uint16_t kPort = 7000;
constexpr int kServerHost = 0;
constexpr int kClientHost = 1;
constexpr std::uint64_t kWarmIdBase = std::uint64_t{1} << 40;

std::uint64_t id_of(const std::byte* data) {
  std::uint64_t id = 0;
  std::memcpy(&id, data, sizeof id);
  return id;
}

/// Request k of a connection is its pool payload k % kPool with the first
/// eight bytes replaced by the request id: every request in flight is
/// distinct, and the server can name the request a span belongs to.
class EchoTraffic : public Traffic {
 public:
  EchoTraffic(const std::vector<net::Bytes>& pool, std::uint64_t fault_id)
      : pool_(pool), fault_id_(fault_id), next_(kConns, 0),
        expected_(kConns) {}

  void make_request(std::size_t conn, std::uint64_t id,
                    net::Bytes& payload) override {
    const std::size_t slot = next_[conn]++ % kPool;
    const net::Bytes& base = pool_[conn * kPool + slot];
    payload.assign(base.begin(), base.end());
    std::memcpy(payload.data(), &id, sizeof id);
    expected_[conn].push_back(Expected{id, slot});
    // Self-test: the server echoes the flipped byte and the byte-for-byte
    // check below must catch it.
    if (id == fault_id_) payload.back() ^= std::byte{1};
  }

  bool check_reply(std::size_t conn, net::BytesView reply) override {
    const Expected want = expected_[conn].front();
    expected_[conn].pop_front();
    const net::Bytes& base = pool_[conn * kPool + want.slot];
    return reply.size == kPayload && id_of(reply.data) == want.id &&
           std::memcmp(reply.data + sizeof want.id,
                       base.data() + sizeof want.id,
                       kPayload - sizeof want.id) == 0;
  }

 private:
  struct Expected {
    std::uint64_t id;
    std::size_t slot;
  };

  const std::vector<net::Bytes>& pool_;
  std::uint64_t fault_id_;
  std::vector<std::size_t> next_;
  std::vector<std::deque<Expected>> expected_;
};

class EchoBench : public Bench {
 public:
  EchoBench(std::uint64_t seed, bool smoke)
      : warm_per_conn_(smoke ? 100 : 2'500),
        timed_per_conn_(smoke ? 500 : 25'000) {
    SplitMix rng(seed ^ 0xec40ec40ec40ec40ULL);
    pool_.resize(kConns * kPool);
    for (net::Bytes& payload : pool_) {
      payload.resize(kPayload);
      for (std::size_t i = 0; i < kPayload; i += 8) {
        const std::uint64_t word = rng.next();
        std::memcpy(payload.data() + i, &word, 8);
      }
    }
  }

  [[nodiscard]] std::uint64_t timed_requests() const override {
    return timed_per_conn_ * kConns;
  }

  RoundResult round(const RoundEnv& env) override {
    RoundResult result;
    const std::int64_t setup_start = now_ns();
    net::NetConfig net_config;
    net_config.latency_ms = 0.0;
    net::Network net(2, net_config);
    Tracing tracing;
    net::ServerConfig config;
    config.model = net::ThreadingModel::kEventDriven;
    config.workers = kWorkers;
    config.view_handler = [&tracing](net::BytesView request) {
      SpanTable* spans = tracing.table();
      const std::int64_t start = spans != nullptr ? now_ns() : 0;
      net::Bytes reply = request.to_owned();
      if (spans != nullptr && request.size >= sizeof(std::uint64_t)) {
        spans->record(id_of(request.data), kHandler, start, now_ns());
      }
      return reply;
    };
    net::Server server(net, kServerHost, kPort, nullptr, config);
    {
      const std::vector<net::Address> targets(kConns, server.address());
      ClosedLoopClient client(net, kClientHost, targets, kWindow);
      const std::uint64_t fault_id =
          env.inject_fault ? timed_requests() / 2 : ~std::uint64_t{0};
      EchoTraffic traffic(pool_, fault_id);

      Phase warm;
      warm.per_conn = warm_per_conn_;
      warm.first_id = kWarmIdBase;
      result.count(client.run(traffic, warm));
      result.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

      Phase timed;
      timed.per_conn = timed_per_conn_;
      result.run_timed(client, traffic, timed, env, tracing);
    }
    server.stop();
    result.check_frames();
    return result;
  }

 private:
  std::uint64_t warm_per_conn_;
  std::uint64_t timed_per_conn_;
  std::vector<net::Bytes> pool_;
};

}  // namespace

std::unique_ptr<Bench> make_echo(std::uint64_t seed, bool smoke) {
  return std::make_unique<EchoBench>(seed, smoke);
}

}  // namespace refbench
