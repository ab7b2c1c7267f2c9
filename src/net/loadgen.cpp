#include "net/loadgen.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "net/framing.hpp"
#include "net/server.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pdc::net {

namespace {

constexpr std::size_t kConnectWave = 8192;  // in-flight connect_async cap
constexpr std::size_t kRateBins = 2048;     // inverse-CDF resolution

/// Relative arrival rate of curve `curve` at normalized time x in [0, 1).
double rate_at(const LoadGenConfig& config, double x) {
  switch (config.curve) {
    case ArrivalCurve::kConstant:
      return 1.0;
    case ArrivalCurve::kDiurnal:
      // One "day" compressed into the window; clamped so the trough never
      // goes fully quiet (real diurnal traffic doesn't either).
      return std::max(0.05,
                      1.0 + config.diurnal_amplitude *
                                std::sin(2.0 * 3.14159265358979323846 * x));
    case ArrivalCurve::kBurst: {
      // `bursts` evenly spaced windows, each 5% of the run, at
      // burst_height times the baseline.
      const int n = std::max(1, config.bursts);
      for (int j = 0; j < n; ++j) {
        const double center = (j + 0.5) / n;
        if (std::abs(x - center) < 0.025) {
          return std::max(1.0, config.burst_height);
        }
      }
      return 1.0;
    }
    case ArrivalCurve::kThunderingHerd: {
      // Near-silent baseline; the single bin holding each herd's center
      // carries an enormous weight, so almost all requests land at the
      // spike instants.
      const int n = std::max(1, config.herds);
      const auto bin = static_cast<std::size_t>(x * kRateBins);
      for (int j = 0; j < n; ++j) {
        const double center = (j + 0.5) / n;
        const auto spike = std::min<std::size_t>(
            kRateBins - 1, static_cast<std::size_t>(center * kRateBins));
        if (bin == spike) return static_cast<double>(kRateBins);
      }
      return 0.02;
    }
  }
  return 1.0;
}

/// One in-flight request: its scheduled time, and (when tracing) the
/// root span closed on reply arrival.
struct PendingShot {
  double at = 0.0;
  obs::ActiveSpan span;
};

/// One connection as a driver thread sees it.
struct GenConn {
  StreamSocket socket;
  Bytes rx;                     // reply bytes, frames parsed in place
  std::size_t off = 0;          // parse offset
  std::vector<PendingShot> pending;  // unanswered requests, send order
  std::size_t pending_head = 0; // replies arrive in order
  bool alive = false;
};

struct DriverResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t closed_early = 0;
  obs::Histogram::Snapshot latency;
  obs::Histogram::Snapshot send_lag;
};

}  // namespace

std::vector<double> LoadGen::arrival_times(const LoadGenConfig& config) {
  std::vector<double> times;
  if (config.requests == 0) return times;
  times.reserve(config.requests);
  // Discretize the rate curve, then invert its CDF with one monotone walk
  // (targets are increasing, so the whole schedule is O(requests + bins)).
  std::array<double, kRateBins> weight{};
  double total = 0.0;
  for (std::size_t b = 0; b < kRateBins; ++b) {
    weight[b] = rate_at(config, (static_cast<double>(b) + 0.5) / kRateBins);
    total += weight[b];
  }
  std::size_t bin = 0;
  double cumulative = weight[0];
  for (std::size_t i = 0; i < config.requests; ++i) {
    const double target =
        (static_cast<double>(i) + 0.5) / static_cast<double>(config.requests) *
        total;
    while (cumulative < target && bin + 1 < kRateBins) {
      ++bin;
      cumulative += weight[bin];
    }
    // Interpolate inside the bin: how much of this bin's weight was still
    // unconsumed when the target fell into it.
    const double into = 1.0 - std::min(1.0, (cumulative - target) / weight[bin]);
    times.push_back(config.duration_s * (static_cast<double>(bin) + into) /
                    static_cast<double>(kRateBins));
  }
  return times;
}

LoadGenReport LoadGen::run(const LoadGenConfig& config) {
  PDC_CHECK(config.connections >= 1);
  PDC_CHECK(config.drivers >= 1);
  PDC_CHECK(config.client_hosts >= 1);
  LoadGenReport report;

  // ---- Discovery phase: follow redirects to the leader. -----------------
  Address target = server_;
  if (config.route_to_leader) {
    PDC_CHECK_MSG(config.probe_request != nullptr &&
                      config.redirect_of != nullptr,
                  "route_to_leader needs probe_request and redirect_of");
    if (!config.cluster.empty()) target = config.cluster.front();
    std::size_t fallback = 0;
    for (std::size_t hop = 0; hop < config.max_redirect_hops; ++hop) {
      std::optional<Address> redirect;
      bool probed = false;
      Client probe(net_, config.first_client_host);
      if (probe.connect(target).is_ok()) {
        auto reply = probe.call(config.probe_request());
        if (reply.is_ok()) {
          probed = true;
          redirect = config.redirect_of(reply.value());
        }
        probe.close();
      }
      if (probed && !redirect.has_value()) break;  // target claims leadership
      if (probed) {
        target = redirect.value();
        ++report.redirects;
      } else if (!config.cluster.empty()) {
        // Dead or unreachable candidate: rotate to the next one.
        fallback = (fallback + 1) % config.cluster.size();
        target = config.cluster[fallback];
        ++report.redirects;
      }
    }
  }
  report.target = target;

  // ---- Connect phase: async waves, no serial round-trip waits. ----------
  std::vector<StreamSocket> sockets(config.connections);
  {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t completed = 0;
    std::uint64_t failures = 0;
    std::size_t issued = 0;
    while (issued < config.connections) {
      const std::size_t wave =
          std::min(kConnectWave, config.connections - issued);
      for (std::size_t k = 0; k < wave; ++k) {
        const std::size_t slot = issued + k;
        const int host = config.first_client_host +
                         static_cast<int>(slot %
                                          static_cast<std::size_t>(
                                              config.client_hosts));
        net_.connect_async(
            host, target,
            [&, slot](support::Result<StreamSocket> result) {
              std::scoped_lock lock(mutex);
              if (result.is_ok()) {
                sockets[slot] = std::move(result).value();
              } else {
                ++failures;
              }
              ++completed;
              // Notify under the lock: run()'s stack owns the CV.
              cv.notify_one();
            });
      }
      issued += wave;
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return completed == issued; });
    }
    report.connect_failures = failures;
    report.connected = config.connections - failures;
  }

  // ---- Schedule phase: deterministic arrivals, round-robin over conns. --
  const std::vector<double> schedule = arrival_times(config);
  struct Shot {
    double at;
    std::uint32_t conn;  // index into the driver's partition
    std::uint64_t seq;   // global request sequence (trace id = seq + 1)
  };
  // Conn i belongs to driver i % drivers; its local index is i / drivers.
  std::vector<std::vector<Shot>> plans(config.drivers);
  std::vector<std::vector<GenConn>> partitions(config.drivers);
  for (std::size_t d = 0; d < config.drivers; ++d) {
    const std::size_t local =
        (config.connections + config.drivers - 1 - d) / config.drivers;
    partitions[d].resize(local);
    plans[d].reserve(schedule.size() / config.drivers + 1);
  }
  for (std::size_t i = 0; i < config.connections; ++i) {
    GenConn& conn = partitions[i % config.drivers][i / config.drivers];
    conn.socket = std::move(sockets[i]);
    conn.alive = conn.socket.valid();
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::size_t conn = i % config.connections;
    plans[conn % config.drivers].push_back(
        Shot{schedule[i], static_cast<std::uint32_t>(conn / config.drivers),
             static_cast<std::uint64_t>(i)});
  }

  // One request template for the whole run: the framed wire bytes are
  // identical for every request, so encode once and reuse the buffer.
  // Tracing or a request_of builder switches to per-request encoding.
  Bytes wire;
  Bytes template_payload(config.payload_bytes);
  {
    support::Rng rng(config.seed);
    for (auto& b : template_payload) {
      b = static_cast<std::byte>(rng.next_u64() & 0xff);
    }
    MessageCodec::encode_message(template_payload, wire);
  }

  // ---- Drive phase. -----------------------------------------------------
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t t0_us = obs::now_us();  // span-clock origin of the run
  auto elapsed_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const bool tracing = config.trace && obs::span_enabled();
  const bool per_request = tracing || config.request_of != nullptr;
  std::vector<DriverResult> results(config.drivers);
  std::vector<std::thread> threads;
  threads.reserve(config.drivers);
  for (std::size_t d = 0; d < config.drivers; ++d) {
    threads.emplace_back([&, d] {
      std::vector<GenConn>& conns = partitions[d];
      const std::vector<Shot>& plan = plans[d];
      DriverResult& result = results[d];
      obs::Histogram latency;
      obs::Histogram send_lag;
      ReadySet ready;
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (conns[c].alive) conns[c].socket.watch(&ready, c);
      }
      std::uint64_t outstanding = 0;
      std::size_t next = 0;
      std::vector<std::uint64_t> tags;
      auto drain_conn = [&](GenConn& conn) {
        if (!conn.alive) return;
        const auto drained = conn.socket.try_recv_into(conn.rx);
        for (;;) {
          BytesView reply;
          if (MessageCodec::scan_message(conn.rx, conn.off, reply) !=
              MessageCodec::Scan::kFrame) {
            break;
          }
          // Replies are in order on a stream: this reply answers the
          // oldest pending request. Open-loop latency counts from the
          // SCHEDULED time — queueing delay lands in the tail.
          PendingShot& shot = conn.pending[conn.pending_head++];
          latency.record((elapsed_s() - shot.at) * 1e6);
          obs::span_end(shot.span);
          ++result.received;
          --outstanding;
        }
        if (conn.off == conn.rx.size()) {
          conn.rx.clear();
          conn.off = 0;
        }
        if (drained.closed) {
          const auto lost = conn.pending.size() - conn.pending_head;
          result.closed_early += lost;
          outstanding -= lost;
          conn.alive = false;
          conn.socket.unwatch();
          // Requests that died with the connection close as error spans —
          // exactly the traces tail sampling must keep.
          while (conn.pending_head < conn.pending.size()) {
            obs::span_end(conn.pending[conn.pending_head++].span,
                          /*error=*/true);
          }
        } else {
          conn.socket.rearm();
        }
      };
      for (;;) {
        const double now_s = elapsed_s();
        while (next < plan.size() && plan[next].at <= now_s) {
          GenConn& conn = conns[plan[next].conn];
          obs::ActiveSpan root;
          const Bytes* frame = &wire;
          Bytes encoded;
          if (per_request) {
            if (tracing) {
              // Root backdated to the scheduled time: send-queue lag is
              // part of the request's story. client.queue covers exactly
              // that stretch (scheduled -> this send).
              const std::uint64_t sched_us =
                  t0_us + static_cast<std::uint64_t>(plan[next].at * 1e6);
              root = obs::span_root("request", plan[next].seq + 1, sched_us);
              obs::ActiveSpan queue =
                  obs::span_begin("client.queue", root.context(), sched_us);
              obs::span_end(queue);
            }
            const Bytes payload = config.request_of != nullptr
                                      ? config.request_of(plan[next].seq)
                                      : template_payload;
            MessageCodec::encode_message(payload, encoded, root.context());
            frame = &encoded;
          }
          if (conn.alive && conn.socket.send(*frame).is_ok()) {
            conn.pending.push_back(PendingShot{plan[next].at, std::move(root)});
            send_lag.record((now_s - plan[next].at) * 1e6);
            ++result.sent;
            ++outstanding;
          } else {
            ++result.closed_early;
            obs::span_end(root, /*error=*/true);
          }
          ++next;
        }
        const bool all_sent = next == plan.size();
        if (all_sent && outstanding == 0) break;
        if (now_s > config.duration_s + config.grace_s) break;
        const bool due_now = !all_sent && plan[next].at <= elapsed_s();
        tags.clear();
        ready.poll(tags, due_now ? std::chrono::milliseconds(0)
                                 : std::chrono::milliseconds(1));
        for (const std::uint64_t tag : tags) drain_conn(conns[tag]);
      }
      // Graceful teardown; unwatch first — the ReadySet dies with this
      // frame, the connection state may outlive it on the server side.
      for (auto& conn : conns) {
        if (conn.alive) {
          conn.socket.unwatch();
          conn.socket.close();
        }
        // Grace expired with replies still outstanding: close their root
        // spans as errors so the span ledger balances.
        while (conn.pending_head < conn.pending.size()) {
          obs::span_end(conn.pending[conn.pending_head++].span,
                        /*error=*/true);
        }
      }
      result.latency = latency.snapshot();
      result.send_lag = send_lag.snapshot();
    });
  }
  for (auto& t : threads) t.join();
  report.elapsed_s = elapsed_s();

  obs::Histogram::Snapshot latency;
  obs::Histogram::Snapshot send_lag;
  for (const DriverResult& result : results) {
    report.sent += result.sent;
    report.received += result.received;
    report.closed_early += result.closed_early;
    latency.merge(result.latency);
    send_lag.merge(result.send_lag);
  }
  report.latency = latency;
  report.rps = report.elapsed_s > 0.0
                   ? static_cast<double>(report.received) / report.elapsed_s
                   : 0.0;
  report.mean_us = latency.mean();
  report.p50_us = latency.quantile(0.50);
  report.p99_us = latency.quantile(0.99);
  report.p999_us = latency.quantile(0.999);
  report.send_lag_p99_us = send_lag.quantile(0.99);
  return report;
}

}  // namespace pdc::net
