// refbench: closed-loop benchmark of PDCkit's reference path
// (client -> frame codec -> event-driven net::Server -> dist::ReplicatedKV
// -> dist::RaftNode -> apply -> reply). This header holds the pieces the
// workloads share: the benchmark's own generator, the per-request span
// table and the pdc.* counter reads.
// README.md beside this directory explains the workloads and metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pdc::dist {}
namespace pdc::mp {}
namespace pdc::net {}
namespace pdc::obs {}
namespace pdc::support {}

namespace refbench {

namespace dist = pdc::dist;
namespace mp = pdc::mp;
namespace net = pdc::net;
namespace obs = pdc::obs;
namespace support = pdc::support;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64. The benchmark draws its inputs from its own generator so a
/// change to the program's RNG cannot change what is measured.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Spans of one request form a fixed tree; each request has at most one
/// span of each kind, so the parent is named by kind.
///
///   client                      send -> reply, on the client thread
///   +- net.encode               MessageCodec::encode_message
///   +- net.handler              the server handler, on a pool worker
///   |  +- dist.queue            handler -> rank-pump hand-off wait
///   |  +- dist.put | dist.get   ReplicatedKV::put / get on the rank pump
///   +- net.scan                 MessageCodec::scan_message of the reply
///
/// The client span's self time is net.transport: fabric hops, readiness
/// loop and pool hand-off.
enum SpanKind : std::uint8_t {
  kClient,
  kEncode,
  kHandler,
  kQueue,
  kPut,
  kGet,
  kScan,
  kSpanKinds
};

const char* span_name(SpanKind kind);
SpanKind span_parent(SpanKind kind);

/// In-memory span store for one round: one slot per (request, kind),
/// written by whichever thread runs that span and read after the round's
/// threads are joined. A request id outside the table is not recorded.
class SpanTable {
 public:
  struct Slot {
    std::int64_t start = 0;
    std::int64_t end = 0;
    [[nodiscard]] bool present() const { return end != 0; }
  };

  void reset(std::size_t requests);
  void record(std::uint64_t request, SpanKind kind, std::int64_t start,
              std::int64_t end) {
    if (request >= requests_) return;
    slots_[request * kSpanKinds + kind] = Slot{start, end};
  }
  [[nodiscard]] const Slot& at(std::uint64_t request, SpanKind kind) const {
    return slots_[request * kSpanKinds + kind];
  }
  [[nodiscard]] std::size_t requests() const { return requests_; }

 private:
  std::size_t requests_ = 0;
  std::vector<Slot> slots_;
};

/// The span table of the timed window of a traced round, or null. Server
/// handlers and rank pumps read it per request; untraced rounds read the
/// clock only where the latency sample needs it.
struct Tracing {
  std::atomic<SpanTable*> armed{nullptr};
  [[nodiscard]] SpanTable* table() const {
    return armed.load(std::memory_order_acquire);
  }
};

/// Deltas of the program's own pdc.* counters over a timed window.
struct Counters {
  std::uint64_t frames = 0;            // pdc.server.frames
  std::uint64_t ready_batches = 0;     // pdc.server.ready_batch count
  std::uint64_t ready_tags = 0;        // pdc.server.ready_batch sum
  std::uint64_t tasks = 0;             // pdc.steal.run
  std::uint64_t stolen = 0;            // pdc.steal.stolen
  std::uint64_t appends = 0;           // pdc.raft.append_sent
  std::uint64_t submitted = 0;         // pdc.raft.submitted
  std::uint64_t mp_sent = 0;           // pdc.mp.sent
  std::uint64_t redirects = 0;         // pdc.kv.redirects
  std::uint64_t kv_timeouts = 0;       // pdc.kv.timeouts
  std::uint64_t elections = 0;         // pdc.raft.elections
  std::uint64_t spans_finished = 0;    // pdc.span.finished
  std::uint64_t spans_sampled = 0;     // pdc.span.sampled
  std::uint64_t spans_dropped = 0;     // pdc.span.dropped

  static Counters read();
  Counters& operator+=(const Counters& other);
  friend Counters operator-(const Counters& a, const Counters& b);
};

/// Resident set of this process now (VmRSS), in MiB; 0 when unreadable.
double resident_mb();

/// Host CPU time from /proc/stat, in ticks; both 0 when unreadable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static CpuTicks read();
};

/// Time spent in the observability calls of kv_observed (sums).
struct ObsTimes {
  double scrape_us = 0;       // MetricsRegistry::scrape
  double metrics_get_us = 0;  // TelemetryClient::get("/metrics")
  double tsdb_tick_us = 0;    // TimeSeriesStore::sample_once
  double slo_eval_us = 0;     // SloMonitor::evaluate
  std::uint64_t scrapes = 0;  // one scrape and one GET each
  std::uint64_t ticks = 0;    // one sample_once and one evaluate each

  ObsTimes& operator+=(const ObsTimes& other);
};

}  // namespace refbench
