#include "refbench.hpp"

#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"

namespace refbench {

const char* span_name(SpanKind kind) {
  static constexpr const char* kNames[kSpanKinds] = {
      "client",     "net.encode", "net.handler", "dist.queue",
      "dist.put",   "dist.get",   "net.scan"};
  return kNames[kind];
}

SpanKind span_parent(SpanKind kind) {
  static constexpr SpanKind kParents[kSpanKinds] = {
      kClient, kClient, kClient, kHandler, kHandler, kHandler, kClient};
  return kParents[kind];
}

void SpanTable::reset(std::size_t requests) {
  requests_ = requests;
  slots_.assign(requests * kSpanKinds, Slot{});
}

Counters Counters::read() {
  auto& registry = pdc::obs::MetricsRegistry::instance();
  auto count = [&](const char* name) { return registry.counter(name).total(); };
  const auto batch = registry.histogram("pdc.server.ready_batch").snapshot();
  Counters c;
  c.frames = count("pdc.server.frames");
  c.ready_batches = batch.count;
  c.ready_tags = batch.sum;
  c.tasks = count("pdc.steal.run");
  c.stolen = count("pdc.steal.stolen");
  c.appends = count("pdc.raft.append_sent");
  c.submitted = count("pdc.raft.submitted");
  c.mp_sent = count("pdc.mp.sent");
  c.redirects = count("pdc.kv.redirects");
  c.kv_timeouts = count("pdc.kv.timeouts");
  c.elections = count("pdc.raft.elections");
  c.spans_finished = count("pdc.span.finished");
  c.spans_sampled = count("pdc.span.sampled");
  c.spans_dropped = count("pdc.span.dropped");
  return c;
}

#define REFBENCH_COUNTER_FIELDS(X)                                        \
  X(frames) X(ready_batches) X(ready_tags) X(tasks) X(stolen) X(appends)  \
  X(submitted) X(mp_sent) X(redirects) X(kv_timeouts) X(elections)        \
  X(spans_finished) X(spans_sampled) X(spans_dropped)

Counters& Counters::operator+=(const Counters& other) {
#define X(f) f += other.f;
  REFBENCH_COUNTER_FIELDS(X)
#undef X
  return *this;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
#define X(f) d.f = a.f - b.f;
  REFBENCH_COUNTER_FIELDS(X)
#undef X
  return d;
}

ObsTimes& ObsTimes::operator+=(const ObsTimes& other) {
  scrape_us += other.scrape_us;
  metrics_get_us += other.metrics_get_us;
  tsdb_tick_us += other.tsdb_tick_us;
  slo_eval_us += other.slo_eval_us;
  scrapes += other.scrapes;
  ticks += other.ticks;
  return *this;
}

double resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

CpuTicks CpuTicks::read() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return ticks;
  std::istringstream in(line.substr(4));
  // user nice system idle iowait irq softirq steal; guest time is
  // already inside user and nice.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

}  // namespace refbench
