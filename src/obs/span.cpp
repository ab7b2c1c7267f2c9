#include "obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "obs/thread_slot.hpp"
#include "support/check.hpp"

namespace pdc::obs {

namespace detail {

std::atomic<bool> g_span_enabled{false};

namespace {

/// Contexts are plain thread-locals: the ambient slot is what
/// wire_capture() stamps onto outgoing piggybacks, the incoming slot is
/// where wire_accept() parks the context it pulled off a message until
/// the handler claims it with take_incoming_span().
thread_local SpanContext t_ambient{};
thread_local SpanContext t_incoming{};

/// A closed span as span_end() records it. Name stays a borrowed literal
/// until the trace is kept; `seq` is the span's place in the process-wide
/// close order.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t seq = 0;
  const char* name = nullptr;
  bool error = false;
};

/// Records one thread's buffer holds; the append that fills it harvests.
constexpr std::size_t kSpanBatch = 256;

/// One thread's spans closed since the last harvest. Its mutex is taken
/// by the owner thread and by harvests, never by another span_end().
struct SpanBuffer {
  std::mutex mutex;
  bool open = false;  // false once the session it belongs to stopped
  std::size_t size = 0;
  std::array<SpanRecord, kSpanBatch> records;
};

/// Verdict of a completed trace, direct-mapped by trace id: a later trace
/// whose id shares the slot overwrites it. trace_id 0 is an empty slot.
struct Verdict {
  std::uint64_t trace_id = 0;
  bool kept = false;
};

struct SpanState {
  std::mutex mutex;
  bool running = false;
  SpanCollectorConfig config;
  std::vector<std::shared_ptr<SpanBuffer>> buffers;  // live session's
  // Harvested records not yet settled, sorted by seq between harvests.
  std::vector<SpanRecord> batch;
  // Closed non-root spans whose root has not closed yet, in close order.
  std::vector<SpanRecord> parked;
  // Kept traces ordered by (root latency, trace id): begin() is the
  // rotating tail-sampling threshold candidate.
  std::map<std::pair<std::uint64_t, std::uint64_t>, TraceSummary> kept;
  // Trace ids in `kept`, sorted: every span whose verdict is not in the
  // table asks whether its trace is kept, and `kept` is keyed by latency.
  std::vector<std::uint64_t> kept_ids;
  // Verdicts of recently completed traces, so spans closing after their
  // root (asynchronous completions) still land — or are still dropped —
  // on the right side of the ledger.
  std::array<Verdict, kSpanVerdictSlots> verdicts;
  std::array<std::optional<TraceExemplar>, kHistogramBuckets> exemplars;
  std::size_t kept_errors = 0;  // kept traces with the error tag
  std::uint64_t completed = 0;
  std::uint64_t kept_count = 0;
  std::uint64_t dropped_count = 0;
  std::uint64_t evicted_count = 0;
};

SpanState& state() {
  static SpanState instance;
  return instance;
}

std::atomic<std::uint64_t> g_next_span_id{1};
// Bumped at every SpanCollector::start(): threads then register a fresh
// buffer for the new session.
std::atomic<std::uint64_t> g_span_epoch{1};
alignas(64) std::atomic<std::uint64_t> g_close_seq{0};

void count_sampled(std::uint64_t n) { PDC_OBS_COUNT("pdc.span.sampled", n); }
void count_dropped(std::uint64_t n) { PDC_OBS_COUNT("pdc.span.dropped", n); }

SpanNode to_node(const SpanRecord& record) {
  SpanNode node;
  node.span_id = record.span_id;
  node.parent_id = record.parent_id;
  node.start_us = record.start_us;
  node.end_us = record.end_us;
  node.error = record.error;
  node.name = record.name == nullptr ? "" : record.name;
  return node;
}

/// Number of non-error traces currently kept — the population the
/// rotating threshold rotates over (error traces are unconditional).
std::size_t kept_plain(const SpanState& st) {
  return st.kept.size() - st.kept_errors;
}

/// Smallest-latency kept trace without the error tag, or end().
auto min_plain(SpanState& st) {
  auto it = st.kept.begin();
  while (it != st.kept.end() && it->second.error) ++it;
  return it;
}

/// The rotating threshold: 0 until the plain store is full.
std::uint64_t threshold(SpanState& st) {
  if (kept_plain(st) < st.config.keep_slowest) return 0;
  auto it = min_plain(st);
  return it == st.kept.end() ? 0 : it->first.first;
}

/// The `n` slowest kept traces, slowest first.
std::vector<TraceSummary> slowest(const SpanState& st, std::size_t n) {
  std::vector<TraceSummary> out;
  out.reserve(std::min(n, st.kept.size()));
  for (auto it = st.kept.rbegin(); it != st.kept.rend() && out.size() < n;
       ++it) {
    out.push_back(it->second);
  }
  return out;
}

bool is_kept(const SpanState& st, std::uint64_t trace_id) {
  return std::binary_search(st.kept_ids.begin(), st.kept_ids.end(), trace_id);
}

Verdict& verdict_of(SpanState& st, std::uint64_t trace_id) {
  return st.verdicts[trace_id % kSpanVerdictSlots];
}

/// Root span closed: pass the tail-sampling verdict from the root latency
/// and the error tags, settle the span ledger for the trace's parked
/// spans, and assemble the tree only when the trace is kept.
void complete_trace(SpanState& st, const SpanRecord& root) {
  const std::uint64_t root_us =
      root.end_us - std::min(root.start_us, root.end_us);
  const auto in_trace = [&root](const SpanRecord& record) {
    return record.trace_id == root.trace_id;
  };
  std::uint64_t spans = 1;
  bool error = root.error;
  for (const SpanRecord& record : st.parked) {
    if (!in_trace(record)) continue;
    ++spans;
    error = error || record.error;
  }

  ++st.completed;
  PDC_OBS_HIST("pdc.trace.root_us", root_us);

  // Error traces are always kept and never evicted: the whole point of
  // tail sampling is that the interesting tail survives.
  bool keep = error || kept_plain(st) < st.config.keep_slowest;
  if (!keep) {
    auto min_it = min_plain(st);
    if (min_it != st.kept.end() && root_us > min_it->first.first) {
      st.kept_count -= 1;
      ++st.evicted_count;
      st.kept_ids.erase(std::lower_bound(st.kept_ids.begin(),
                                         st.kept_ids.end(),
                                         min_it->first.second));
      st.kept.erase(min_it);
      keep = true;
    }
  }

  verdict_of(st, root.trace_id) = Verdict{root.trace_id, keep};
  if (keep) {
    TraceSummary trace;
    trace.trace_id = root.trace_id;
    trace.root_us = root_us;
    trace.error = error;
    trace.spans.reserve(spans);
    for (const SpanRecord& record : st.parked) {
      if (in_trace(record)) trace.spans.push_back(to_node(record));
    }
    trace.spans.push_back(to_node(root));
    std::sort(trace.spans.begin(), trace.spans.end(),
              [](const SpanNode& a, const SpanNode& b) {
                return a.span_id < b.span_id;
              });
    ++st.kept_count;
    if (error) ++st.kept_errors;
    st.exemplars[Histogram::bucket_of(root_us)] =
        TraceExemplar{root.trace_id, root_us};
    st.kept_ids.insert(std::lower_bound(st.kept_ids.begin(),
                                        st.kept_ids.end(), root.trace_id),
                       root.trace_id);
    st.kept.emplace(std::make_pair(root_us, root.trace_id), std::move(trace));
    count_sampled(spans);
  } else {
    ++st.dropped_count;
    count_dropped(spans);
  }
  if (spans > 1) std::erase_if(st.parked, in_trace);
}

/// A span closed after its trace was already classified: kept traces
/// absorb it (the tree stays complete), everything else drops.
void settle_late(SpanState& st, const SpanRecord& record, bool kept) {
  if (!kept) {
    count_dropped(1);
    return;
  }
  count_sampled(1);
  for (auto& [key, trace] : st.kept) {
    if (key.second != record.trace_id) continue;
    // Insert in span-id order: a trace absorbing many late spans (a
    // replication storm) must not re-sort its whole tree for each one.
    trace.spans.insert(
        std::upper_bound(trace.spans.begin(), trace.spans.end(),
                         record.span_id,
                         [](std::uint64_t id, const SpanNode& span) {
                           return id < span.span_id;
                         }),
        to_node(record));
    trace.error = trace.error || record.error;
    return;
  }
  // Kept once but since evicted: the ledger already called its siblings
  // sampled, stay consistent.
}

/// A non-root span whose trace has no verdict yet waits for its root. A
/// full parked vector drops its oldest quarter, which mostly belongs to
/// roots that will never close (or to traces whose verdict was forgotten).
void park(SpanState& st, const SpanRecord& record) {
  if (st.parked.size() >= kSpanParkedCapacity) {
    constexpr std::size_t kStale = kSpanParkedCapacity / 4;
    count_dropped(kStale);
    st.parked.erase(st.parked.begin(), st.parked.begin() + kStale);
  }
  st.parked.push_back(record);
}

/// Feeds one closed span to the tail sampler; records arrive in close
/// order, so a root sees every span of its trace that closed before it.
void settle(SpanState& st, const SpanRecord& record) {
  const Verdict& verdict = verdict_of(st, record.trace_id);
  if (verdict.trace_id == record.trace_id) {
    settle_late(st, record, verdict.kept);
  } else if (is_kept(st, record.trace_id)) {
    settle_late(st, record, true);  // a kept trace whose verdict aged out
  } else if (record.parent_id == 0) {
    complete_trace(st, record);
  } else {
    park(st, record);
  }
}

/// Moves every thread's buffered spans into st.batch and settles, in
/// close order, each one whose sequence number is below the counter read
/// on entry: all of those are already appended (each thread takes its
/// number and appends under its buffer lock). A later record may still
/// have a smaller-numbered twin in flight on another thread, so it waits
/// for the next harvest. `closing` (stop()) closes every buffer first;
/// nothing can arrive after that, so everything settles. Caller holds
/// st.mutex.
void harvest(SpanState& st, bool closing = false) {
  if (!st.running) return;
  const std::uint64_t horizon =
      closing ? UINT64_MAX : g_close_seq.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < st.buffers.size();) {
    // Read before draining: when only this list holds a buffer, its
    // thread is gone and the drain below sees its last append.
    const bool orphaned = st.buffers[i].use_count() == 1;
    SpanBuffer& buffer = *st.buffers[i];
    {
      std::scoped_lock lock(buffer.mutex);
      st.batch.insert(st.batch.end(), buffer.records.begin(),
                      buffer.records.begin() +
                          static_cast<std::ptrdiff_t>(buffer.size));
      buffer.size = 0;
      buffer.open = !closing;
    }
    if (orphaned) {
      st.buffers[i] = std::move(st.buffers.back());
      st.buffers.pop_back();
    } else {
      ++i;
    }
  }
  std::sort(st.batch.begin(), st.batch.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.seq < b.seq;
            });
  const auto ready =
      std::partition_point(st.batch.begin(), st.batch.end(),
                           [horizon](const SpanRecord& record) {
                             return record.seq < horizon;
                           });
  for (auto it = st.batch.begin(); it != ready; ++it) settle(st, *it);
  st.batch.erase(st.batch.begin(), ready);
}

/// Locks the state and settles every span closed so far: the entry of
/// every reader.
std::unique_lock<std::mutex> settled(SpanState& st) {
  std::unique_lock lock(st.mutex);
  harvest(st);
  return lock;
}

/// The calling thread's buffer for the current session. A thread's first
/// span_end() after stop() gets a closed buffer that no list holds.
SpanBuffer& current_buffer() {
  return thread_slot<SpanBuffer>(
      g_span_epoch, [](const std::shared_ptr<SpanBuffer>& buffer) {
        auto& st = state();
        std::scoped_lock lock(st.mutex);
        if (!st.running) return;
        buffer->open = true;  // not shared with any other thread yet
        st.buffers.push_back(buffer);
      });
}

/// span_end()'s recording step: one fixed-size append under the calling
/// thread's own buffer lock. Only the append that fills the buffer goes
/// on to harvest under the collector lock. Out of line, so that
/// span_end() on a span that is not recording stays a test and a return.
[[gnu::noinline]] void record_closed(SpanRecord record) {
  SpanBuffer& buffer = current_buffer();
  bool open = false;
  {
    std::scoped_lock lock(buffer.mutex);
    open = buffer.open;
    if (open) {
      record.seq = g_close_seq.fetch_add(1, std::memory_order_relaxed);
      buffer.records[buffer.size++] = record;
      if (buffer.size < kSpanBatch) return;
    }
  }
  if (!open) {
    // Session ended while the span was open: finished, never sampled.
    count_dropped(1);
    return;
  }
  auto& st = state();
  std::scoped_lock lock(st.mutex);
  harvest(st);
}

}  // namespace

void span_stamp_slow(WireTrace& trace) {
  if (t_ambient.valid()) {
    trace.trace_id = t_ambient.trace_id;
    trace.trace_span = t_ambient.span_id;
  }
}

void span_adopt_slow(const WireTrace& trace) {
  // Sets *or clears*: an untraced message must not leave a stale context
  // for the next handler to adopt.
  t_incoming = SpanContext{trace.trace_id, trace.trace_span};
}

}  // namespace detail

ActiveSpan span_root(const char* name, std::uint64_t trace_id,
                     std::uint64_t start_us) {
  ActiveSpan span;
  if (!span_enabled() || trace_id == 0) return span;
  span.ctx_.trace_id = trace_id;
  span.ctx_.span_id =
      detail::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent_id_ = 0;
  span.name_ = name;
  span.start_us_ = start_us != 0 ? start_us : now_us();
  PDC_OBS_COUNT("pdc.span.started");
  return span;
}

ActiveSpan span_begin(const char* name, SpanContext parent,
                      std::uint64_t start_us) {
  ActiveSpan span;
  if (!span_enabled() || !parent.valid()) return span;
  span.ctx_.trace_id = parent.trace_id;
  span.ctx_.span_id =
      detail::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent_id_ = parent.span_id;
  span.name_ = name;
  span.start_us_ = start_us != 0 ? start_us : now_us();
  PDC_OBS_COUNT("pdc.span.started");
  return span;
}

void span_end(ActiveSpan& span, bool error) {
  if (!span.recording()) return;
  detail::SpanRecord record;
  record.trace_id = span.ctx_.trace_id;
  record.span_id = span.ctx_.span_id;
  record.parent_id = span.parent_id_;
  record.start_us = span.start_us_;
  record.end_us = std::max(span.start_us_, now_us());
  record.error = error;
  record.name = span.name_;
  span.ctx_ = SpanContext{};  // stops recording; double-close is a no-op
  PDC_OBS_COUNT("pdc.span.finished");
  detail::record_closed(record);
}

SpanContext current_span() noexcept { return detail::t_ambient; }

SpanContext take_incoming_span() noexcept {
  return std::exchange(detail::t_incoming, SpanContext{});
}

SpanScope::SpanScope(SpanContext ctx)
    : prev_(std::exchange(detail::t_ambient, ctx)) {}

SpanScope::~SpanScope() { detail::t_ambient = prev_; }

SpanCollector::SpanCollector(SpanCollectorConfig config) : config_(config) {}

SpanCollector::~SpanCollector() {
  if (running_) stop();
}

void SpanCollector::start() {
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  PDC_CHECK_MSG(!st.running, "only one SpanCollector may run at a time");
  st.config = config_;
  st.buffers.clear();
  st.batch.clear();
  st.parked.clear();
  st.kept.clear();
  st.kept_ids.clear();
  st.verdicts.fill(detail::Verdict{});
  st.exemplars.fill(std::nullopt);
  st.kept_errors = 0;
  st.completed = 0;
  st.kept_count = 0;
  st.dropped_count = 0;
  st.evicted_count = 0;
  detail::g_next_span_id.store(1, std::memory_order_relaxed);
  detail::g_span_epoch.fetch_add(1, std::memory_order_release);
  if constexpr (kObsEnabled) {
    // Conservation counters and the exemplar histogram exist from the
    // first scrape on, whether or not a span ever closes.
    auto& registry = MetricsRegistry::instance();
    registry.counter("pdc.span.started");
    registry.counter("pdc.span.finished");
    registry.counter("pdc.span.sampled");
    registry.counter("pdc.span.dropped");
    registry.histogram("pdc.trace.root_us");
    st.running = true;
    detail::g_span_enabled.store(true, std::memory_order_release);
  }
  running_ = true;
}

void SpanCollector::stop() {
  PDC_CHECK_MSG(running_, "SpanCollector::stop without start");
  detail::g_span_enabled.store(false, std::memory_order_release);
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  detail::harvest(st, /*closing=*/true);
  // Roots that never closed: their parked spans finished but can no
  // longer be sampled — settle them as dropped so the ledger balances.
  std::set<std::uint64_t> open_roots;
  for (const auto& record : st.parked) open_roots.insert(record.trace_id);
  detail::count_dropped(st.parked.size());
  st.dropped_count += open_roots.size();
  st.parked.clear();
  st.buffers.clear();
  st.running = false;
  running_ = false;
}

std::uint64_t SpanCollector::traces_completed() const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return st.completed;
}

std::uint64_t SpanCollector::traces_kept() const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return st.kept_count;
}

std::uint64_t SpanCollector::traces_dropped() const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return st.dropped_count;
}

std::uint64_t SpanCollector::traces_evicted() const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return st.evicted_count;
}

std::uint64_t SpanCollector::threshold_us() const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return detail::threshold(st);
}

std::vector<TraceSummary> SpanCollector::slowest(std::size_t n) const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return detail::slowest(st, n);
}

std::optional<TraceSummary> SpanCollector::by_id(std::uint64_t trace_id) const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  for (const auto& [key, trace] : st.kept) {
    if (key.second == trace_id) return trace;
  }
  return std::nullopt;
}

std::array<std::optional<TraceExemplar>, kHistogramBuckets>
SpanCollector::exemplars() const {
  auto& st = detail::state();
  const auto lock = detail::settled(st);
  return st.exemplars;
}

namespace {

struct TreeIndex {
  const TraceSummary* trace = nullptr;
  // children[i] = indices into trace->spans, sorted by (end, id) desc so
  // the backward walk meets the latest-finishing child first.
  std::vector<std::vector<std::size_t>> children;
  std::size_t root = SIZE_MAX;
};

TreeIndex index_tree(const TraceSummary& trace) {
  TreeIndex index;
  index.trace = &trace;
  index.children.resize(trace.spans.size());
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    by_id[trace.spans[i].span_id] = i;
  }
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanNode& span = trace.spans[i];
    auto parent = by_id.find(span.parent_id);
    if (span.parent_id != 0 && parent != by_id.end()) {
      index.children[parent->second].push_back(i);
    } else if (index.root == SIZE_MAX) {
      // First orphan by span id is the root (parent 0, or a parent the
      // sampler never saw).
      index.root = i;
    }
  }
  for (auto& kids : index.children) {
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      const SpanNode& sa = trace.spans[a];
      const SpanNode& sb = trace.spans[b];
      if (sa.end_us != sb.end_us) return sa.end_us > sb.end_us;
      return sa.span_id > sb.span_id;
    });
  }
  return index;
}

void walk_critical(const TreeIndex& index, std::size_t at,
                   std::vector<CriticalHop>& hops) {
  const SpanNode& span = index.trace->spans[at];
  CriticalHop hop{span.span_id, span.name, span.start_us, span.end_us, 0};
  // Backward walk: start the cursor at this span's end; each on-path
  // child accounts [child.start, child.end), the gap between the child's
  // end and the cursor is *this* span's self-time.
  std::uint64_t cursor = span.end_us;
  std::uint64_t self = 0;
  for (std::size_t child_at : index.children[at]) {
    const SpanNode& child = index.trace->spans[child_at];
    if (child.end_us > cursor) continue;  // overlapped by a later child
    self += cursor - child.end_us;
    walk_critical(index, child_at, hops);
    cursor = std::clamp(child.start_us, span.start_us, cursor);
  }
  self += cursor - std::min(span.start_us, cursor);
  hop.self_us = self;
  hops.push_back(hop);
}

}  // namespace

std::vector<CriticalHop> critical_path(const TraceSummary& trace) {
  std::vector<CriticalHop> hops;
  if (trace.spans.empty()) return hops;
  const TreeIndex index = index_tree(trace);
  if (index.root == SIZE_MAX) return hops;
  walk_critical(index, index.root, hops);
  std::sort(hops.begin(), hops.end(),
            [](const CriticalHop& a, const CriticalHop& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.span_id < b.span_id;
            });
  return hops;
}

std::string trace_json(const TraceSummary& trace) {
  std::string out = "{\"trace_id\":" + std::to_string(trace.trace_id);
  out += ",\"source\":";
  append_json_string(out, trace.source);
  out += ",\"root_us\":" + std::to_string(trace.root_us);
  out += ",\"error\":";
  out += trace.error ? "true" : "false";
  out += ",\"critical_path\":[";
  bool first = true;
  for (const CriticalHop& hop : critical_path(trace)) {
    if (!first) out += ',';
    first = false;
    out += "{\"span_id\":" + std::to_string(hop.span_id) + ",\"name\":";
    append_json_string(out, hop.name);
    out += ",\"start_us\":" + std::to_string(hop.start_us);
    out += ",\"end_us\":" + std::to_string(hop.end_us);
    out += ",\"self_us\":" + std::to_string(hop.self_us) + "}";
  }
  out += "],\"spans\":[";
  first = true;
  for (const SpanNode& span : trace.spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"span_id\":" + std::to_string(span.span_id);
    out += ",\"parent_id\":" + std::to_string(span.parent_id);
    out += ",\"name\":";
    append_json_string(out, span.name);
    out += ",\"start_us\":" + std::to_string(span.start_us);
    out += ",\"end_us\":" + std::to_string(span.end_us);
    out += ",\"error\":";
    out += span.error ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

std::string SpanCollector::slowest_json(std::size_t n) const {
  // Counts and traces come from one locked snapshot, so a harvest cannot
  // fall between them; the rendering runs after the lock is released.
  std::vector<TraceSummary> traces;
  std::string out;
  {
    auto& st = detail::state();
    const auto lock = detail::settled(st);
    traces = detail::slowest(st, n);
    out = "{\"kept\":" + std::to_string(st.kept_count);
    out += ",\"dropped\":" + std::to_string(st.dropped_count);
    out += ",\"evicted\":" + std::to_string(st.evicted_count);
    out += ",\"completed\":" + std::to_string(st.completed);
    out += ",\"threshold_us\":" + std::to_string(detail::threshold(st));
  }
  out += ",\"traces\":[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i != 0) out += ',';
    out += trace_json(traces[i]);
  }
  out += "]}\n";
  return out;
}

std::string SpanCollector::byid_json(std::uint64_t trace_id) const {
  auto trace = by_id(trace_id);
  if (!trace.has_value()) {
    return "{\"error\":\"no kept trace with id " + std::to_string(trace_id) +
           "\"}\n";
  }
  return trace_json(trace.value()) + "\n";
}

std::string SpanCollector::exemplars_json() const {
  const auto pins = exemplars();
  std::string out = "{\"pdc.trace.root_us\":[";
  bool first = true;
  for (std::size_t b = 0; b < pins.size(); ++b) {
    if (!pins[b].has_value()) continue;
    if (!first) out += ',';
    first = false;
    const double upper = Histogram::bucket_upper(b);
    out += "{\"bucket\":" + std::to_string(b) + ",\"le\":\"";
    out += std::isinf(upper) ? "+Inf" : format_double(upper);
    out += "\",\"trace_id\":" + std::to_string(pins[b]->trace_id);
    out += ",\"root_us\":" + std::to_string(pins[b]->root_us) + "}";
  }
  out += "]}";
  return out;
}

std::string SpanCollector::slowest_wire(std::size_t n) const {
  return trace_summaries_wire(slowest(n));
}

std::string trace_summaries_wire(const std::vector<TraceSummary>& traces) {
  std::string out;
  for (const TraceSummary& trace : traces) {
    out += "t " + std::to_string(trace.trace_id) + ' ' +
           std::to_string(trace.root_us) + ' ' + (trace.error ? "1" : "0") +
           ' ' + (trace.source.empty() ? "-" : trace.source) + '\n';
    for (const SpanNode& span : trace.spans) {
      out += "s " + std::to_string(span.span_id) + ' ' +
             std::to_string(span.parent_id) + ' ' +
             std::to_string(span.start_us) + ' ' +
             std::to_string(span.end_us) + ' ' + (span.error ? "1" : "0") +
             ' ' + span.name + '\n';
    }
  }
  return out;
}

std::optional<std::vector<TraceSummary>> parse_traces_wire(
    const std::string& text) {
  std::vector<TraceSummary> traces;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "t") {
      TraceSummary trace;
      int error = 0;
      std::string source;
      if (!(fields >> trace.trace_id >> trace.root_us >> error >> source)) {
        return std::nullopt;
      }
      trace.error = error != 0;
      if (source != "-") trace.source = source;
      traces.push_back(std::move(trace));
    } else if (kind == "s") {
      if (traces.empty()) return std::nullopt;
      SpanNode span;
      int error = 0;
      if (!(fields >> span.span_id >> span.parent_id >> span.start_us >>
            span.end_us >> error >> span.name)) {
        return std::nullopt;
      }
      span.error = error != 0;
      traces.back().spans.push_back(std::move(span));
    } else {
      return std::nullopt;
    }
  }
  return traces;
}

}  // namespace pdc::obs
