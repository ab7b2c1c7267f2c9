#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/thread_slot.hpp"
#include "support/check.hpp"
#include "testkit/hooks.hpp"

namespace pdc::obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

namespace {

/// Bumped at every TraceCollector::start(); threads compare it against
/// their cached value to know their ring belongs to a dead session.
std::atomic<std::uint64_t> g_session_epoch{1};

struct Ring {
  std::mutex mutex;
  // Circular: events[i] holds sequence base_seq + i; a full ring pops the
  // front (overwrite-oldest) so stream cursors can detect laps by
  // comparing their position against base_seq.
  std::deque<TraceEvent> events;
  std::uint64_t base_seq = 0;
  std::uint64_t dropped = 0;
  std::uint64_t tid = 0;  // session-local track id (registration order)
  const char* thread_name = nullptr;
  std::uint64_t name_index = 0;
  // The owner thread's Lamport clock, ticked under `mutex` together with
  // the event it stamps.
  std::uint64_t lamport = 0;
};

struct HarvestedRing {
  std::uint64_t tid = 0;
  const char* thread_name = nullptr;
  std::uint64_t name_index = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<Ring>> rings;  // live session's rings
  std::uint64_t next_tid = 0;
  std::atomic<std::uint64_t> next_flow{1};
  std::vector<HarvestedRing> harvest;  // last stopped session
};

TraceState& state() {
  static TraceState instance;
  return instance;
}

/// The calling thread's ring for the current session. Registration order
/// is the track order in the export.
Ring& current_ring() {
  return thread_slot<Ring>(
      g_session_epoch, [](const std::shared_ptr<Ring>& ring) {
        auto& st = state();
        std::scoped_lock lock(st.mutex);
        ring->tid = st.next_tid++;
        st.rings.push_back(ring);
      });
}

void append(Ring& ring, TraceEvent event) {
  if (ring.events.size() >= kTraceRingCapacity) {
    ring.events.pop_front();
    ++ring.base_seq;
    ++ring.dropped;
  }
  ring.events.push_back(event);
}

const char* phase_of(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kBegin: return "B";
    case TraceEventKind::kEnd: return "E";
    case TraceEventKind::kInstant: return "i";
    case TraceEventKind::kFlowStart: return "s";
    case TraceEventKind::kFlowEnd: return "f";
  }
  return "i";
}

/// One Chrome trace_event object — shared by the post-stop dump and the
/// live stream so a streamed event is byte-identical to its dump twin.
void append_event_json(std::string& out, const TraceEvent& ev,
                       std::uint64_t tid) {
  out += "{\"ph\":\"";
  out += phase_of(ev.kind);
  out += "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"ts\":" + std::to_string(ev.ts_us) + ",\"name\":";
  append_json_string(out, ev.name);
  switch (ev.kind) {
    case TraceEventKind::kFlowStart:
      out += ",\"cat\":\"wire\",\"id\":" + std::to_string(ev.id);
      break;
    case TraceEventKind::kFlowEnd:
      // bp:"e" binds the arrow to the enclosing slice rather than the
      // next one — required for the causal reading of the trace.
      out += ",\"cat\":\"wire\",\"bp\":\"e\",\"id\":" + std::to_string(ev.id);
      break;
    case TraceEventKind::kInstant:
      out += ",\"s\":\"t\"";
      break;
    default:
      break;
  }
  if (ev.kind != TraceEventKind::kEnd) {
    out += ",\"args\":{\"arg\":" + std::to_string(ev.arg) +
           ",\"lamport\":" + std::to_string(ev.lamport);
    if (ev.kind == TraceEventKind::kFlowStart ||
        ev.kind == TraceEventKind::kFlowEnd) {
      out += ",\"bytes\":" + std::to_string(ev.bytes);
    }
    out += "}";
  }
  out += "}";
}

}  // namespace

void emit_slow(TraceEventKind kind, const char* name, std::uint64_t id,
               std::uint64_t arg) {
  Ring& ring = current_ring();
  std::scoped_lock lock(ring.mutex);
  append(ring, TraceEvent{kind, name, now_us(), id, arg, ring.lamport});
}

WireTrace wire_capture_slow(const char* name, std::uint64_t arg,
                            std::uint64_t bytes) {
  Ring& ring = current_ring();
  std::scoped_lock lock(ring.mutex);
  ring.lamport += 1;
  WireTrace wire;
  wire.lamport = ring.lamport;
  wire.flow = state().next_flow.fetch_add(1, std::memory_order_relaxed);
  append(ring, TraceEvent{TraceEventKind::kFlowStart, name, now_us(),
                          wire.flow, arg, wire.lamport, bytes});
  return wire;
}

void wire_accept_slow(const WireTrace& trace, const char* name,
                      std::uint64_t arg, std::uint64_t bytes) {
  Ring& ring = current_ring();
  std::scoped_lock lock(ring.mutex);
  ring.lamport = std::max(ring.lamport, trace.lamport) + 1;
  append(ring, TraceEvent{TraceEventKind::kFlowEnd, name, now_us(),
                          trace.flow, arg, ring.lamport, bytes});
}

void set_thread_name_slow(const char* name, std::uint64_t index) {
  Ring& ring = current_ring();
  std::scoped_lock lock(ring.mutex);
  ring.thread_name = name;
  ring.name_index = index;
}

}  // namespace detail

std::uint64_t now_us() {
  namespace tk = pdc::testkit::detail;
  if (tk::g_sim_active.load(std::memory_order_relaxed)) {
    return static_cast<std::uint64_t>(tk::clock_now_slow() * 1e6 + 0.5);
  }
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            start)
          .count());
}

TraceCollector::~TraceCollector() {
  if (running_) stop();
}

void TraceCollector::start() {
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  PDC_CHECK_MSG(!detail::g_trace_enabled.load(std::memory_order_relaxed),
                "only one TraceCollector may run at a time");
  st.rings.clear();
  st.harvest.clear();
  st.next_tid = 0;
  st.next_flow.store(1, std::memory_order_relaxed);
  // New epoch invalidates every thread's cached ring; threads re-register
  // (in deterministic order under the sim) on their first emit.
  detail::g_session_epoch.fetch_add(1, std::memory_order_release);
  detail::g_trace_enabled.store(true, std::memory_order_release);
  running_ = true;
}

void TraceCollector::stop() {
  PDC_CHECK_MSG(running_, "TraceCollector::stop without start");
  auto& st = detail::state();
  detail::g_trace_enabled.store(false, std::memory_order_release);
  std::scoped_lock lock(st.mutex);
  // A thread that passed the enabled check just before the store may still
  // be appending; the per-ring mutex makes the harvest race-free (its
  // event lands either in this harvest or in the ring graveyard).
  for (const auto& ring : st.rings) {
    std::scoped_lock ring_lock(ring->mutex);
    st.harvest.push_back(detail::HarvestedRing{
        ring->tid, ring->thread_name, ring->name_index, ring->dropped,
        std::vector<TraceEvent>(ring->events.begin(), ring->events.end())});
  }
  std::sort(st.harvest.begin(), st.harvest.end(),
            [](const auto& a, const auto& b) { return a.tid < b.tid; });
  running_ = false;
}

std::size_t TraceCollector::event_count() const {
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  std::size_t n = 0;
  for (const auto& ring : st.harvest) n += ring.events.size();
  return n;
}

std::uint64_t TraceCollector::dropped_events() const {
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  std::uint64_t n = 0;
  for (const auto& ring : st.harvest) n += ring.dropped;
  return n;
}

std::string TraceCollector::chrome_trace_json() const {
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  // Track metadata first: names and an explicit sort order so Perfetto
  // shows coordinator above participants regardless of harvest order.
  for (const auto& ring : st.harvest) {
    if (ring.thread_name == nullptr) continue;
    std::string line = "{\"ph\":\"M\",\"pid\":1,\"tid\":" +
                       std::to_string(ring.tid) +
                       ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(line, ring.thread_name);
    line += "}}";
    emit(line);
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(ring.tid) +
         ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
         std::to_string(ring.name_index) + "}}");
  }
  for (const auto& ring : st.harvest) {
    for (const auto& ev : ring.events) {
      std::string line;
      detail::append_event_json(line, ev, ring.tid);
      emit(line);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

TraceStreamChunk TraceCollector::stream_chunk(TraceStreamCursor& cursor) const {
  TraceStreamChunk chunk;
  auto& st = detail::state();
  std::scoped_lock lock(st.mutex);
  for (const auto& ring : st.rings) {
    std::scoped_lock ring_lock(ring->mutex);
    std::uint64_t seq = 0;
    if (const auto it = cursor.next_seq.find(ring->tid);
        it != cursor.next_seq.end()) {
      seq = it->second;
    }
    if (seq < ring->base_seq) {
      // The ring lapped this client: everything between its cursor and the
      // oldest retained event is gone for good.
      chunk.dropped += ring->base_seq - seq;
      seq = ring->base_seq;
    }
    const std::uint64_t end = ring->base_seq + ring->events.size();
    for (; seq < end; ++seq) {
      if (!chunk.events_json.empty()) chunk.events_json += ',';
      detail::append_event_json(
          chunk.events_json,
          ring->events[static_cast<std::size_t>(seq - ring->base_seq)],
          ring->tid);
      ++chunk.events;
    }
    cursor.next_seq[ring->tid] = end;
  }
  cursor.dropped += chunk.dropped;
  return chunk;
}

}  // namespace pdc::obs
