// Per-thread trace ring buffers + causal spans + Chrome trace_event JSON.
//
// Three pieces:
//
//  1. TraceCollector — a session object. While one is running, every
//     thread that emits an event lazily registers a fixed-capacity ring
//     buffer; events are appended under a per-ring mutex that is only
//     ever contended by the (rare) final harvest, so the hot path is an
//     uncontended lock + bump. When no collector is running, the emit
//     functions are a single relaxed atomic load and return — the
//     zero-contention fast path the instrumented modules rely on.
//
//  2. Causal spans — WireTrace{lamport, flow} piggybacks on mp::Envelope
//     and net::Datagram. Senders call wire_capture() (ticks the thread's
//     Lamport clock, allocates a flow id, records a flow-start event);
//     receivers call wire_accept() (merges the clock, records the
//     flow-end event). In the exported JSON these become Chrome
//     flow events ("s"/"f"), which Perfetto draws as arrows stitching
//     the sender's span to the receiver's — one causal tree across
//     threads, messages, and protocol rounds.
//
//  3. chrome_trace_json() — serializes the harvested events in the
//     Chrome trace_event format (chrome://tracing, ui.perfetto.dev).
//     Under testkit::SimScheduler all timestamps come from the virtual
//     clock and all ids from session-local counters, so a fixed-seed run
//     exports byte-identical JSON (see tests/obs_test.cpp golden test).
//
// Labels passed to the emit functions must be string literals: events
// store the pointer, never a copy (same contract as testkit hook labels).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace pdc::obs {

/// Compile-time escape hatch: with PDCKIT_OBS_NOOP defined (CMake option
/// of the same name) trace_enabled() folds to false, so every emit path,
/// wire capture, and metric macro dead-code-eliminates. The collector and
/// registry stay linkable so tooling code needs no conditional compiles.
#ifdef PDCKIT_OBS_NOOP
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Causal metadata piggybacked on message envelopes and datagrams.
/// Default-constructed (zero) means "no trace attached" — envelopes built
/// while no collector is running carry this and cost nothing downstream.
/// Two independent sessions share the ride: the thread-ring fields
/// (lamport/flow, TraceCollector) and the request-trace fields
/// (trace_id/trace_span, SpanCollector — see obs/span.hpp).
struct WireTrace {
  std::uint64_t lamport = 0;  // sender's Lamport time at send
  std::uint64_t flow = 0;     // flow id pairing this send with its recv
  std::uint64_t trace_id = 0;    // request trace this message belongs to
  std::uint64_t trace_span = 0;  // sender's span id within that trace

  [[nodiscard]] bool empty() const noexcept {
    return lamport == 0 && flow == 0 && trace_id == 0;
  }
};

enum class TraceEventKind : std::uint8_t {
  kBegin,      // span open  (Chrome ph "B")
  kEnd,        // span close (Chrome ph "E")
  kInstant,    // point event (Chrome ph "i")
  kFlowStart,  // message leaves this thread  (Chrome ph "s")
  kFlowEnd,    // message arrives on this thread (Chrome ph "f")
};

struct TraceEvent {
  TraceEventKind kind;
  const char* name;       // string literal
  std::uint64_t ts_us;    // microseconds (virtual under sim)
  std::uint64_t id = 0;   // flow id for kFlowStart/kFlowEnd
  std::uint64_t arg = 0;  // free-form numeric payload (rank, seq, ...)
  std::uint64_t lamport = 0;
  std::uint64_t bytes = 0;  // payload size for kFlowStart/kFlowEnd
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
// Request-trace session flag + hooks, defined in span.cpp (the wire
// helpers below stamp/adopt SpanContexts when a SpanCollector runs).
extern std::atomic<bool> g_span_enabled;

void emit_slow(TraceEventKind kind, const char* name, std::uint64_t id,
               std::uint64_t arg);
[[nodiscard]] WireTrace wire_capture_slow(const char* name, std::uint64_t arg,
                                          std::uint64_t bytes);
void wire_accept_slow(const WireTrace& trace, const char* name,
                      std::uint64_t arg, std::uint64_t bytes);
void set_thread_name_slow(const char* name, std::uint64_t index);
void span_stamp_slow(WireTrace& trace);
void span_adopt_slow(const WireTrace& trace);
}  // namespace detail

/// True while a TraceCollector session is running (always false under
/// PDCKIT_OBS_NOOP).
inline bool trace_enabled() noexcept {
  return kObsEnabled && detail::g_trace_enabled.load(std::memory_order_relaxed);
}

inline void trace_begin(const char* name, std::uint64_t arg = 0) {
  if (trace_enabled()) detail::emit_slow(TraceEventKind::kBegin, name, 0, arg);
}
inline void trace_end(const char* name) {
  if (trace_enabled()) detail::emit_slow(TraceEventKind::kEnd, name, 0, 0);
}
inline void trace_instant(const char* name, std::uint64_t arg = 0) {
  if (trace_enabled()) {
    detail::emit_slow(TraceEventKind::kInstant, name, 0, arg);
  }
}

/// Sender side of a causal edge: ticks the calling thread's Lamport clock,
/// allocates a flow id, and records the flow-start event. Returns the
/// WireTrace to embed in the envelope/datagram (zero when not tracing).
/// `bytes` is the payload size, exported on the flow event so viewers can
/// plot volume per flow.
inline WireTrace wire_capture(const char* name, std::uint64_t arg = 0,
                              std::uint64_t bytes = 0) {
  WireTrace out;
  if (trace_enabled()) out = detail::wire_capture_slow(name, arg, bytes);
  if (kObsEnabled && detail::g_span_enabled.load(std::memory_order_relaxed)) {
    detail::span_stamp_slow(out);  // ambient SpanContext rides along
  }
  return out;
}

/// Receiver side: merges the sender's Lamport time into the calling
/// thread's clock (max+1) and records the flow-end event. Safe to call
/// with an empty WireTrace (no-op beyond the enabled check).
inline void wire_accept(const WireTrace& trace, const char* name,
                        std::uint64_t arg = 0, std::uint64_t bytes = 0) {
  if (trace_enabled() && !trace.empty()) {
    detail::wire_accept_slow(trace, name, arg, bytes);
  }
  if (kObsEnabled && detail::g_span_enabled.load(std::memory_order_relaxed)) {
    // Called for *every* message, traced or not: an empty context must
    // clear the thread's incoming slot (see take_incoming_span()).
    detail::span_adopt_slow(trace);
  }
}

/// Names the calling thread's track in the exported trace ("coordinator",
/// "participant"...). `index` orders tracks in the viewer and
/// disambiguates repeated names.
inline void set_trace_thread_name(const char* name, std::uint64_t index = 0) {
  if (trace_enabled()) detail::set_thread_name_slow(name, index);
}

/// RAII begin/end pair.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t arg = 0) {
    if (trace_enabled()) {
      name_ = name;
      detail::emit_slow(TraceEventKind::kBegin, name, 0, arg);
    }
  }
  ~ScopedSpan() {
    // End unconditionally once begun: a collector stopping mid-span must
    // still see the close (stop() harvests before disabling emits is not
    // guaranteed, but an unmatched B is worse than a dropped E).
    if (name_ != nullptr && trace_enabled()) {
      detail::emit_slow(TraceEventKind::kEnd, name_, 0, 0);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
};

/// Microsecond timestamp for trace events: virtual clock under an active
/// SimScheduler run, steady_clock otherwise.
[[nodiscard]] std::uint64_t now_us();

/// A stream client's position in the live event stream: the next unseen
/// sequence number per thread ring, plus the cumulative count of events
/// lost to ring laps (the cursor falling behind a ring's oldest retained
/// event because the consumer was too slow). One cursor per client; state
/// lives with the client, so the collector itself stays client-free.
struct TraceStreamCursor {
  std::map<std::uint64_t, std::uint64_t> next_seq;  // ring tid -> next seq
  std::uint64_t dropped = 0;
};

/// One incremental harvest: Chrome trace_event objects (comma-joined, no
/// enclosing array — ready to splice into an "events":[...] frame) for
/// every event appended since the cursor's position.
struct TraceStreamChunk {
  std::string events_json;
  std::size_t events = 0;
  std::uint64_t dropped = 0;  // newly lapped since the previous chunk
};

/// A trace session. Construction does nothing; start() begins recording
/// process-wide, stop() ends it; harvest with chrome_trace_json().
/// One collector may be running at a time (checked).
///
/// start() resets the session's id counters and clears every thread ring,
/// so two identical fixed-seed sim runs export identical JSON.
class TraceCollector {
 public:
  TraceCollector() = default;
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Events recorded since start(), serialized as a Chrome trace_event
  /// JSON document. Call after stop(). Events are ordered by
  /// (timestamp, thread track, ring position) so the output is stable.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Incremental harvest from the *running* session — the live
  /// counterpart of chrome_trace_json(): drains events appended since
  /// `cursor`, advances the cursor, and counts events a ring overwrote
  /// before this client consumed them (ring lap -> chunk.dropped and
  /// cursor.dropped). Events come out in (ring, sequence) order as the
  /// same JSON objects a post-stop dump would contain, so concatenating
  /// every chunk of a lap-free client reproduces the dump's event set.
  [[nodiscard]] TraceStreamChunk stream_chunk(TraceStreamCursor& cursor) const;

  /// Total events harvested (post-stop convenience for tests).
  [[nodiscard]] std::size_t event_count() const;

  /// Events a ring dropped because it was full are counted; exposed so
  /// tests can assert losslessness where it matters.
  [[nodiscard]] std::uint64_t dropped_events() const;

 private:
  bool running_ = false;
};

/// Events each thread ring can hold per session. Rings are circular: a
/// full ring overwrites its oldest event and counts the loss, so live
/// stream clients always see the newest activity; a post-stop dump of an
/// overflowed ring holds the trailing window (unmatched span begins are
/// possible there — the stream saw the complete prefix).
inline constexpr std::size_t kTraceRingCapacity = 1u << 16;

}  // namespace pdc::obs
