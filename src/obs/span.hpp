// End-to-end request tracing: span trees, tail sampling, critical path.
//
// The trace rings in trace.hpp answer "what did this *thread* do"; this
// file answers "what happened to this *request*". Three pieces:
//
//  1. SpanContext / ActiveSpan — a 64-bit trace id plus a span id. The
//     client mints a root span per request (span_root), every hop opens a
//     child (span_begin) and closes it (span_end). Contexts travel in
//     net frames (MessageCodec reserves a 16-byte trace header, absent
//     when tracing is off) and on the widened WireTrace piggyback that
//     mp::Envelope / net::Datagram already carry, so one request's spans
//     share a trace id across LoadGen -> Server -> ReplicatedKV -> Raft.
//
//  2. SpanCollector — a per-process session (same lifecycle contract as
//     TraceCollector: one running at a time, start() resets all session
//     counters so fixed-seed sim runs are byte-stable). span_end() only
//     appends a fixed-size record to the calling thread's span buffer;
//     harvests feed the records to the sampler in close order. Completed
//     traces go through *tail-based sampling*: a trace is kept when its
//     root latency beats the rotating threshold (the smallest root
//     latency currently kept, once the store is full) or when any span
//     carries an error tag; everything else is dropped with exact
//     accounting (pdc.span.sampled + pdc.span.dropped == pdc.span.finished,
//     exact at stop(); a mid-session scrape lags by the unharvested spans).
//     Kept traces are annotated with their *critical path* — the longest
//     causal chain through the tree, with per-span self-time so "queued
//     in shard ready-list" vs "raft replication" vs "apply" attribution
//     falls out — and pinned as *exemplars* to the pdc.trace.root_us
//     histogram bucket their root latency landed in (/metrics.json).
//
//  3. Wire + JSON renderers — /trace/slowest?n=K and /trace/byid?id= on
//     TelemetryServer, plus a line-oriented wire form the Aggregator
//     federates with the established insert-if-absent source stamping.
//
// Span names must be string literals (stored by pointer at record time,
// copied only when a trace is kept — same contract as trace.hpp labels).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdc::obs {

/// Identity of one span inside one request trace. trace_id 0 means "not
/// tracing" — every operation taking a SpanContext treats that as a no-op,
/// so untraced requests pay nothing beyond the zero check.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// True while a SpanCollector session is running (always false under
/// PDCKIT_OBS_NOOP). Mirrors trace_enabled(); the two sessions are
/// independent — rings can run without spans and vice versa.
inline bool span_enabled() noexcept {
  return kObsEnabled && detail::g_span_enabled.load(std::memory_order_relaxed);
}

/// An open span. Move-only value (storable in pending-op structs across
/// asynchronous completion, e.g. ReplicatedKV::PendingWrite) that must be
/// closed explicitly with span_end(); a default-constructed or already
/// ended span is "not recording" and span_end() on it is a no-op, so the
/// untraced path needs no branches at the call sites.
class ActiveSpan {
 public:
  ActiveSpan() = default;
  ActiveSpan(ActiveSpan&& other) noexcept { swap(other); }
  ActiveSpan& operator=(ActiveSpan&& other) noexcept {
    if (this != &other) {
      ctx_ = SpanContext{};
      swap(other);
    }
    return *this;
  }
  ActiveSpan(const ActiveSpan&) = delete;
  ActiveSpan& operator=(const ActiveSpan&) = delete;

  [[nodiscard]] bool recording() const noexcept { return ctx_.valid(); }
  [[nodiscard]] SpanContext context() const noexcept { return ctx_; }

 private:
  friend ActiveSpan span_root(const char*, std::uint64_t, std::uint64_t);
  friend ActiveSpan span_begin(const char*, SpanContext, std::uint64_t);
  friend void span_end(ActiveSpan&, bool);

  void swap(ActiveSpan& other) noexcept {
    std::swap(ctx_, other.ctx_);
    std::swap(parent_id_, other.parent_id_);
    std::swap(name_, other.name_);
    std::swap(start_us_, other.start_us_);
  }

  SpanContext ctx_{};
  std::uint64_t parent_id_ = 0;
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
};

/// Mints the root span of a new trace. `trace_id` is caller-chosen and
/// must be nonzero and unique per request within the session (LoadGen
/// uses the global request sequence number). `start_us` backdates the
/// span (0 = now): an open-loop client starts the root at the request's
/// *scheduled* send time so coordinated-omission queueing is attributed
/// to the trace, not silently dropped. Returns a non-recording span when
/// no collector is running or trace_id is 0.
[[nodiscard]] ActiveSpan span_root(const char* name, std::uint64_t trace_id,
                                   std::uint64_t start_us = 0);

/// Opens a child span under `parent`. Non-recording when the parent is
/// invalid or no collector is running, so contexts off the wire can be
/// passed through unconditionally.
[[nodiscard]] ActiveSpan span_begin(const char* name, SpanContext parent,
                                    std::uint64_t start_us = 0);

/// Closes a span: appends its record to the calling thread's span buffer
/// under that buffer's own lock, allocating nothing once the buffer
/// exists. The call whose append fills the buffer then harvests under the
/// collector lock; the tail-sampling verdict comes at a harvest (see
/// SpanCollector). No-op on a non-recording span; the span stops
/// recording afterwards, so double-close is harmless.
void span_end(ActiveSpan& span, bool error = false);

/// Ambient span context for the calling thread. wire_capture() stamps it
/// onto outgoing WireTrace piggybacks, so mp sends made under a SpanScope
/// automatically join the scoped trace.
[[nodiscard]] SpanContext current_span() noexcept;

/// Reads *and clears* the context most recently adopted from an incoming
/// message on this thread (wire_accept() parks it there). Server loops
/// call this right after receiving to parent their handling span;
/// clearing prevents a later untraced message from inheriting it.
[[nodiscard]] SpanContext take_incoming_span() noexcept;

/// RAII ambient-context scope: sends made while alive are stamped with
/// `ctx` (restores the previous ambient context on destruction).
class SpanScope {
 public:
  explicit SpanScope(SpanContext ctx);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanContext prev_{};
};

/// RAII server-side bracket: opens `name` as a child of `parent`, makes
/// it the ambient context for the body, and closes it on destruction —
/// one line covers every early-return path of a handler.
class SpanGuard {
 public:
  SpanGuard(const char* name, SpanContext parent, std::uint64_t start_us = 0)
      : span_(span_begin(name, parent, start_us)),
        scope_(span_.recording() ? span_.context() : current_span()) {}
  ~SpanGuard() { span_end(span_, error_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  [[nodiscard]] SpanContext context() const noexcept { return span_.context(); }
  void set_error() noexcept { error_ = true; }

 private:
  ActiveSpan span_;
  SpanScope scope_;
  bool error_ = false;
};

/// One closed span inside a kept trace.
struct SpanNode {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  bool error = false;
  std::string name;
};

/// A kept trace: the assembled span tree plus sampling metadata. `source`
/// is empty locally; the Aggregator stamps the origin rank on first
/// sight (insert-if-absent, same rule as metric source labels).
struct TraceSummary {
  std::uint64_t trace_id = 0;
  std::uint64_t root_us = 0;  // root span latency
  bool error = false;         // any span tagged error
  std::string source;
  std::vector<SpanNode> spans;  // sorted by span_id
};

/// One hop of a critical path: the span and how much of the trace's
/// latency is *its own* (duration not covered by on-path children).
struct CriticalHop {
  std::uint64_t span_id = 0;
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t self_us = 0;
};

/// Longest causal chain through a trace, root first (hops ordered by
/// start time). Walks backwards from each on-path span's end: the child
/// whose end is latest-but-not-after the cursor joins the path, the gap
/// before the cursor is the parent's self-time, and the walk recurses
/// from the child's start. Deterministic for a deterministic tree.
[[nodiscard]] std::vector<CriticalHop> critical_path(const TraceSummary& trace);

/// An exemplar: the trace whose root latency most recently landed in one
/// pdc.trace.root_us histogram bucket — the jump-off from "the p99 is
/// 40ms" to "trace #4711 is why".
struct TraceExemplar {
  std::uint64_t trace_id = 0;
  std::uint64_t root_us = 0;
};

/// Completed traces whose verdict the collector remembers, for spans that
/// close after their root: slot = trace id mod this, so sequential ids
/// keep the last kSpanVerdictSlots verdicts. A late span whose verdict
/// was overwritten waits as if its root were still open, and counts
/// dropped (unless its trace is still kept, which absorbs it).
inline constexpr std::size_t kSpanVerdictSlots = 4096;

/// Closed spans that may wait for their root to close. When full, the
/// oldest quarter is counted dropped.
inline constexpr std::size_t kSpanParkedCapacity = 4096;

struct SpanCollectorConfig {
  /// Tail-sampling store size: once full, a new error-free trace must
  /// beat the smallest kept root latency (the rotating threshold) to be
  /// kept, evicting that smallest trace. Error traces are always kept.
  std::size_t keep_slowest = 32;
};

/// A span session. Same shape as TraceCollector: construction does
/// nothing, start() begins recording process-wide (one session at a
/// time, checked), stop() ends it; render after or during the session.
///
/// A *harvest* drains every thread's span buffer under the collector's
/// lock and settles the records in close order. It runs when a thread's
/// buffer fills (256 records), at the start of every reader below, and
/// inside stop(). A record that took its close number after the harvest
/// began waits for the next one, so every verdict sees each span of its
/// trace that closed before the root did.
class SpanCollector {
 public:
  explicit SpanCollector(SpanCollectorConfig config = {});
  ~SpanCollector();

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Resets span-id/accounting state and installs this collector as the
  /// span_end() sink. Registers the pdc.span.* conservation counters and
  /// the pdc.trace.root_us histogram eagerly so scrapes are stable.
  void start();

  /// Uninstalls the sink after a final harvest. Spans still open are
  /// counted dropped when they eventually close; parked spans of
  /// never-closed roots are counted dropped immediately. Kept traces stay
  /// renderable after stop().
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Exact tail-sampling accounting (traces, not spans — the span-level
  /// ledger is the pdc.span.* counters).
  [[nodiscard]] std::uint64_t traces_completed() const;
  [[nodiscard]] std::uint64_t traces_kept() const;
  [[nodiscard]] std::uint64_t traces_dropped() const;
  /// Kept once, then displaced by a slower trace after the store filled.
  [[nodiscard]] std::uint64_t traces_evicted() const;
  /// Current rotating threshold (0 until the store is full).
  [[nodiscard]] std::uint64_t threshold_us() const;

  [[nodiscard]] std::vector<TraceSummary> slowest(std::size_t n) const;
  [[nodiscard]] std::optional<TraceSummary> by_id(std::uint64_t trace_id) const;
  [[nodiscard]] std::array<std::optional<TraceExemplar>, kHistogramBuckets>
  exemplars() const;

  /// JSON renderers for the telemetry endpoints (newline-terminated).
  [[nodiscard]] std::string slowest_json(std::size_t n) const;
  [[nodiscard]] std::string byid_json(std::uint64_t trace_id) const;
  /// {"pdc.trace.root_us":[{"bucket":..,"le":..,"trace_id":..,"root_us":..}]}
  /// — spliced into /metrics.json next to the histogram it annotates.
  [[nodiscard]] std::string exemplars_json() const;
  /// Line-oriented federation form (see parse_traces_wire).
  [[nodiscard]] std::string slowest_wire(std::size_t n) const;

 private:
  SpanCollectorConfig config_;
  bool running_ = false;
};

/// Renders trace summaries as the /trace/slowest JSON array element form
/// (critical-path annotated). Shared by SpanCollector and Aggregator.
[[nodiscard]] std::string trace_json(const TraceSummary& trace);

/// Wire form: one "t <trace_id> <root_us> <error> <source|->" line per
/// trace, followed by one "s <span_id> <parent_id> <start_us> <end_us>
/// <error> <name>" line per span.
[[nodiscard]] std::string trace_summaries_wire(
    const std::vector<TraceSummary>& traces);
[[nodiscard]] std::optional<std::vector<TraceSummary>> parse_traces_wire(
    const std::string& text);

}  // namespace pdc::obs
