// Continuous profiling plane: a sampling task/worker profiler and a
// lock-contention observatory (PR 7).
//
// Two instruments, one design rule — the *instrumented* path pays almost
// nothing, the *observer* pays everything:
//
//  1. Worker slots. Each pool worker owns a WorkerSlot and publishes
//     "what am I doing right now" — a WorkerState plus an interned task
//     label — as ONE packed 64-bit word written with a single relaxed
//     store. This is the degenerate case of a seqlock: because the whole
//     record fits in one atomic word, the odd/even sequence dance
//     collapses and publication is strictly cheaper than the classical
//     two-store bracket (no RMW, no fence, no branch). A sampler walks
//     the slots on its own schedule, decodes each word, and accumulates
//     folded flamegraph stacks `worker;state[;label] <count>` — on-CPU
//     (running/stealing) vs off-CPU (parked/idle) attribution per worker
//     for the price of ~2 relaxed stores per task on the hot path.
//
//     The sampler is virtual-clock-driven under a testkit::SimScheduler
//     run (run_sim_sampler as one of the logical threads — fixed seed ⇒
//     byte-stable folded output, the golden test) and wall-clock-driven
//     otherwise (start()/stop() own a background thread).
//
//  2. Contention sites. Blocking primitives (spinlocks, RwLock, Monitor,
//     BoundedQueue) declare a static per-call-site ContentionSite
//     (name + file:line, interned into a process-wide catalog) and feed
//     their *slow path only* with the measured wait. Waits land in the
//     labeled histogram family `pdc.contend.wait_us{site="..."}` in the
//     process-wide MetricsRegistry, so they federate across ranks like
//     any other series; contention_topk() ranks sites by total wait for
//     the /profile/contention endpoint. Under SimScheduler the waits are
//     virtual microseconds — fixed-seed runs produce identical
//     histograms.
//
// Everything here compiles out under PDCKIT_OBS_NOOP: publish/record
// become no-ops, the Profiler returns empty output, and the telemetry
// endpoints answer an error body (tests assert this).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdc::obs {

/// What a worker is doing at the instant of a sample.
enum class WorkerState : std::uint8_t {
  kIdle = 0,      // between tasks, not yet parked
  kRunning = 1,   // executing a task
  kStealing = 2,  // sweeping peer deques / hunting for work
  kParked = 3,    // blocked on the idle CV
};

[[nodiscard]] const char* to_string(WorkerState state);

/// One worker's published record: WorkerState in the low byte, interned
/// label id in the upper 56 bits, packed so publication is a single
/// relaxed store (see file comment). Slots are owned by the Profiler and
/// never freed; the registering worker is the only writer.
class WorkerSlot {
 public:
  [[nodiscard]] static constexpr std::uint64_t pack(
      WorkerState state, std::uint32_t label_id) noexcept {
    return (static_cast<std::uint64_t>(label_id) << 8) |
           static_cast<std::uint64_t>(state);
  }
  [[nodiscard]] static constexpr WorkerState state_of(
      std::uint64_t word) noexcept {
    return static_cast<WorkerState>(word & 0xff);
  }
  [[nodiscard]] static constexpr std::uint32_t label_of(
      std::uint64_t word) noexcept {
    return static_cast<std::uint32_t>(word >> 8);
  }

  /// The hot-path publish: one relaxed store, no RMW.
  void publish(WorkerState state, std::uint32_t label_id = 0) noexcept {
    if constexpr (kObsEnabled) {
      word_.store(pack(state, label_id), std::memory_order_relaxed);
    } else {
      (void)state;
      (void)label_id;
    }
  }

  /// Owner-side read of the current word (for save/restore scoping).
  [[nodiscard]] std::uint64_t word() const noexcept {
    if constexpr (kObsEnabled) {
      return word_.load(std::memory_order_relaxed);
    } else {
      return 0;
    }
  }

  /// Restores a word previously read with word() — the second half of the
  /// ProfiledTask store pair.
  void restore(std::uint64_t word) noexcept {
    if constexpr (kObsEnabled) {
      word_.store(word, std::memory_order_relaxed);
    } else {
      (void)word;
    }
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Profiler;
  alignas(64) std::atomic<std::uint64_t> word_{0};
  std::string name_;     // fixed at registration
  bool active_ = false;  // guarded by the Profiler mutex
};

namespace detail {
// constinit: a constant-initialized thread_local is accessed directly,
// not through GCC's TLS init wrapper (which UBSan reports as a null
// store/load).
extern constinit thread_local WorkerSlot* t_profile_slot;
}  // namespace detail

/// Folded flamegraph accumulation: stack key → sample count. Keys are
/// `worker;state` for non-running states and `worker;running;label` when a
/// task label is published — flamegraph.pl-compatible once rendered.
using FoldedProfile = std::map<std::string, std::uint64_t>;

/// The process-wide sampling profiler. Workers register a slot once and
/// publish into it; one sampler (background thread, sim logical thread, or
/// an endpoint's collect window) walks the slots. Registration and
/// sampling serialize on one mutex — both are rare; the publish path never
/// touches it.
class Profiler {
 public:
  /// Reserved label ids, interned at construction: 0 renders as "-" (no
  /// label), 1 is the pools' default "task" label.
  static constexpr std::uint32_t kNoLabel = 0;
  static constexpr std::uint32_t kTaskLabel = 1;

  /// Never destroyed (leaked singleton): worker threads may release slots
  /// during static teardown, after function-local statics are gone.
  static Profiler& instance();

  /// Registers (or revives) the slot named `name`. An inactive slot with
  /// the same name is reused, so repeated pool construction in one process
  /// keeps the slot set — and the folded key set — stable. Returns nullptr
  /// under PDCKIT_OBS_NOOP.
  WorkerSlot* register_worker(std::string name);

  /// Marks the slot inactive (skipped by samplers). The slot memory stays
  /// valid forever; a later register_worker with the same name revives it.
  void release_worker(WorkerSlot* slot);

  /// Binds `slot` as the calling thread's current slot (nullptr unbinds),
  /// making it reachable via current_slot() for ProfiledTask and the pool
  /// publish helpers.
  static void bind_current_thread(WorkerSlot* slot) {
    detail::t_profile_slot = slot;
  }
  [[nodiscard]] static WorkerSlot* current_slot() {
    return detail::t_profile_slot;
  }

  /// Interns `label`, returning a stable small id for publish(). Call once
  /// per site and cache (PDC_PROFILE_TASK does).
  std::uint32_t intern_label(std::string_view label);

  /// Takes one sample of every active slot into the global accumulation.
  void sample_once();

  /// Samples every active slot into `folded` (one count per slot). Used by
  /// sample_once and by collect windows that want their own accumulator.
  void sample_into(FoldedProfile& folded);

  /// Wall-clock background sampler at `period_us` (default 1 ms = 1 kHz).
  /// No-op if already running. stop() joins; call it before process exit.
  void start(std::uint64_t period_us = 1000);
  void stop();
  [[nodiscard]] bool running() const;

  /// Deterministic sampler body for a SimScheduler logical thread: parks
  /// `period_seconds` of virtual time, samples, repeats until `done()`.
  /// Fixed seed + fixed workload ⇒ byte-stable folded().
  void run_sim_sampler(double period_seconds,
                       const std::function<bool()>& done);

  /// Samples inline for `duration_ms` of wall time at `period_us` and
  /// returns just that window's folded text (the global accumulation is
  /// untouched) — the /profile?ms=N collect-then-respond body.
  [[nodiscard]] std::string collect(std::uint64_t duration_ms,
                                    std::uint64_t period_us = 1000);

  /// Clears the global folded accumulation and sample count; slots and
  /// interned labels survive (so a second fixed-seed run reproduces the
  /// first byte-for-byte).
  void reset();

  [[nodiscard]] std::uint64_t samples() const;

  /// flamegraph.pl-compatible folded stacks of the global accumulation:
  /// one `key count\n` line per stack, sorted by key.
  [[nodiscard]] std::string folded() const;

  /// {"samples":N,"folded":{"key":count,...}} of the global accumulation.
  [[nodiscard]] std::string to_json() const;

 private:
  Profiler();
  ~Profiler() = default;  // never runs; the instance is leaked

  void sample_into_locked(FoldedProfile& folded);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::string> labels_;  // id → text
  std::map<std::string, std::uint32_t, std::less<>> label_ids_;
  FoldedProfile folded_;
  std::uint64_t samples_ = 0;
  std::thread sampler_;
  std::atomic<bool> sampling_{false};
  std::uint64_t period_us_ = 1000;
};

/// Publishes a worker-state transition for the calling thread's bound
/// slot, if any — the pools' steal/park hook (their per-task hook caches
/// the slot pointer instead; see worker_loop).
inline void publish_worker_state(WorkerState state,
                                 std::uint32_t label_id = 0) {
  if constexpr (kObsEnabled) {
    if (WorkerSlot* slot = Profiler::current_slot(); slot != nullptr) {
      slot->publish(state, label_id);
    }
  } else {
    (void)state;
    (void)label_id;
  }
}

/// Scoped task label: publishes running/<label> to the calling thread's
/// slot on construction and restores the previous word on destruction —
/// the advertised per-task "plain store pair". Nested scopes restore
/// correctly; a thread with no bound slot (external helper, NOOP build)
/// pays one thread-local read.
class ProfiledTask {
 public:
  explicit ProfiledTask(std::uint32_t label_id) noexcept {
    if constexpr (kObsEnabled) {
      slot_ = Profiler::current_slot();
      if (slot_ != nullptr) {
        prev_ = slot_->word();
        slot_->publish(WorkerState::kRunning, label_id);
      }
    } else {
      (void)label_id;
    }
  }
  ~ProfiledTask() {
    if constexpr (kObsEnabled) {
      if (slot_ != nullptr) slot_->restore(prev_);
    }
  }
  ProfiledTask(const ProfiledTask&) = delete;
  ProfiledTask& operator=(const ProfiledTask&) = delete;

 private:
  WorkerSlot* slot_ = nullptr;
  std::uint64_t prev_ = 0;
};

/// One blocking primitive's contention identity: a name plus the file:line
/// of its declaration, interned into the process-wide site catalog on
/// first construction. record() lands the measured wait (slow path only —
/// never called on an uncontended acquire) in the labeled histogram
/// `pdc.contend.wait_us{site="<name>"}`. Sites are function-local statics
/// inside the primitives (PDC_CONTENTION_SITE), so a site exists only
/// once its lock first contends — deterministic under a fixed-seed sim.
class ContentionSite {
 public:
  ContentionSite(const char* name, const char* file, int line) {
    if constexpr (kObsEnabled) {
      init_slow(name, file, line);
    } else {
      (void)name;
      (void)file;
      (void)line;
    }
  }

  void record(std::uint64_t wait_us) noexcept {
    if constexpr (kObsEnabled) {
      wait_hist_->record(wait_us);
    } else {
      (void)wait_us;
    }
  }

 private:
  void init_slow(const char* name, const char* file, int line);

  Histogram* wait_hist_ = nullptr;
};

/// Catalog lookup: file:line of a registered site name; nullopt for names
/// never registered in this process (e.g. series federated from another
/// rank).
struct SiteLocation {
  std::string file;
  int line = 0;
};
[[nodiscard]] std::optional<SiteLocation> contention_site_location(
    std::string_view name);

/// One row of the top-k most-contended view, derived from a snapshot's
/// `pdc.contend.wait_us{site=}` family.
struct ContentionStat {
  std::string site;
  std::uint64_t count = 0;          // contended acquires
  std::uint64_t total_wait_us = 0;  // histogram sum
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::string file;  // empty when the site is not in this process's catalog
  int line = 0;
};

/// Ranks contention sites in `snapshot` by total wait (descending; name
/// breaks ties), truncated to `k`. Only series whose labels are exactly
/// {site} are considered, so a federated snapshot contributes its
/// fleet-wide aggregates, not the per-rank stamped duplicates.
[[nodiscard]] std::vector<ContentionStat> contention_topk(
    const MetricsSnapshot& snapshot, std::size_t k);

/// {"top":[{"site":...,"count":...,"total_wait_us":...,...},...]} — the
/// /profile/contention body.
[[nodiscard]] std::string contention_json(
    const std::vector<ContentionStat>& stats);

/// Generic top-k by value (descending; key breaks ties) — shared by the
/// contention view and the aggregator's /metrics/topk.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
top_k_by_value(std::vector<std::pair<std::string, std::uint64_t>> entries,
               std::size_t k);

/// Parses flamegraph-folded text (`key count` per line) into a
/// FoldedProfile, summing duplicate keys and skipping malformed lines
/// (error bodies from a NOOP rank parse as empty).
[[nodiscard]] FoldedProfile parse_folded(std::string_view text);

/// Inverse of parse_folded: one `key count\n` line per entry, sorted.
[[nodiscard]] std::string render_folded(const FoldedProfile& folded);

#ifdef PDCKIT_OBS_NOOP

#define PDC_CONTENTION_SITE(site_name)                     \
  ([]() -> ::pdc::obs::ContentionSite& {                   \
    static ::pdc::obs::ContentionSite pdc_contention_site_{\
        site_name, __FILE__, __LINE__};                    \
    return pdc_contention_site_;                           \
  }())
#define PDC_PROFILE_TASK(label) ((void)0)

#else

/// Per-call-site contention identity (lazy static, registered once).
#define PDC_CONTENTION_SITE(site_name)                     \
  ([]() -> ::pdc::obs::ContentionSite& {                   \
    static ::pdc::obs::ContentionSite pdc_contention_site_{\
        site_name, __FILE__, __LINE__};                    \
    return pdc_contention_site_;                           \
  }())

/// Labels the rest of the enclosing scope for the sampling profiler:
/// interns `label` once per call site, then publishes running/<label> for
/// the scope's duration (restoring the previous state on exit). At most
/// one per scope.
#define PDC_PROFILE_TASK(label)                               \
  static const std::uint32_t pdc_profile_label_ =             \
      ::pdc::obs::Profiler::instance().intern_label(label);   \
  ::pdc::obs::ProfiledTask pdc_profile_scope_ {               \
    pdc_profile_label_                                        \
  }

#endif  // PDCKIT_OBS_NOOP

}  // namespace pdc::obs
