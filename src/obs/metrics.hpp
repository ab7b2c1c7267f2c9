// MetricsRegistry: process-wide counters, gauges, and fixed-bucket
// histograms for the library's hot paths.
//
// The paper's case-study courses all teach performance *observation* as a
// first-class PDC skill; this is the layer that makes PDCkit's own locks,
// pools, fabrics, and protocols observable. Design constraints, in order:
//
//  1. Instrumented hot paths must stay wait-free. Every metric is sharded
//     into kMetricShards cache-line-aligned slots; a thread picks its slot
//     once (round-robin at first touch) and then every update is a single
//     relaxed atomic RMW on a line it rarely shares. No locks, no CAS
//     loops, no seqlocks on the update path.
//  2. Scrapes are rare and may be slow: scrape() aggregates the shards
//     under the registry mutex. A scrape racing an update can miss that
//     update (relaxed loads) — monitoring semantics, documented here.
//  3. Everything compiles out under PDCKIT_OBS_NOOP (see obs/obs.hpp);
//     the registry itself stays linkable so tooling code need not be
//     conditionally compiled.
//
// Histograms use exponential base-2 buckets: bucket 0 counts values < 1,
// bucket b counts values in [2^(b-1), 2^b). The value unit is chosen per
// histogram by its writers (this library records microseconds).
//
// Metrics may carry labels (PR 5, scrape federation): a metric is
// identified by a MetricKey{name, sorted label pairs}. The flat-name
// overloads remain the fast path — a label-free lookup never builds a
// MetricKey (transparent map comparison against the string_view). Labeled
// series of one name form a family, rendered `name{k="v",...}` in the
// exposition and nested objects in JSON. Labels only affect *lookup*; the
// returned Counter/Gauge/Histogram objects keep the identical wait-free
// sharded update path.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdc::obs {

inline constexpr std::size_t kMetricShards = 16;
inline constexpr std::size_t kHistogramBuckets = 32;

/// Label pairs of one metric series. Canonical form is sorted by key with
/// unique keys; MetricsRegistry canonicalizes on lookup.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Identity of one metric series: base name plus canonical labels.
struct MetricKey {
  std::string name;
  Labels labels;  // sorted by key, keys unique

  /// `name{k="v",...}` with values escaped by append_label_value; just
  /// `name` when unlabeled. Canonical keys are the
  /// series identity everywhere a string identifies a series: snapshot
  /// find(), delta frames, the wire format, compare.py report keys.
  [[nodiscard]] std::string canonical() const;

  /// Inverse of canonical(); nullopt on malformed input.
  [[nodiscard]] static std::optional<MetricKey> parse(std::string_view text);

  /// Sorts labels by key (value order breaks ties) and drops duplicate
  /// keys (first occurrence wins).
  void canonicalize();

  /// Adds a label only if `key` is absent — federation stamps a source
  /// label without clobbering one applied by a lower aggregation tier.
  void add_label_if_absent(std::string_view key, std::string_view value);

  friend bool operator==(const MetricKey&, const MetricKey&) = default;
};

/// Orders series by (name, labels); transparent against a bare name so the
/// unlabeled fast path can probe the map with a string_view (an unlabeled
/// key sorts before every labeled sibling).
struct MetricKeyLess {
  using is_transparent = void;
  bool operator()(const MetricKey& a, const MetricKey& b) const {
    const int c = a.name.compare(b.name);
    return c != 0 ? c < 0 : a.labels < b.labels;
  }
  bool operator()(const MetricKey& a, std::string_view b) const {
    return a.name.compare(b) < 0;
  }
  bool operator()(std::string_view a, const MetricKey& b) const {
    const int c = b.name.compare(a);
    return c != 0 ? c > 0 : !b.labels.empty();
  }
};

/// Appends `text` as a JSON string literal: quoted, with `"`, `\`, `\n`
/// and `\t` backslash-escaped and every other byte below 0x20 written as
/// `\u00XX`. The one JSON escaper of the telemetry plane, so every body is
/// well-formed whatever the label text.
void append_json_string(std::string& out, std::string_view text);

/// Inverse of append_json_string for the line-oriented wire formats: reads
/// the literal starting at `line[i]` into `out` and moves `i` past it;
/// false on malformed input.
bool parse_quoted(std::string_view line, std::size_t& i, std::string& out);

/// Reads the ` <integer>` field at `line[i]` into `out` and moves `i` past
/// it; false when the space or the digits are missing or out of range.
template <typename Int>
bool parse_int(std::string_view line, std::size_t& i, Int& out) {
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  const auto [ptr, ec] =
      std::from_chars(line.data() + i, line.data() + line.size(), out);
  if (ec != std::errc{}) return false;
  i = static_cast<std::size_t>(ptr - line.data());
  return true;
}

/// Appends a label value with Prometheus text-format escaping (backslash,
/// quote, newline) — shared by MetricKey::canonical() and the exposition.
void append_label_value(std::string& out, std::string_view value);

namespace detail {
/// Slot index of the calling thread: assigned round-robin on first use,
/// stable for the thread's lifetime.
[[nodiscard]] std::size_t shard_index() noexcept;
}  // namespace detail

/// Fixed-rank interpolated quantile over power-of-two buckets: finds the
/// bucket containing rank ceil(q*count) and interpolates linearly between
/// its bounds (bucket 0 spans [0,1); the unbounded tail bucket reports its
/// lower bound — a deliberate under-estimate, since it has no upper edge).
/// Works on both full and trailing-zero-trimmed bucket vectors because
/// trimming never shifts indices.
[[nodiscard]] double histogram_quantile(const std::uint64_t* buckets,
                                        std::size_t n_buckets,
                                        std::uint64_t count, double q);

/// Deterministic float formatting for expositions and JSON (printf %.6g:
/// locale-independent, shortest-ish, never produces inf/nan for quantile
/// outputs).
[[nodiscard]] std::string format_double(double value);

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    slots_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards (may miss in-flight updates; never undercounts a
  /// completed one).
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& slot : slots_) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Bitmask of shards currently nonzero. High-rate pollers cache it and
  /// sum with total_masked(); a superset mask is always exact, so the only
  /// staleness is a shard's first-ever update going unseen until the
  /// poller's next full rescan (monitoring semantics, like scrape()).
  [[nodiscard]] std::uint32_t nonzero_shards() const noexcept {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kMetricShards; ++i) {
      if (slots_[i].value.load(std::memory_order_relaxed) != 0) {
        mask |= 1u << i;
      }
    }
    return mask;
  }

  /// Sum over the shards named in `mask` only — the sampling-tick fast
  /// path: an idle counter with one active shard costs one cache line
  /// instead of kMetricShards.
  [[nodiscard]] std::uint64_t total_masked(std::uint32_t mask) const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; mask != 0; ++i, mask >>= 1) {
      if (mask & 1) {
        sum += slots_[i].value.load(std::memory_order_relaxed);
      }
    }
    return sum;
  }

  void reset() noexcept {
    for (auto& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  Slot slots_[kMetricShards];
};

/// Additive gauge (add on entry, sub on exit). The instantaneous value is
/// the shard sum, so concurrent readers may observe transient values; the
/// high-water mark is tracked separately and is monotone.
class Gauge {
 public:
  void add(std::int64_t delta = 1) noexcept {
    const std::int64_t now =
        total_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) {
      // Lossy max: a racing higher value may briefly win; good enough for
      // a high-water mark and keeps the path store-only.
      std::int64_t seen = high_water_.load(std::memory_order_relaxed);
      while (now > seen &&
             !high_water_.compare_exchange_weak(seen, now,
                                                std::memory_order_relaxed)) {
      }
    }
  }
  void sub(std::int64_t delta = 1) noexcept { add(-delta); }

  [[nodiscard]] std::int64_t value() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    total_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  // A gauge's current value must be coherent enough for a high-water mark,
  // so it is a single atomic rather than sharded slots: gauges guard
  // counts like queue depth, updated orders of magnitude less often than
  // the counters next to them.
  alignas(64) std::atomic<std::int64_t> total_{0};
  alignas(64) std::atomic<std::int64_t> high_water_{0};
};

/// Fixed-bucket latency histogram (exponential base-2 buckets).
class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    auto& slot = slots_[detail::shard_index()];
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(value, std::memory_order_relaxed);
    slot.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  }
  void record(double value) noexcept {
    record(value <= 0.0 ? std::uint64_t{0} : static_cast<std::uint64_t>(value));
  }

  /// Bucket index for a value: 0 for v < 1, else 1 + floor(log2 v),
  /// clamped to the last bucket.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
    return std::min<std::size_t>(std::bit_width(value), kHistogramBuckets - 1);
  }
  /// Exclusive upper bound of bucket `b` (inf for the last).
  [[nodiscard]] static double bucket_upper(std::size_t b) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Interpolated quantile estimate (see obs::histogram_quantile).
    [[nodiscard]] double quantile(double q) const;

    /// Bucket-wise sum. Because every process uses the same power-of-two
    /// bucket edges, merging is *exact* (no resolution loss), associative,
    /// and commutative — the algebra scrape federation relies on.
    Snapshot& merge(const Snapshot& other);

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept {
    return snapshot_masked(~std::uint32_t{0});
  }

  /// Shards whose count is nonzero (record() always bumps count, so this
  /// covers sum and buckets too). Same poller contract as
  /// Counter::nonzero_shards.
  [[nodiscard]] std::uint32_t nonzero_shards() const noexcept {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kMetricShards; ++i) {
      if (slots_[i].count.load(std::memory_order_relaxed) != 0) {
        mask |= 1u << i;
      }
    }
    return mask;
  }

  /// Aggregate over the shards named in `mask` only (see
  /// Counter::total_masked for the contract).
  [[nodiscard]] Snapshot snapshot_masked(std::uint32_t mask) const noexcept {
    Snapshot out;
    for (std::size_t i = 0; i < kMetricShards && mask != 0;
         ++i, mask >>= 1) {
      if ((mask & 1) == 0) continue;
      const auto& slot = slots_[i];
      out.count += slot.count.load(std::memory_order_relaxed);
      out.sum += slot.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += slot.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  void reset() noexcept {
    for (auto& slot : slots_) {
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0, std::memory_order_relaxed);
      for (auto& b : slot.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  Slot slots_[kMetricShards];
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric's aggregated value at scrape time. `name` is the canonical
/// series key (base + label block); `base`/`labels` are its parsed parts.
struct MetricSample {
  std::string name;  // MetricKey::canonical() — unique within the snapshot
  std::string base;  // label-free metric name
  Labels labels;     // canonical label pairs (empty for flat series)
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;             // counter total / histogram count
  std::int64_t value = 0;              // gauge value
  std::int64_t high_water = 0;         // gauge high-water mark
  std::uint64_t sum = 0;               // histogram sum
  std::vector<std::uint64_t> buckets;  // histogram buckets (trailing zeros trimmed)

  /// Interpolated quantile estimate for histogram samples (0.0 otherwise).
  [[nodiscard]] double quantile(double q) const;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

struct MetricsSnapshot {
  // Sorted by (base, labels) within each kind group; kind groups appear in
  // the order counters, gauges, histograms. Canonical names are unique.
  std::vector<MetricSample> samples;

  [[nodiscard]] const MetricSample* find(std::string_view name) const;
  /// Counter total / gauge value / histogram count; 0 when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Compact JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Labeled families nest one level: `"base":{"k=\"v\"":...}`, with an
  /// unlabeled series of the same base under the empty-string key.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable dump (one metric per line), zero-valued metrics skipped.
  void render(std::ostream& os) const;

  /// Deterministic line-oriented encoding for cross-process federation
  /// (exact integers — unlike the exposition, which rounds derived
  /// quantiles). One line per series: `c "name" count`,
  /// `g "name" value high_water`, `h "name" count sum n b0..bn-1`, with the
  /// canonical name JSON-quoted. Round-trips through from_wire().
  [[nodiscard]] std::string to_wire() const;
  /// Inverse of to_wire(); nullopt on any malformed line.
  [[nodiscard]] static std::optional<MetricsSnapshot> from_wire(
      std::string_view wire);
};

/// A registry of metrics. `instance()` is the process-wide default that the
/// PDC_OBS_* macros write to; additional instances can be created for
/// logically separate metric planes (e.g. one per simulated rank, each
/// behind its own TelemetryServer — see obs/federation.hpp). Metric objects
/// are interned by MetricKey and live for the registry's lifetime, so hot
/// paths cache the returned reference (function-local static for the
/// macros, a member pointer for per-instance users).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Labeled lookups: `labels` is canonicalized (sorted by key, duplicate
  /// keys dropped) before interning, so every permutation of the same
  /// pairs maps to one series.
  Counter& counter(std::string_view name, Labels labels);
  Gauge& gauge(std::string_view name, Labels labels);
  Histogram& histogram(std::string_view name, Labels labels);

  /// Aggregates every registered metric. Safe to call concurrently with
  /// updates (monitoring semantics; see file comment).
  [[nodiscard]] MetricsSnapshot scrape() const;

  /// One row of poll_rows(): a series' canonical name plus a stable
  /// pointer to its metric object. Exactly one pointer is non-null,
  /// matching `kind`.
  struct PollRow {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// Stable-pointer enumeration in scrape order (counters, gauges,
  /// histograms, each sorted by key). Metric objects are interned for the
  /// registry's lifetime and reset() never removes them, so a high-rate
  /// poller (the time-series sampler) caches these rows and re-fetches
  /// only when registration_epoch() moves — a tick then reads the shard
  /// slots directly instead of paying scrape()'s per-series allocations.
  [[nodiscard]] std::vector<PollRow> poll_rows() const;

  /// Bumped once per newly interned series. Registration is the slow path
  /// (first touch of a name); metric updates never move it.
  [[nodiscard]] std::uint64_t registration_epoch() const {
    return registration_epoch_.load(std::memory_order_acquire);
  }

  /// Zeroes every metric, keeping registrations (cached references stay
  /// valid). Intended for tests, benches, and the `reset` control verb.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<MetricKey, std::unique_ptr<Counter>, MetricKeyLess> counters_;
  std::map<MetricKey, std::unique_ptr<Gauge>, MetricKeyLess> gauges_;
  std::map<MetricKey, std::unique_ptr<Histogram>, MetricKeyLess> histograms_;
  std::atomic<std::uint64_t> registration_epoch_{0};
};

}  // namespace pdc::obs
