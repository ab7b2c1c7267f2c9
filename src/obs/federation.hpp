// Scrape federation: cross-process aggregation of the telemetry plane.
//
// The paper's courses teach performance observation of *distributed*
// programs; a per-process /metrics endpoint only shows one rank. This
// module adds the operator tier:
//
//   rank 0  TelemetryServer ──┐
//   rank 1  TelemetryServer ──┤   Aggregator ── its own route table
//   rank 2  TelemetryServer ──┤   (scrape +     (Aggregator::make_routes,
//   rank 3  TelemetryServer ──┘    merge)        served by serve_route)
//
// An Aggregator scrapes N TelemetryServer endpoints concurrently (the
// lock-free ThreadPool via parallel::fan_out — one in-flight scrape per
// runner), decodes each /metrics.wire reply, and merges:
//
//   counters    sum across sources
//   gauges      last-written value wins (source input order)
//   histograms  bucket-wise sum — exact, associative, and commutative
//               because every process shares the same power-of-two bucket
//               edges (no resolution loss, no rebinning)
//
// Every input series reappears stamped with a source label
// `rank="<source>"`, and each input key also feeds an *aggregate* series
// under its original labels, so the federated view answers both "what is
// the fleet-wide p99" and "which rank is the outlier". Stamping is
// insert-if-absent: a series that already carries the label — e.g. one
// produced by a lower Aggregator tier — keeps its original attribution,
// which is what lets Aggregators scrape other Aggregators (/metrics.wire
// is served by both).
//
// Determinism: merge output ordering comes from sorted MetricKey maps, so
// a fixed set of input snapshots produces one byte-stable result
// regardless of scrape completion order (golden test over a fixed-seed
// 4-rank sim in tests/obs_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "support/status.hpp"

namespace pdc::obs {

/// One federated input: the snapshot scraped from `source` (the value
/// stamped into the source label).
struct SourceSnapshot {
  std::string source;
  MetricsSnapshot snapshot;
};

/// Pure merge of per-source snapshots into one federated view (semantics
/// in the file comment). Exposed separately from Aggregator so merge
/// algebra is testable without a network.
[[nodiscard]] MetricsSnapshot merge_federated(
    const std::vector<SourceSnapshot>& sources);

/// One scrape target: a telemetry endpoint plus the source-label value its
/// series are stamped with.
struct ScrapeTarget {
  net::Address address;
  std::string source;
};

struct AggregatorConfig {
  net::ThreadingModel model = net::ThreadingModel::kThreadPerConnection;
};

/// Scrapes its target set on demand and re-exposes the merged view on its
/// own route table: the snapshot routes TelemetryServer shares
/// (snapshot_routes over federate()), plus the federated /healthz,
/// /metrics/topk, /profile/folded, /trace/slowest{,.wire} and
/// /alerts{,.wire} views and the reset / add-target / remove-target
/// control verbs. Every federated family fetches its targets through one
/// fan-out step (fetch_all): the same concurrency, source stamping
/// (insert-if-absent, so aggregator tiers stack) and pdc.fed.scrape_*
/// accounting for metrics, profiles, traces and alerts.
///
/// Self-metrics (pdc.fed.*) go to the process-wide registry, never into
/// the federated output — unless a target happens to serve that registry.
class Aggregator {
 public:
  Aggregator(net::Network& net, int host, std::uint16_t port,
             std::vector<ScrapeTarget> targets, AggregatorConfig config = {});
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  [[nodiscard]] net::Address address() const;

  /// Scrapes every target concurrently and merges. Unreachable targets
  /// are skipped (their series simply disappear from this round) and
  /// counted in pdc.fed.scrape_errors.
  [[nodiscard]] MetricsSnapshot federate();

  /// Federates the targets' /profile/folded bodies: rank-stamps each
  /// stack with a `rank=<source>` root frame (unless already
  /// stamped) and sums by key. Targets answering errors (NOOP ranks,
  /// unreachable) are skipped.
  [[nodiscard]] FoldedProfile federate_profiles();

  /// Federates the targets' kept-trace lists: fetches each
  /// /trace/slowest.wire?n=N, stamps `source` on traces that carry none
  /// (insert-if-absent — a lower aggregator tier's attribution survives),
  /// merges, and returns the fleet-wide n slowest (root_us descending;
  /// ties broken by source then trace id, so the list is byte-stable).
  /// Targets answering errors (NOOP ranks, no collector, unreachable)
  /// are skipped.
  [[nodiscard]] std::vector<TraceSummary> federate_traces(std::size_t n);

  /// Federates the targets' /alerts.wire rows: stamps `source` on rows
  /// that carry none (insert-if-absent — a lower aggregator tier's
  /// attribution survives) and returns them sorted by (rule, source).
  /// Targets answering errors (NOOP ranks, no monitor, unreachable) are
  /// skipped.
  [[nodiscard]] std::vector<AlertWireRow> federate_alerts();

  /// Hot add/remove (also reachable as the add-target / remove-target
  /// control verbs): the change is visible to the next federate() round.
  /// remove_target returns false when no target matches `source`.
  void add_target(ScrapeTarget target);
  bool remove_target(std::string_view source);
  [[nodiscard]] std::size_t target_count() const;

  /// Stops accepting; existing connections finish their current request.
  void stop();

  /// The endpoints this aggregator answers.
  [[nodiscard]] const std::vector<Route>& routes() const { return routes_; }

 private:
  [[nodiscard]] std::vector<Route> make_routes();
  [[nodiscard]] std::string topk_body(const std::string& endpoint);
  [[nodiscard]] support::Result<std::string> fetch_text(
      const ScrapeTarget& target, const std::string& endpoint);

  /// The fetch step of every federated family: fetches `endpoint` from a
  /// copy of the target set concurrently, skips {"error"...} bodies (NOOP
  /// ranks, nothing attached) and parses the rest with `parse` (which
  /// returns an optional) into index-stable slots. Returns
  /// {source, parsed} pairs in target order, never completion order. Each
  /// fetch is timed into pdc.fed.scrape_us; a target that cannot be
  /// reached, or whose reply does not parse, counts in
  /// pdc.fed.scrape_errors.
  template <typename Parse>
  auto fetch_all(const std::string& endpoint, Parse parse);

  /// Sends a control verb to every target; returns how many acknowledged.
  std::size_t broadcast_control(const std::string& verb);

  net::Network& net_;
  int host_;
  mutable std::mutex targets_mutex_;
  std::vector<ScrapeTarget> targets_;  // guarded by targets_mutex_
  parallel::ThreadPool pool_;
  std::mutex rate_mutex_;
  // Previous /metrics/topk?by=rate counter totals (server-wide cursor).
  std::map<std::string, std::uint64_t> rate_prev_;
  std::vector<Route> routes_;
  std::unique_ptr<net::Server> server_;  // last member: threads start here
};

}  // namespace pdc::obs
