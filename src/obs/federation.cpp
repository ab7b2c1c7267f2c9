#include "obs/federation.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "parallel/parallel_for.hpp"

namespace pdc::obs {

namespace {

/// Combines `from` into `into` under one key (kinds always match: the key
/// maps are segregated by kind).
void merge_into(MetricSample& into, const MetricSample& from) {
  switch (from.kind) {
    case MetricKind::kCounter:
      into.count += from.count;
      break;
    case MetricKind::kGauge:
      // Last write wins, in source input order (associative: combining
      // prefixes first still ends on the final source's value).
      into.value = from.value;
      into.high_water = from.high_water;
      break;
    case MetricKind::kHistogram:
      into.count += from.count;
      into.sum += from.sum;
      if (into.buckets.size() < from.buckets.size()) {
        into.buckets.resize(from.buckets.size(), 0);
      }
      for (std::size_t b = 0; b < from.buckets.size(); ++b) {
        into.buckets[b] += from.buckets[b];
      }
      break;
  }
}

using KeyedSamples = std::map<MetricKey, MetricSample, MetricKeyLess>;

void insert_or_merge(KeyedSamples& bucket, MetricKey key,
                     const MetricSample& sample) {
  auto it = bucket.find(key);
  if (it == bucket.end()) {
    bucket.emplace(std::move(key), sample);
  } else {
    merge_into(it->second, sample);
  }
}

// The label federated series and profile stacks are stamped with.
constexpr std::string_view kSourceLabel = "rank";

/// Flattens per-source rows in target order, stamping the source on rows
/// that carry none (insert-if-absent: a lower aggregator tier's
/// attribution survives), then sorts with `less` so the list is
/// byte-stable however the fetches completed.
template <typename Row, typename Less>
std::vector<Row> stamp_and_sort(
    std::vector<std::pair<std::string, std::vector<Row>>> fetched, Less less) {
  std::vector<Row> merged;
  for (auto& [source, rows] : fetched) {
    for (Row& row : rows) {
      if (row.source.empty()) row.source = source;
      merged.push_back(std::move(row));
    }
  }
  std::sort(merged.begin(), merged.end(), less);
  return merged;
}

/// The Aggregator /alerts body: federated rows grouped by rule (input is
/// (rule, source)-sorted), each group summarized worst-state-wins with
/// the per-source rows nested under "sources". Top-level "firing" counts
/// *rules* whose rollup is firing, matching the /healthz signal.
std::string alerts_rollup_json(const std::vector<AlertWireRow>& rows) {
  std::string out = "{\"alerts\":[";
  std::size_t firing = 0;
  std::size_t i = 0;
  while (i < rows.size()) {
    std::size_t j = i;
    AlertState worst = rows[i].state;
    double value = rows[i].value;
    while (j < rows.size() && rows[j].rule == rows[i].rule) {
      if (alert_state_severity(rows[j].state) > alert_state_severity(worst)) {
        worst = rows[j].state;
      }
      value = std::max(value, rows[j].value);
      ++j;
    }
    if (worst == AlertState::kFiring) ++firing;
    if (i != 0) out += ',';
    out += "{\"rule\":";
    append_json_string(out, rows[i].rule);
    out += ",\"state\":\"";
    out += alert_state_name(worst);
    out += "\",\"value\":" + format_double(value) + ",\"sources\":[";
    for (std::size_t k = i; k < j; ++k) {
      if (k != i) out += ',';
      out += alert_row_json(rows[k]);
    }
    out += "]}";
    i = j;
  }
  out += "],\"firing\":" + std::to_string(firing) + "}\n";
  return out;
}

}  // namespace

MetricsSnapshot merge_federated(const std::vector<SourceSnapshot>& sources) {
  // One sorted map per kind keeps the output in the snapshot's canonical
  // order (kind group, then base, then labels) — byte-stable however the
  // scrapes arrived.
  KeyedSamples merged[3];
  for (const auto& [source, snapshot] : sources) {
    for (const auto& s : snapshot.samples) {
      auto& bucket = merged[static_cast<std::size_t>(s.kind)];

      MetricKey stamped{s.base, s.labels};
      stamped.add_label_if_absent(kSourceLabel, source);
      const bool newly_stamped = stamped.labels.size() != s.labels.size();

      MetricSample per_source = s;
      per_source.labels = stamped.labels;
      per_source.name = stamped.canonical();
      insert_or_merge(bucket, std::move(stamped), per_source);

      // The aggregate series keeps the input's own key. When the input
      // already carried the source label (lower federation tier), the
      // stamped insert above *is* the aggregate — inserting again would
      // double-count.
      if (newly_stamped) {
        insert_or_merge(bucket, MetricKey{s.base, s.labels}, s);
      }
    }
  }
  MetricsSnapshot out;
  for (auto& bucket : merged) {
    for (auto& [key, sample] : bucket) {
      out.samples.push_back(std::move(sample));
    }
  }
  return out;
}

Aggregator::Aggregator(net::Network& net, int host, std::uint16_t port,
                       std::vector<ScrapeTarget> targets,
                       AggregatorConfig config)
    : net_(net),
      host_(host),
      targets_(std::move(targets)),
      pool_(3) {  // one in-flight fetch per runner
  // Eager self-metric registration, same contract as TelemetryServer: the
  // first scrape of the process-wide registry already lists the full set.
  if constexpr (kObsEnabled) {
    auto& registry = MetricsRegistry::instance();
    registry.counter("pdc.fed.scrapes");
    registry.counter("pdc.fed.scrape_errors");
    registry.histogram("pdc.fed.scrape_us");
    registry.histogram("pdc.fed.merge_us");
    registry.gauge("pdc.fed.targets").add(
        static_cast<std::int64_t>(targets_.size()));
  }
  routes_ = make_routes();
  net::ServerConfig server_config;
  server_config.model = config.model;
  server_config.workers = 2;  // worker-pool and event-driven models
  server_ = std::make_unique<net::Server>(
      net_, host_, port,
      [this](const net::Bytes& request) {
        return net::to_bytes(serve_route(routes_, net::to_string(request)));
      },
      server_config);
}

Aggregator::~Aggregator() { stop(); }

net::Address Aggregator::address() const { return server_->address(); }

void Aggregator::stop() { server_->stop(); }

void Aggregator::add_target(ScrapeTarget target) {
  std::scoped_lock lock(targets_mutex_);
  targets_.push_back(std::move(target));
  PDC_OBS_GAUGE_ADD("pdc.fed.targets", 1);
}

bool Aggregator::remove_target(std::string_view source) {
  std::scoped_lock lock(targets_mutex_);
  auto it = std::find_if(
      targets_.begin(), targets_.end(),
      [&](const ScrapeTarget& t) { return t.source == source; });
  if (it == targets_.end()) return false;
  targets_.erase(it);
  PDC_OBS_GAUGE_SUB("pdc.fed.targets", 1);
  return true;
}

std::size_t Aggregator::target_count() const {
  std::scoped_lock lock(targets_mutex_);
  return targets_.size();
}

support::Result<std::string> Aggregator::fetch_text(
    const ScrapeTarget& target, const std::string& endpoint) {
  net::Client client(net_, host_);
  if (auto status = client.connect(target.address); !status.is_ok()) {
    return status;
  }
  auto reply = client.call_text(endpoint);
  client.close();
  return reply;
}

template <typename Parse>
auto Aggregator::fetch_all(const std::string& endpoint, Parse parse) {
  using T =
      typename std::invoke_result_t<Parse, const std::string&>::value_type;
  const std::vector<ScrapeTarget> targets = [this] {
    std::scoped_lock lock(targets_mutex_);
    return targets_;
  }();
  std::vector<std::optional<T>> slots(targets.size());
  std::atomic<std::uint64_t> errors{0};
  parallel::fan_out(pool_, targets.size(), [&](std::size_t i) {
    [[maybe_unused]] const std::uint64_t start = now_us();
    auto reply = fetch_text(targets[i], endpoint);
    PDC_OBS_HIST("pdc.fed.scrape_us", now_us() - start);
    if (reply.is_ok() && reply.value().starts_with("{\"error\"")) return;
    if (reply.is_ok()) slots[i] = parse(reply.value());
    if (!slots[i].has_value()) errors.fetch_add(1, std::memory_order_relaxed);
  });
  const std::uint64_t failed = errors.load(std::memory_order_relaxed);
  if (failed != 0) PDC_OBS_COUNT("pdc.fed.scrape_errors", failed);
  std::vector<std::pair<std::string, T>> fetched;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (slots[i].has_value()) {
      fetched.emplace_back(targets[i].source, std::move(*slots[i]));
    }
  }
  return fetched;
}

MetricsSnapshot Aggregator::federate() {
  std::vector<SourceSnapshot> sources;
  for (auto& [source, snapshot] :
       fetch_all("/metrics.wire", &MetricsSnapshot::from_wire)) {
    sources.push_back({std::move(source), std::move(snapshot)});
  }
  const std::uint64_t merge_start = now_us();
  MetricsSnapshot merged = merge_federated(sources);
  PDC_OBS_HIST("pdc.fed.merge_us", now_us() - merge_start);
  PDC_OBS_COUNT("pdc.fed.scrapes");
  return merged;
}

FoldedProfile Aggregator::federate_profiles() {
  const std::string stamp_prefix = std::string(kSourceLabel) + "=";
  FoldedProfile merged;
  for (const auto& [source, folded] :
       fetch_all("/profile/folded", [](const std::string& body) {
         return std::optional(parse_folded(body));
       })) {
    for (const auto& [key, count] : folded) {
      // Insert-if-absent stamping, same contract as merge_federated: a
      // stack already rooted at `rank=...` came from a lower aggregator
      // tier and keeps its original attribution.
      if (key.starts_with(stamp_prefix)) {
        merged[key] += count;
      } else {
        merged[stamp_prefix + source + ";" + key] += count;
      }
    }
  }
  return merged;
}

std::vector<TraceSummary> Aggregator::federate_traces(std::size_t n) {
  std::vector<TraceSummary> merged = stamp_and_sort(
      fetch_all("/trace/slowest.wire?n=" + std::to_string(n),
                &parse_traces_wire),
      [](const TraceSummary& a, const TraceSummary& b) {
        if (a.root_us != b.root_us) return a.root_us > b.root_us;
        if (a.source != b.source) return a.source < b.source;
        return a.trace_id < b.trace_id;
      });
  if (merged.size() > n) merged.resize(n);
  return merged;
}

std::vector<AlertWireRow> Aggregator::federate_alerts() {
  return stamp_and_sort(fetch_all("/alerts.wire", &parse_alerts_wire),
                        [](const AlertWireRow& a, const AlertWireRow& b) {
                          if (a.rule != b.rule) return a.rule < b.rule;
                          return a.source < b.source;
                        });
}

std::size_t Aggregator::broadcast_control(const std::string& verb) {
  return fetch_all(verb, [](const std::string& reply) {
           return reply.starts_with("error") ? std::nullopt
                                             : std::optional(true);
         })
      .size();
}

std::string Aggregator::topk_body(const std::string& endpoint) {
  const std::uint64_t n = endpoint_query_u64(endpoint, "n", 10);
  std::string by = endpoint_query(endpoint, "by");
  if (by.empty()) by = "value";
  if (by != "value" && by != "rate") {
    return "error: by must be 'value' or 'rate'\n";
  }
  const MetricsSnapshot merged = federate();
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  // Sorted names of series the rate cursor has not seen before this call
  // — their rate is undefined, reported as an explicit null warm-up
  // marker (never a raw total masquerading as a rate).
  std::vector<std::string> warming;
  std::map<std::string, std::uint64_t> totals;
  for (const auto& s : merged.samples) {
    if (s.kind != MetricKind::kCounter) continue;
    totals.emplace(s.name, s.count);
  }
  if (by == "value") {
    entries.assign(totals.begin(), totals.end());
  } else {
    // Rate = increase since the previous ?by=rate call (server-wide
    // cursor). A series absent from the cursor has no defined rate yet.
    std::scoped_lock lock(rate_mutex_);
    for (const auto& [name, count] : totals) {
      auto it = rate_prev_.find(name);
      if (it == rate_prev_.end()) {
        warming.push_back(name);
      } else if (count > it->second) {
        entries.emplace_back(name, count - it->second);
      }
    }
    rate_prev_ = std::move(totals);
  }
  entries = top_k_by_value(std::move(entries), static_cast<std::size_t>(n));
  // Warm-up markers rank after every measured entry (name order), only
  // filling whatever of the top-k is left.
  const std::size_t measured = entries.size();
  for (std::size_t i = 0; i < warming.size() && entries.size() < n; ++i) {
    entries.emplace_back(warming[i], 0);
  }
  std::string out = "{\"by\":\"" + by + "\",\"n\":" + std::to_string(n) +
                    ",\"top\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"series\":";
    append_json_string(out, entries[i].first);
    out += ",\"" + by + "\":";
    out += i < measured ? std::to_string(entries[i].second) : "null";
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::vector<Route> Aggregator::make_routes() {
  std::vector<Route> routes = snapshot_routes([this] { return federate(); });
  routes.insert(routes.end(), {
      {"/healthz", RouteFamily::kMetrics,
       [this](const std::string&) {
         // Fleet health = the alert rollup: degraded while any federated
         // rule is firing somewhere. NOOP builds evaluate no rules.
         std::set<std::string> firing;
         for (const AlertWireRow& row :
              kObsEnabled ? federate_alerts() : std::vector<AlertWireRow>{}) {
           if (row.state == AlertState::kFiring) firing.insert(row.rule);
         }
         return std::string("{\"status\":\"") +
                (firing.empty() ? "ok" : "degraded") +
                "\",\"firing\":" + std::to_string(firing.size()) + "}\n";
       }},
      {"/metrics/topk", RouteFamily::kMetrics,
       [this](const std::string& request) { return topk_body(request); }},
      {"/profile/folded", RouteFamily::kProfiling,
       [this](const std::string&) {
         return render_folded(federate_profiles());
       }},
      {"/trace/slowest", RouteFamily::kTracing,
       [this](const std::string& request) {
         const std::vector<TraceSummary> traces =
             federate_traces(endpoint_query_u64(request, "n", 8));
         std::string out = "{\"traces\":[";
         for (std::size_t i = 0; i < traces.size(); ++i) {
           if (i != 0) out += ',';
           out += trace_json(traces[i]);
         }
         return out + "]}\n";
       }},
      {"/trace/slowest.wire", RouteFamily::kTracing,
       [this](const std::string& request) {
         return trace_summaries_wire(
             federate_traces(endpoint_query_u64(request, "n", 8)));
       }},
      {"/alerts", RouteFamily::kTimeseries,
       [this](const std::string&) {
         return alerts_rollup_json(federate_alerts());
       }},
      {"/alerts.wire", RouteFamily::kTimeseries,
       [this](const std::string&) {
         return render_alerts_wire(federate_alerts());
       }},
      // Broadcast to every target.
      {"reset", RouteFamily::kMetrics,
       [this](const std::string&) {
         const std::size_t acked = broadcast_control("reset");
         const std::size_t total = target_count();
         if (acked == total) return std::string("ok\n");
         return "error: reset acked by " + std::to_string(acked) + "/" +
                std::to_string(total) + " targets\n";
       }},
      {"add-target", RouteFamily::kMetrics,
       [this](const std::string& request) {
         std::istringstream in(request);
         std::string verb, source;
         int host = 0;
         std::uint16_t port = 0;
         in >> verb >> host >> port >> source;
         if (in.fail() || source.empty()) {
           return std::string(
               "error: usage add-target <host> <port> <source>\n");
         }
         add_target({net::Address{host, port}, source});
         return std::string("ok\n");
       }},
      {"remove-target", RouteFamily::kMetrics,
       [this](const std::string& request) {
         std::istringstream in(request);
         std::string verb, source;
         in >> verb >> source;
         if (source.empty()) {
           return std::string("error: usage remove-target <source>\n");
         }
         if (!remove_target(source)) {
           return "error: no target with source '" + source + "'\n";
         }
         return std::string("ok\n");
       }},
  });
  return routes;
}

}  // namespace pdc::obs
