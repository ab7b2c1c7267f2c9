// refbench — see README.md beside this directory.
//
//   refbench --workload echo|kv_mixed|kv_read_mostly|kv_observed
//            --seed N --seconds S --trace 0|1
//            [--smoke] [--inject-fault] [--spans-out PATH]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds, prints the per-layer metrics of the traced rounds and
// the p50 gap between the two as the tracing overhead. The last line of
// stdout is one JSON object; the exit code is 0 only when every reply was
// right and every ledger balanced.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace refbench {

void RoundResult::count(const PhaseStats& phase) {
  attempted += phase.attempted;
  failed += phase.failed();
  if (!phase.balanced()) {
    violations.push_back(
        "request ledger: attempted " + std::to_string(phase.attempted) +
        ", sent " + std::to_string(phase.sent) + " != answered " +
        std::to_string(phase.answered) + " + failed " +
        std::to_string(phase.wrong + phase.lost));
  }
}

void RoundResult::run_timed(ClosedLoopClient& client, Traffic& traffic,
                            Phase phase, const RoundEnv& env,
                            Tracing& tracing) {
  phase.latencies = env.latencies;
  phase.slice = phase.per_conn * client.connections() / kSlicesPerRound;
  phase.slice_ends = env.slice_ends;
  phase.spans = env.spans;
  const Counters counters_before = Counters::read();
  const CpuTicks cpu_before = CpuTicks::read();
  tracing.armed.store(env.spans, std::memory_order_release);
  timed = client.run(traffic, phase);
  tracing.armed.store(nullptr, std::memory_order_release);
  delta = Counters::read() - counters_before;
  resident_mb = refbench::resident_mb();
  const CpuTicks cpu_after = CpuTicks::read();
  cpu = CpuTicks{cpu_after.steal - cpu_before.steal,
                 cpu_after.total - cpu_before.total};
  count(timed);
}

void RoundResult::check_frames() {
  if (delta.frames != timed.sent) {
    violations.push_back("frame ledger: pdc.server.frames delta " +
                         std::to_string(delta.frames) + " != requests " +
                         std::to_string(timed.sent));
  }
}

namespace {

struct Options {
  std::string workload_name;
  Workload workload = Workload::kEcho;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool inject_fault = false;
  std::string spans_out;
};

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        options.workload_name = argv[++i];
        have_workload = true;
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        const std::string value = argv[++i];
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else if (arg == "--spans-out" && has_value) {
        options.spans_out = argv[++i];
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--inject-fault") {
        options.inject_fault = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  static const std::array<std::pair<const char*, Workload>, 4> kWorkloads{{
      {"echo", Workload::kEcho},
      {"kv_mixed", Workload::kKvMixed},
      {"kv_read_mostly", Workload::kKvReadMostly},
      {"kv_observed", Workload::kKvObserved},
  }};
  for (const auto& [name, workload] : kWorkloads) {
    if (options.workload_name == name) {
      options.workload = workload;
      return have_workload && options.seconds > 0;
    }
  }
  return false;
}

/// Nearest-rank percentile (rank ceil(q * n)) of one round's samples, in
/// microseconds. Reorders the samples.
double round_percentile_us(std::vector<std::int64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(samples.size()))));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth) / 1e3;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// One round's end-to-end numbers.
struct RoundStats {
  double steal = 0;  // host CPU steal share of the timed window
  double setup_s = 0;
  double resident_mb = 0;
  double ops_per_s = 0;
  std::vector<double> slice_ops_per_s;
  double p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0;
};

/// The rounds of one mode (untraced or traced). Reported numbers are
/// medians over the quiet rounds: the third of the rounds with the lowest
/// host CPU steal share, plus any tied with the last of them. A neighbour
/// taking the host's processors for part of a run slows every thread of
/// the reference path at once (a quarter of the host taken made echo four
/// times slower), and that is not the program's speed. Throughput is the
/// median over the quiet rounds' slices, so one slice hit by a Raft
/// election moves it little.
struct Totals {
  std::vector<RoundStats> rounds;
  std::uint64_t ops = 0;
  std::int64_t window_ns = 0;
  std::uint64_t samples = 0;
  std::int64_t slowest_ns = 0;
  Counters counters;
  CpuTicks cpu;
  ObsTimes obs;

  void add(const RoundResult& round, std::vector<std::int64_t>& latencies,
           const std::vector<std::int64_t>& slice_ends, std::uint64_t slice) {
    RoundStats stats;
    stats.steal = round.cpu.total == 0
                      ? 0.0
                      : static_cast<double>(round.cpu.steal) /
                            static_cast<double>(round.cpu.total);
    stats.setup_s = round.setup_s;
    stats.resident_mb = round.resident_mb;
    const std::int64_t window = round.timed.end_ns - round.timed.start_ns;
    if (window > 0) {
      stats.ops_per_s = static_cast<double>(round.timed.attempted) * 1e9 /
                        static_cast<double>(window);
    }
    std::int64_t from = round.timed.start_ns;
    for (const std::int64_t to : slice_ends) {
      if (to > from) {
        stats.slice_ops_per_s.push_back(static_cast<double>(slice) * 1e9 /
                                        static_cast<double>(to - from));
      }
      from = to;
    }
    stats.p50_us = round_percentile_us(latencies, 0.50);
    stats.p90_us = round_percentile_us(latencies, 0.90);
    stats.p99_us = round_percentile_us(latencies, 0.99);
    stats.p999_us = round_percentile_us(latencies, 0.999);
    rounds.push_back(std::move(stats));

    ops += round.timed.attempted;
    window_ns += window;
    samples += latencies.size();
    for (const std::int64_t ns : latencies) {
      slowest_ns = std::max(slowest_ns, ns);
    }
    counters += round.delta;
    cpu.steal += round.cpu.steal;
    cpu.total += round.cpu.total;
    obs += round.obs;
  }

  [[nodiscard]] std::vector<const RoundStats*> quiet() const {
    std::vector<const RoundStats*> out;
    for (const RoundStats& r : rounds) out.push_back(&r);
    std::stable_sort(out.begin(), out.end(),
                     [](const RoundStats* x, const RoundStats* y) {
                       return x->steal < y->steal;
                     });
    // The quietest third, and every round as quiet as the last one kept.
    std::size_t keep = (out.size() + 2) / 3;
    while (keep < out.size() && out[keep]->steal <= out[keep - 1]->steal) {
      ++keep;
    }
    out.resize(keep);
    return out;
  }

  /// Median of `field` over the quiet rounds.
  [[nodiscard]] double quiet_median(double RoundStats::*field) const {
    std::vector<double> values;
    for (const RoundStats* r : quiet()) values.push_back(r->*field);
    return median(values);
  }

  [[nodiscard]] double quiet_ops_per_s() const {
    std::vector<double> values;
    for (const RoundStats* r : quiet()) {
      values.insert(values.end(), r->slice_ops_per_s.begin(),
                    r->slice_ops_per_s.end());
    }
    return median(values);
  }

  [[nodiscard]] double per_op(std::uint64_t count) const {
    return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
  }
};

/// Per-layer self times over every traced request. A span's self time is
/// its duration minus the part of it its children cover; per request the
/// self times must add up to the client span.
struct SpanStats {
  std::array<double, kSpanKinds> self_ns{};
  std::array<double, kSpanKinds> duration_ns{};
  std::array<std::uint64_t, kSpanKinds> count{};
  std::uint64_t requests = 0;
  std::uint64_t unbalanced = 0;  // requests whose self times miss the total

  void add(const SpanTable& table) {
    for (std::uint64_t r = 0; r < table.requests(); ++r) {
      const auto& client = table.at(r, kClient);
      if (!client.present()) continue;
      ++requests;
      std::int64_t self_sum = 0;
      for (int k = 0; k < kSpanKinds; ++k) {
        const auto kind = static_cast<SpanKind>(k);
        const auto& span = table.at(r, kind);
        if (!span.present()) continue;
        const std::int64_t self = span.end - span.start - covered(table, r, kind);
        self_sum += self;
        self_ns[k] += static_cast<double>(self);
        duration_ns[k] += static_cast<double>(span.end - span.start);
        ++count[k];
      }
      if (self_sum != client.end - client.start) ++unbalanced;
    }
  }

  /// Length of the union of `parent`'s child spans, clipped to it.
  static std::int64_t covered(const SpanTable& table, std::uint64_t r,
                              SpanKind parent) {
    const auto& outer = table.at(r, parent);
    std::array<std::pair<std::int64_t, std::int64_t>, kSpanKinds> parts{};
    std::size_t n = 0;
    for (int k = 0; k < kSpanKinds; ++k) {
      const auto kind = static_cast<SpanKind>(k);
      if (kind == parent || span_parent(kind) != parent) continue;
      const auto& span = table.at(r, kind);
      if (!span.present()) continue;
      const std::int64_t lo = std::max(span.start, outer.start);
      const std::int64_t hi = std::min(span.end, outer.end);
      if (lo < hi) parts[n++] = {lo, hi};
    }
    std::sort(parts.begin(), parts.begin() + static_cast<std::ptrdiff_t>(n));
    std::int64_t total = 0;
    std::int64_t reach = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t lo = std::max(parts[i].first, reach);
      if (parts[i].second > lo) total += parts[i].second - lo;
      reach = std::max(reach, parts[i].second);
    }
    return total;
  }

  [[nodiscard]] double mean_self(SpanKind kind) const {
    return requests == 0 ? 0.0 : self_ns[kind] / static_cast<double>(requests);
  }
  [[nodiscard]] double mean_duration(SpanKind kind) const {
    return count[kind] == 0
               ? 0.0
               : duration_ns[kind] / static_cast<double>(count[kind]);
  }
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + std::string(metrics[i].name) + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

void write_spans(const std::string& path, const SpanTable& table) {
  // The last traced round, capped so the file stays a few megabytes.
  constexpr std::uint64_t kMaxRequests = 20'000;
  std::ofstream out(path);
  out << "request\tspan\tparent\tstart_ns\tend_ns\n";
  const std::uint64_t n = std::min<std::uint64_t>(table.requests(), kMaxRequests);
  for (std::uint64_t r = 0; r < n; ++r) {
    for (int k = 0; k < kSpanKinds; ++k) {
      const auto kind = static_cast<SpanKind>(k);
      const auto& span = table.at(r, kind);
      if (!span.present()) continue;
      out << r << '\t' << span_name(kind) << '\t'
          << (kind == kClient ? "-" : span_name(span_parent(kind))) << '\t'
          << span.start << '\t' << span.end << '\n';
    }
  }
}

int run(const Options& options) {
  std::unique_ptr<Bench> bench =
      options.workload == Workload::kEcho
          ? make_echo(options.seed, options.smoke)
          : make_kv(options.workload, options.seed, options.smoke);
  std::vector<std::int64_t> samples;
  samples.reserve(bench->timed_requests());
  std::vector<std::int64_t> slice_ends;
  slice_ends.reserve(kSlicesPerRound);
  const std::uint64_t slice = bench->timed_requests() / kSlicesPerRound;
  SpanTable spans;
  SpanStats span_stats;
  Totals untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> violations;

  const std::int64_t run_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const std::uint64_t min_rounds = options.trace ? 2 : 1;
  for (std::uint64_t index = 0;; ++index) {
    const bool traced_round = options.trace && index % 2 == 1;
    RoundEnv env;
    env.index = index;
    samples.clear();
    slice_ends.clear();
    env.latencies = &samples;
    env.slice_ends = &slice_ends;
    if (traced_round) {
      spans.reset(bench->timed_requests());
      env.spans = &spans;
    }
    env.inject_fault = options.inject_fault && index == 0;
    const RoundResult round = bench->round(env);
    // Hand the torn-down round's heap back to the system, so every round
    // starts from the same resident baseline whichever allocator arenas
    // its threads happened to use.
    malloc_trim(0);
    if (traced_round) {
      traced.add(round, samples, slice_ends, slice);
      span_stats.add(spans);
    } else {
      untraced.add(round, samples, slice_ends, slice);
    }
    attempted += round.attempted;
    failed += round.failed;
    for (const std::string& v : round.violations) {
      violations.push_back("round " + std::to_string(index) + ": " + v);
    }
    if (failed != 0 || !violations.empty()) break;  // fail fast
    if (index + 1 >= min_rounds && now_ns() - run_start >= budget_ns) break;
  }
  if (options.trace && span_stats.unbalanced != 0) {
    violations.push_back("span self times != client span for " +
                         std::to_string(span_stats.unbalanced) + " of " +
                         std::to_string(span_stats.requests) + " requests");
  }
  failed += violations.empty() ? 0 : violations.size();
  const bool correct = failed == 0;

  const Totals& main = options.trace ? traced : untraced;
  const std::vector<const RoundStats*> quiet = main.quiet();
  const double p50 = main.quiet_median(&RoundStats::p50_us);
  const double p90 = main.quiet_median(&RoundStats::p90_us);
  const double ops_per_s = main.quiet_ops_per_s();
  const double setup_s = untraced.quiet_median(&RoundStats::setup_s);
  std::printf("refbench %s seed=%llu seconds=%g trace=%d rounds=%zu%s\n",
              options.workload_name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0,
              untraced.rounds.size() + traced.rounds.size(),
              options.smoke ? " (smoke)" : "");
  std::printf("  %s: medians over the %zu of %zu rounds with host cpu steal "
              "at most %.2f%%\n",
              options.trace ? "traced rounds" : "rounds", quiet.size(),
              main.rounds.size(),
              quiet.empty() ? 0.0
                            : 100.0 * std::max_element(
                                          quiet.begin(), quiet.end(),
                                          [](const RoundStats* x,
                                             const RoundStats* y) {
                                            return x->steal < y->steal;
                                          })[0]->steal);
  std::printf("  latency, each round's exact percentile (%llu samples, "
              "%llu per round): p50 %.3f us, p90 %.3f us; p99 %.3f us, "
              "p999 %.3f us\n",
              static_cast<unsigned long long>(main.samples),
              static_cast<unsigned long long>(bench->timed_requests()), p50,
              p90, main.quiet_median(&RoundStats::p99_us),
              main.quiet_median(&RoundStats::p999_us));
  std::printf("  throughput over slices of %llu requests %.1f ops/s (pooled "
              "over all rounds %.1f ops/s)\n",
              static_cast<unsigned long long>(slice), ops_per_s,
              main.window_ns == 0 ? 0.0
                                  : static_cast<double>(main.ops) * 1e9 /
                                        static_cast<double>(main.window_ns));
  std::printf("  per round, ops/s (host steal %%):");
  for (const RoundStats& r : main.rounds) {
    std::printf(" %.0f (%.1f)", r.ops_per_s, 100.0 * r.steal);
  }
  std::printf("\n  fail_ratio %.6g (%llu failed of %llu attempted)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  setup %.6f s\n", setup_s);
  std::printf("  noise: host cpu steal %.2f%% of the timed windows; raft "
              "elections %llu; pdc.kv.timeouts %llu; slowest request "
              "%.3f ms\n",
              main.cpu.total == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(main.cpu.steal) /
                        static_cast<double>(main.cpu.total),
              static_cast<unsigned long long>(main.counters.elections),
              static_cast<unsigned long long>(main.counters.kv_timeouts),
              static_cast<double>(main.slowest_ns) / 1e6);
  for (const std::string& v : violations) std::printf("  FAILED %s\n", v.c_str());

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"p50_us", "us", p50},
        {"p90_us", "us", p90},
        {"ops_per_s", "1/s", ops_per_s},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", untraced.quiet_median(&RoundStats::resident_mb)},
    };
  } else {
    const SpanStats& s = span_stats;
    const double client_us = s.mean_duration(kClient) / 1e3;
    std::printf("  per-layer budget, mean self time per request (%llu "
                "traced requests; client span %.3f us):\n",
                static_cast<unsigned long long>(s.requests), client_us);
    double sum_us = 0;
    for (int k = 0; k < kSpanKinds; ++k) {
      const auto kind = static_cast<SpanKind>(k);
      const double self_us = s.mean_self(kind) / 1e3;
      sum_us += self_us;
      std::printf("    %-12s %10.3f us  %5.1f%%\n",
                  kind == kClient ? "net.transport" : span_name(kind), self_us,
                  client_us == 0 ? 0.0 : 100.0 * self_us / client_us);
    }
    std::printf("    sum %.3f us; requests whose self times miss the client "
                "span: %llu\n",
                sum_us, static_cast<unsigned long long>(s.unbalanced));
    const double untraced_p50 = untraced.quiet_median(&RoundStats::p50_us);
    std::printf("  tracing overhead: p50 traced %.3f us - untraced %.3f us = "
                "%.3f us (%.1f%%)\n",
                p50, untraced_p50, p50 - untraced_p50,
                untraced_p50 == 0 ? 0.0
                                  : 100.0 * (p50 - untraced_p50) / untraced_p50);
    const Counters& c = main.counters;
    const ObsTimes& o = main.obs;
    auto mean = [](double sum, std::uint64_t n) {
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    metrics = {
        {"net.transport_us", "us", s.mean_self(kClient) / 1e3},
        {"net.handler_us", "us", s.mean_duration(kHandler) / 1e3},
        {"net.encode_ns", "ns", s.mean_duration(kEncode)},
        {"net.scan_ns", "ns", s.mean_duration(kScan)},
        {"net.ready_batch", "count", mean(static_cast<double>(c.ready_tags),
                                          c.ready_batches)},
        {"parallel.tasks_per_op", "1/op", main.per_op(c.tasks)},
        {"parallel.steals_per_op", "1/op", main.per_op(c.stolen)},
        {"dist.queue_us", "us", s.mean_duration(kQueue) / 1e3},
        {"dist.put_us", "us", s.mean_duration(kPut) / 1e3},
        {"dist.get_us", "us", s.mean_duration(kGet) / 1e3},
        {"raft.appends_per_op", "1/op", main.per_op(c.appends)},
        {"raft.appends_per_entry", "1/entry",
         mean(static_cast<double>(c.appends), c.submitted)},
        {"mp.msgs_per_op", "1/op", main.per_op(c.mp_sent)},
        {"kv.retries_per_op", "1/op", main.per_op(c.redirects + c.kv_timeouts)},
        {"raft.elections", "count", static_cast<double>(c.elections)},
        {"obs.scrape_us", "us", mean(o.scrape_us, o.scrapes)},
        {"obs.metrics_get_us", "us", mean(o.metrics_get_us, o.scrapes)},
        {"obs.tsdb_tick_us", "us", mean(o.tsdb_tick_us, o.ticks)},
        {"obs.slo_eval_us", "us", mean(o.slo_eval_us, o.ticks)},
        {"obs.spans_per_op", "1/op", main.per_op(c.spans_finished)},
    };
    if (!options.spans_out.empty() && !traced.rounds.empty()) {
      write_spans(options.spans_out, spans);
      std::printf("  spans of the last traced round written to %s\n",
                  options.spans_out.c_str());
    }
  }
  std::printf("%s\n", json_result(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace refbench

int main(int argc, char** argv) {
  refbench::Options options;
  if (!refbench::parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: refbench --workload echo|kv_mixed|kv_read_mostly|"
                 "kv_observed --seed N --seconds S --trace 0|1 [--smoke] "
                 "[--inject-fault] [--spans-out PATH]\n");
    return 2;
  }
  return refbench::run(options);
}
