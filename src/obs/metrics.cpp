#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

namespace pdc::obs {

void append_json_string(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xf];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

bool parse_quoted(std::string_view line, std::size_t& i, std::string& out) {
  if (i >= line.size() || line[i] != '"') return false;
  ++i;
  while (i < line.size()) {
    const char ch = line[i++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (i >= line.size()) return false;
    switch (line[i++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // \u00XX: the control bytes append_json_string writes.
        if (i + 4 > line.size() || line.substr(i, 2) != "00") return false;
        unsigned byte = 0;
        const char* hex = line.data() + i + 2;
        if (std::from_chars(hex, hex + 2, byte, 16).ptr != hex + 2) {
          return false;
        }
        out += static_cast<char>(byte);
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;
}

void append_label_value(std::string& out, std::string_view value) {
  for (const char ch : value) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
}

std::string MetricKey::canonical() const {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_label_value(out, v);
    out += '"';
  }
  out += '}';
  return out;
}

void MetricKey::canonicalize() {
  std::stable_sort(
      labels.begin(), labels.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  labels.erase(std::unique(labels.begin(), labels.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               labels.end());
}

void MetricKey::add_label_if_absent(std::string_view key,
                                    std::string_view value) {
  for (const auto& [k, v] : labels) {
    if (k == key) return;
  }
  labels.emplace_back(std::string(key), std::string(value));
  canonicalize();
}

std::optional<MetricKey> MetricKey::parse(std::string_view text) {
  MetricKey key;
  const std::size_t brace = text.find('{');
  key.name = std::string(text.substr(0, brace));
  if (brace == std::string_view::npos) return key;
  std::size_t i = brace + 1;
  if (text.substr(i) == "}") return key;
  while (i < text.size()) {
    const std::size_t eq = text.find('=', i);
    if (eq == std::string_view::npos || eq == i) return std::nullopt;
    std::string label_key(text.substr(i, eq - i));
    if (label_key.find_first_of(",{}\"") != std::string::npos) {
      return std::nullopt;
    }
    // append_label_value's escapes are a subset of JSON's, so the JSON
    // string reader decodes values.
    std::string value;
    i = eq + 1;
    if (!parse_quoted(text, i, value)) return std::nullopt;
    key.labels.emplace_back(std::move(label_key), std::move(value));
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (text.substr(i) != "}") return std::nullopt;
    key.canonicalize();
    return key;
  }
  return std::nullopt;
}

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return mine;
}

}  // namespace detail

double Histogram::bucket_upper(std::size_t b) noexcept {
  if (b + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(b));  // 2^b
}

double histogram_quantile(const std::uint64_t* buckets, std::size_t n_buckets,
                          std::uint64_t count, double q) {
  if (count == 0 || n_buckets == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= target) {
      const double lower =
          b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      if (b + 1 >= kHistogramBuckets) return lower;  // unbounded tail
      const double upper = std::ldexp(1.0, static_cast<int>(b));
      const double frac = static_cast<double>(target - seen) /
                          static_cast<double>(buckets[b]);
      return lower + (upper - lower) * frac;
    }
    seen += buckets[b];
  }
  // Counts inconsistent with the rank (racing scrape): report the top edge.
  return std::ldexp(1.0, static_cast<int>(n_buckets - 1));
}

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

double Histogram::Snapshot::quantile(double q) const {
  return histogram_quantile(buckets.data(), buckets.size(), count, q);
}

Histogram::Snapshot& Histogram::Snapshot::merge(const Snapshot& other) {
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
  return *this;
}

double MetricSample::quantile(double q) const {
  if (kind != MetricKind::kHistogram) return 0.0;
  return histogram_quantile(buckets.data(), buckets.size(), count, q);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

template <typename T>
T& intern_flat(std::map<MetricKey, std::unique_ptr<T>, MetricKeyLess>& map,
               std::string_view name, std::atomic<std::uint64_t>& epoch) {
  auto it = map.find(name);  // transparent: no MetricKey built on the hit path
  if (it == map.end()) {
    it = map.emplace(MetricKey{std::string(name), {}}, std::make_unique<T>())
             .first;
    epoch.fetch_add(1, std::memory_order_release);
  }
  return *it->second;
}

template <typename T>
T& intern_labeled(std::map<MetricKey, std::unique_ptr<T>, MetricKeyLess>& map,
                  std::string_view name, Labels labels,
                  std::atomic<std::uint64_t>& epoch) {
  MetricKey key{std::string(name), std::move(labels)};
  key.canonicalize();
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.emplace(std::move(key), std::make_unique<T>()).first;
    epoch.fetch_add(1, std::memory_order_release);
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  return intern_flat(counters_, name, registration_epoch_);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  return intern_flat(gauges_, name, registration_epoch_);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::scoped_lock lock(mutex_);
  return intern_flat(histograms_, name, registration_epoch_);
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::scoped_lock lock(mutex_);
  return intern_labeled(counters_, name, std::move(labels),
                        registration_epoch_);
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::scoped_lock lock(mutex_);
  return intern_labeled(gauges_, name, std::move(labels),
                        registration_epoch_);
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels) {
  std::scoped_lock lock(mutex_);
  return intern_labeled(histograms_, name, std::move(labels),
                        registration_epoch_);
}

MetricsSnapshot MetricsRegistry::scrape() const {
  MetricsSnapshot out;
  std::scoped_lock lock(mutex_);
  out.samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  const auto sample = [&out](const MetricKey& key,
                             MetricKind kind) -> MetricSample& {
    MetricSample& s = out.samples.emplace_back();
    s.name = key.canonical();
    s.base = key.name;
    s.labels = key.labels;
    s.kind = kind;
    return s;
  };
  for (const auto& [key, c] : counters_) {
    sample(key, MetricKind::kCounter).count = c->total();
  }
  for (const auto& [key, g] : gauges_) {
    MetricSample& s = sample(key, MetricKind::kGauge);
    s.value = g->value();
    s.high_water = g->high_water();
  }
  for (const auto& [key, h] : histograms_) {
    const auto snap = h->snapshot();
    MetricSample& s = sample(key, MetricKind::kHistogram);
    s.count = snap.count;
    s.sum = snap.sum;
    s.buckets.assign(snap.buckets.begin(), snap.buckets.end());
    while (!s.buckets.empty() && s.buckets.back() == 0) s.buckets.pop_back();
  }
  return out;
}

std::vector<MetricsRegistry::PollRow> MetricsRegistry::poll_rows() const {
  std::vector<PollRow> out;
  std::scoped_lock lock(mutex_);
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  // Same iteration order as scrape(): counters, gauges, histograms, each map
  // sorted by (base, labels). Pollers that create series in row order stay
  // byte-compatible with snapshot-driven consumers.
  for (const auto& [key, c] : counters_) {
    out.push_back(PollRow{key.canonical(), MetricKind::kCounter, c.get(),
                          nullptr, nullptr});
  }
  for (const auto& [key, g] : gauges_) {
    out.push_back(PollRow{key.canonical(), MetricKind::kGauge, nullptr,
                          g.get(), nullptr});
  }
  for (const auto& [key, h] : histograms_) {
    out.push_back(PollRow{key.canonical(), MetricKind::kHistogram, nullptr,
                          nullptr, h.get()});
  }
  return out;
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mutex_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const MetricSample* s = find(name);
  if (s == nullptr) return 0;
  if (s->kind == MetricKind::kGauge) {
    return s->value < 0 ? 0 : static_cast<std::uint64_t>(s->value);
  }
  return s->count;
}

namespace {

/// Inner text of a canonical label block (no braces): `k="v",k2="v2"`.
std::string label_block(const Labels& labels) {
  if (labels.empty()) return {};
  const std::string text = MetricKey{"", labels}.canonical();
  return text.substr(1, text.size() - 2);
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  const auto emit_kind = [&](const char* key, MetricKind kind,
                             auto&& emit_value) {
    append_json_string(out, key);
    out += ":{";
    bool first = true;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (samples[i].kind != kind) continue;
      // Samples of one kind are sorted by (base, labels), so a family is a
      // contiguous run of equal bases.
      std::size_t j = i + 1;
      while (j < samples.size() && samples[j].kind == kind &&
             samples[j].base == samples[i].base) {
        ++j;
      }
      if (!first) out += ',';
      first = false;
      append_json_string(out, samples[i].base);
      out += ':';
      if (j == i + 1 && samples[i].labels.empty()) {
        emit_value(samples[i]);  // plain series keep the flat PR-4 shape
      } else {
        out += '{';
        for (std::size_t k = i; k < j; ++k) {
          if (k != i) out += ',';
          append_json_string(out, label_block(samples[k].labels));
          out += ':';
          emit_value(samples[k]);
        }
        out += '}';
      }
      i = j - 1;
    }
    out += '}';
  };
  emit_kind("counters", MetricKind::kCounter,
            [&](const MetricSample& s) { out += std::to_string(s.count); });
  out += ',';
  emit_kind("gauges", MetricKind::kGauge, [&](const MetricSample& s) {
    out += "{\"value\":" + std::to_string(s.value) +
           ",\"high_water\":" + std::to_string(s.high_water) + '}';
  });
  out += ',';
  emit_kind("histograms", MetricKind::kHistogram, [&](const MetricSample& s) {
    out += "{\"count\":" + std::to_string(s.count) +
           ",\"sum\":" + std::to_string(s.sum) + ",\"buckets\":[";
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(s.buckets[i]);
    }
    out += "],\"p50\":" + format_double(s.quantile(0.5)) +
           ",\"p90\":" + format_double(s.quantile(0.9)) +
           ",\"p99\":" + format_double(s.quantile(0.99)) + '}';
  });
  out += '}';
  return out;
}

void MetricsSnapshot::render(std::ostream& os) const {
  for (const auto& s : samples) {
    switch (s.kind) {
      case MetricKind::kCounter:
        if (s.count == 0) continue;
        os << s.name << " = " << s.count << '\n';
        break;
      case MetricKind::kGauge:
        if (s.value == 0 && s.high_water == 0) continue;
        os << s.name << " = " << s.value << " (high water " << s.high_water
           << ")\n";
        break;
      case MetricKind::kHistogram: {
        if (s.count == 0) continue;
        const double mean =
            static_cast<double>(s.sum) / static_cast<double>(s.count);
        os << s.name << ": count=" << s.count << " sum=" << s.sum
           << " mean=" << mean << " p50=" << format_double(s.quantile(0.5))
           << " p90=" << format_double(s.quantile(0.9))
           << " p99=" << format_double(s.quantile(0.99)) << '\n';
        break;
      }
    }
  }
}

std::string MetricsSnapshot::to_wire() const {
  std::string out = "pdcwire 1\n";
  const auto field = [&out](auto value) {
    out += ' ';
    out += std::to_string(value);
  };
  static constexpr const char* kTag[] = {"c ", "g ", "h "};  // by MetricKind
  for (const auto& s : samples) {
    out += kTag[static_cast<std::size_t>(s.kind)];
    append_json_string(out, s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        field(s.count);
        break;
      case MetricKind::kGauge:
        field(s.value);
        field(s.high_water);
        break;
      case MetricKind::kHistogram:
        field(s.count);
        field(s.sum);
        field(s.buckets.size());
        for (const std::uint64_t b : s.buckets) field(b);
        break;
    }
    out += '\n';
  }
  return out;
}

std::optional<MetricsSnapshot> MetricsSnapshot::from_wire(
    std::string_view wire) {
  MetricsSnapshot out;
  bool saw_header = false;
  std::size_t start = 0;
  while (start < wire.size()) {
    std::size_t end = wire.find('\n', start);
    if (end == std::string_view::npos) end = wire.size();
    const std::string_view line = wire.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != "pdcwire 1") return std::nullopt;
      saw_header = true;
      continue;
    }
    const char kind = line[0];
    std::size_t i = 1;
    if (i >= line.size() || line[i] != ' ') return std::nullopt;
    ++i;
    std::string name;
    if (!parse_quoted(line, i, name)) return std::nullopt;
    auto key = MetricKey::parse(name);
    if (!key) return std::nullopt;
    MetricSample s;
    s.name = std::move(name);
    s.base = std::move(key->name);
    s.labels = std::move(key->labels);
    switch (kind) {
      case 'c':
        s.kind = MetricKind::kCounter;
        if (!parse_int(line, i, s.count)) return std::nullopt;
        break;
      case 'g':
        s.kind = MetricKind::kGauge;
        if (!parse_int(line, i, s.value)) return std::nullopt;
        if (!parse_int(line, i, s.high_water)) return std::nullopt;
        break;
      case 'h': {
        s.kind = MetricKind::kHistogram;
        std::size_t n_buckets = 0;
        if (!parse_int(line, i, s.count)) return std::nullopt;
        if (!parse_int(line, i, s.sum)) return std::nullopt;
        if (!parse_int(line, i, n_buckets)) return std::nullopt;
        if (n_buckets > kHistogramBuckets) return std::nullopt;
        s.buckets.resize(n_buckets);
        for (std::size_t b = 0; b < n_buckets; ++b) {
          if (!parse_int(line, i, s.buckets[b])) return std::nullopt;
        }
        break;
      }
      default:
        return std::nullopt;
    }
    if (i != line.size()) return std::nullopt;
    out.samples.push_back(std::move(s));
  }
  if (!saw_header) return std::nullopt;
  return out;
}

}  // namespace pdc::obs
