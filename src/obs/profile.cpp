#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>

#include "support/check.hpp"
#include "testkit/hooks.hpp"

namespace pdc::obs {

namespace detail {
constinit thread_local WorkerSlot* t_profile_slot = nullptr;
}  // namespace detail

const char* to_string(WorkerState state) {
  switch (state) {
    case WorkerState::kIdle: return "idle";
    case WorkerState::kRunning: return "running";
    case WorkerState::kStealing: return "stealing";
    case WorkerState::kParked: return "parked";
  }
  return "?";
}

Profiler& Profiler::instance() {
  // Leaked deliberately: pool workers release their slots as their
  // threads exit, which can happen after function-local statics are torn
  // down (the default pool is itself a function-local static).
  static Profiler* profiler = new Profiler();
  return *profiler;
}

Profiler::Profiler() {
  labels_.emplace_back("-");     // kNoLabel
  labels_.emplace_back("task");  // kTaskLabel
  label_ids_.emplace("-", kNoLabel);
  label_ids_.emplace("task", kTaskLabel);
}

WorkerSlot* Profiler::register_worker(std::string name) {
  if constexpr (!kObsEnabled) return nullptr;
  std::scoped_lock lock(mutex_);
  for (auto& slot : slots_) {
    if (!slot->active_ && slot->name_ == name) {
      slot->active_ = true;
      slot->word_.store(0, std::memory_order_relaxed);
      return slot.get();
    }
  }
  slots_.push_back(std::make_unique<WorkerSlot>());
  WorkerSlot* slot = slots_.back().get();
  slot->name_ = std::move(name);
  slot->active_ = true;
  return slot;
}

void Profiler::release_worker(WorkerSlot* slot) {
  if (slot == nullptr) return;
  std::scoped_lock lock(mutex_);
  slot->active_ = false;
}

std::uint32_t Profiler::intern_label(std::string_view label) {
  if constexpr (!kObsEnabled) return kNoLabel;
  std::scoped_lock lock(mutex_);
  if (auto it = label_ids_.find(label); it != label_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(labels_.back(), id);
  return id;
}

void Profiler::sample_into_locked(FoldedProfile& folded) {
  for (const auto& slot : slots_) {
    if (!slot->active_) continue;
    const std::uint64_t word = slot->word_.load(std::memory_order_relaxed);
    const WorkerState state = WorkerSlot::state_of(word);
    std::string key = slot->name_;
    key += ';';
    key += to_string(state);
    if (state == WorkerState::kRunning) {
      std::uint32_t label = WorkerSlot::label_of(word);
      if (label >= labels_.size()) label = kNoLabel;  // torn/stale id
      key += ';';
      key += labels_[label];
    }
    ++folded[key];
  }
}

void Profiler::sample_once() {
  if constexpr (!kObsEnabled) return;
  std::scoped_lock lock(mutex_);
  sample_into_locked(folded_);
  ++samples_;
}

void Profiler::sample_into(FoldedProfile& folded) {
  if constexpr (!kObsEnabled) return;
  std::scoped_lock lock(mutex_);
  sample_into_locked(folded);
}

void Profiler::start(std::uint64_t period_us) {
  if constexpr (!kObsEnabled) return;
  PDC_CHECK(period_us > 0);
  bool expected = false;
  if (!sampling_.compare_exchange_strong(expected, true)) return;
  period_us_ = period_us;
  sampler_ = std::thread([this] {
    while (sampling_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(period_us_));
      if (!sampling_.load(std::memory_order_acquire)) break;
      sample_once();
    }
  });
}

void Profiler::stop() {
  if (!sampling_.exchange(false)) return;
  if (sampler_.joinable()) sampler_.join();
}

bool Profiler::running() const {
  return sampling_.load(std::memory_order_acquire);
}

void Profiler::run_sim_sampler(double period_seconds,
                               const std::function<bool()>& done) {
  if constexpr (!kObsEnabled) return;
  while (!done()) {
    testkit::poll_pause("profiler.sample", period_seconds);
    sample_once();
  }
}

std::string Profiler::collect(std::uint64_t duration_ms,
                              std::uint64_t period_us) {
  if constexpr (!kObsEnabled) return {};
  if (period_us == 0) period_us = 1000;
  FoldedProfile window;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(duration_ms);
  do {
    sample_into(window);
    std::this_thread::sleep_for(std::chrono::microseconds(period_us));
  } while (std::chrono::steady_clock::now() < deadline);
  return render_folded(window);
}

void Profiler::reset() {
  std::scoped_lock lock(mutex_);
  folded_.clear();
  samples_ = 0;
}

std::uint64_t Profiler::samples() const {
  std::scoped_lock lock(mutex_);
  return samples_;
}

std::string Profiler::folded() const {
  std::scoped_lock lock(mutex_);
  return render_folded(folded_);
}

std::string Profiler::to_json() const {
  std::scoped_lock lock(mutex_);
  std::string out = "{\"samples\":" + std::to_string(samples_) +
                    ",\"folded\":{";
  bool first = true;
  for (const auto& [key, count] : folded_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, key);
    out += ':' + std::to_string(count);
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Contention sites

namespace {

struct SiteCatalog {
  std::mutex mutex;
  std::map<std::string, SiteLocation, std::less<>> sites;
};

SiteCatalog& site_catalog() {
  static SiteCatalog* catalog = new SiteCatalog();  // leaked, like Profiler
  return *catalog;
}

}  // namespace

void ContentionSite::init_slow(const char* name, const char* file, int line) {
  {
    SiteCatalog& catalog = site_catalog();
    std::scoped_lock lock(catalog.mutex);
    // First registration wins: a template instantiated for several types
    // (BoundedQueue<T>) shares one catalog row and one histogram series.
    catalog.sites.try_emplace(name, SiteLocation{file, line});
  }
  wait_hist_ = &MetricsRegistry::instance().histogram("pdc.contend.wait_us",
                                                      {{"site", name}});
}

std::optional<SiteLocation> contention_site_location(std::string_view name) {
  SiteCatalog& catalog = site_catalog();
  std::scoped_lock lock(catalog.mutex);
  if (auto it = catalog.sites.find(name); it != catalog.sites.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::vector<ContentionStat> contention_topk(const MetricsSnapshot& snapshot,
                                            std::size_t k) {
  std::vector<ContentionStat> stats;
  for (const auto& s : snapshot.samples) {
    if (s.kind != MetricKind::kHistogram) continue;
    if (s.base != "pdc.contend.wait_us") continue;
    // Exactly {site=...}: in a federated snapshot this selects the
    // fleet-wide aggregate series, not the rank-stamped duplicates.
    if (s.labels.size() != 1 || s.labels[0].first != "site") continue;
    if (s.count == 0) continue;
    ContentionStat stat;
    stat.site = s.labels[0].second;
    stat.count = s.count;
    stat.total_wait_us = s.sum;
    stat.mean_us =
        static_cast<double>(s.sum) / static_cast<double>(s.count);
    stat.p50_us = s.quantile(0.5);
    stat.p99_us = s.quantile(0.99);
    if (auto loc = contention_site_location(stat.site); loc.has_value()) {
      stat.file = std::move(loc->file);
      stat.line = loc->line;
    }
    stats.push_back(std::move(stat));
  }
  std::sort(stats.begin(), stats.end(),
            [](const ContentionStat& a, const ContentionStat& b) {
              if (a.total_wait_us != b.total_wait_us) {
                return a.total_wait_us > b.total_wait_us;
              }
              return a.site < b.site;
            });
  if (stats.size() > k) stats.resize(k);
  return stats;
}

std::string contention_json(const std::vector<ContentionStat>& stats) {
  std::string out = "{\"top\":[";
  bool first = true;
  for (const auto& s : stats) {
    if (!first) out += ',';
    first = false;
    out += "{\"site\":";
    append_json_string(out, s.site);
    if (!s.file.empty()) {
      out += ",\"file\":";
      append_json_string(out, s.file);
      out += ",\"line\":" + std::to_string(s.line);
    }
    out += ",\"count\":" + std::to_string(s.count) +
           ",\"total_wait_us\":" + std::to_string(s.total_wait_us) +
           ",\"mean_us\":" + format_double(s.mean_us) +
           ",\"p50_us\":" + format_double(s.p50_us) +
           ",\"p99_us\":" + format_double(s.p99_us) + '}';
  }
  out += "]}";
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> top_k_by_value(
    std::vector<std::pair<std::string, std::uint64_t>> entries,
    std::size_t k) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

// ---------------------------------------------------------------------------
// Folded text

FoldedProfile parse_folded(std::string_view text) {
  FoldedProfile out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) continue;
    const std::string_view digits = line.substr(space + 1);
    if (digits.empty()) continue;
    std::uint64_t count = 0;
    bool ok = true;
    for (char ch : digits) {
      if (ch < '0' || ch > '9') {
        ok = false;
        break;
      }
      count = count * 10 + static_cast<std::uint64_t>(ch - '0');
    }
    if (!ok) continue;
    out[std::string(line.substr(0, space))] += count;
  }
  return out;
}

std::string render_folded(const FoldedProfile& folded) {
  std::string out;
  for (const auto& [key, count] : folded) {
    out += key;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace pdc::obs
