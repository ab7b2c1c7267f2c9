#include "obs/slo.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace pdc::obs {

namespace {

// Canonical multi-burn-rate shape (Google SRE workbook): page on the
// fast pair, ticket on the slow pair. One alert here — the pairs are
// OR-ed — because this plane has a single consumer.
constexpr double kFastShortS = 5 * 60.0;
constexpr double kFastLongS = 60 * 60.0;
constexpr double kFastFactor = 14.4;
constexpr double kSlowShortS = 30 * 60.0;
constexpr double kSlowLongS = 6 * 60 * 60.0;
constexpr double kSlowFactor = 6.0;
constexpr double kPendingForS = 2 * 60.0;

constexpr std::string_view kWireHeader = "pdcalerts 1";

[[nodiscard]] std::uint64_t scaled_us(double seconds, double scale) {
  return static_cast<std::uint64_t>(seconds * scale * 1e6);
}

bool parse_value(std::string_view line, std::size_t& i, double& out) {
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  const std::string text(line.substr(i));
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return false;
  i += static_cast<std::size_t>(end - text.c_str());
  return true;
}

}  // namespace

std::string alert_row_json(const AlertWireRow& row) {
  std::string out;
  out += "{\"rule\":";
  append_json_string(out, row.rule);
  if (!row.source.empty()) {
    out += ",\"source\":";
    append_json_string(out, row.source);
  }
  out += ",\"state\":\"";
  out += alert_state_name(row.state);
  out += "\",\"since_us\":" + std::to_string(row.since_us);
  out += ",\"value\":" + format_double(row.value);
  out += ",\"transitions\":{\"pending\":" + std::to_string(row.to_pending) +
         ",\"firing\":" + std::to_string(row.to_firing) +
         ",\"resolved\":" + std::to_string(row.to_resolved) +
         ",\"inactive\":" + std::to_string(row.to_inactive) + "}}";
  return out;
}

std::string_view alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "inactive";
}

std::optional<AlertState> parse_alert_state(std::string_view text) {
  if (text == "inactive") return AlertState::kInactive;
  if (text == "pending") return AlertState::kPending;
  if (text == "firing") return AlertState::kFiring;
  if (text == "resolved") return AlertState::kResolved;
  return std::nullopt;
}

int alert_state_severity(AlertState state) {
  switch (state) {
    case AlertState::kFiring: return 3;
    case AlertState::kPending: return 2;
    case AlertState::kResolved: return 1;
    case AlertState::kInactive: return 0;
  }
  return 0;
}

SloRule availability_slo(std::string name, std::string good_series,
                         std::string total_series, double objective,
                         double window_scale) {
  SloRule rule;
  rule.name = std::move(name);
  rule.kind = SloRule::Kind::kAvailability;
  rule.good_series = std::move(good_series);
  rule.total_series = std::move(total_series);
  rule.objective = objective;
  rule.fast = {scaled_us(kFastShortS, window_scale),
               scaled_us(kFastLongS, window_scale), kFastFactor};
  rule.slow = {scaled_us(kSlowShortS, window_scale),
               scaled_us(kSlowLongS, window_scale), kSlowFactor};
  rule.pending_for_s = kPendingForS * window_scale;
  return rule;
}

SloRule latency_slo(std::string name, std::string series, double quantile,
                    double threshold_us, double window_scale) {
  SloRule rule;
  rule.name = std::move(name);
  rule.kind = SloRule::Kind::kLatency;
  rule.latency_series = std::move(series);
  rule.quantile = quantile;
  rule.threshold_us = threshold_us;
  rule.fast = {scaled_us(kFastShortS, window_scale),
               scaled_us(kFastLongS, window_scale), kFastFactor};
  rule.slow = {scaled_us(kSlowShortS, window_scale),
               scaled_us(kSlowLongS, window_scale), kSlowFactor};
  rule.pending_for_s = kPendingForS * window_scale;
  return rule;
}

std::string render_alerts_wire(const std::vector<AlertWireRow>& rows) {
  std::string out(kWireHeader);
  out += '\n';
  for (const AlertWireRow& row : rows) {
    out += "A ";
    append_json_string(out, row.rule);
    out += ' ';
    append_json_string(out, row.source);
    out += ' ';
    out += alert_state_name(row.state);
    for (const std::uint64_t n : {row.since_us, row.to_pending, row.to_firing,
                                  row.to_resolved, row.to_inactive}) {
      out += ' ';
      out += std::to_string(n);
    }
    out += ' ';
    out += format_double(row.value);
    out += '\n';
  }
  return out;
}

std::optional<std::vector<AlertWireRow>> parse_alerts_wire(
    std::string_view wire) {
  std::vector<AlertWireRow> out;
  bool saw_header = false;
  std::size_t start = 0;
  while (start < wire.size()) {
    std::size_t end = wire.find('\n', start);
    if (end == std::string_view::npos) end = wire.size();
    const std::string_view line = wire.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kWireHeader) return std::nullopt;
      saw_header = true;
      continue;
    }
    if (line[0] != 'A' || line.size() < 2 || line[1] != ' ') {
      return std::nullopt;
    }
    std::size_t i = 2;
    AlertWireRow row;
    if (!parse_quoted(line, i, row.rule)) return std::nullopt;
    if (i >= line.size() || line[i] != ' ') return std::nullopt;
    ++i;
    if (!parse_quoted(line, i, row.source)) return std::nullopt;
    if (i >= line.size() || line[i] != ' ') return std::nullopt;
    ++i;
    const std::size_t state_end = line.find(' ', i);
    if (state_end == std::string_view::npos) return std::nullopt;
    const auto state = parse_alert_state(line.substr(i, state_end - i));
    if (!state) return std::nullopt;
    row.state = *state;
    i = state_end;
    for (std::uint64_t* n : {&row.since_us, &row.to_pending, &row.to_firing,
                             &row.to_resolved, &row.to_inactive}) {
      if (!parse_int(line, i, *n)) return std::nullopt;
    }
    if (!parse_value(line, i, row.value)) return std::nullopt;
    if (i != line.size()) return std::nullopt;
    out.push_back(std::move(row));
  }
  if (!saw_header) return std::nullopt;
  return out;
}

std::string alerts_json_of(const std::vector<AlertWireRow>& rows) {
  std::size_t firing = 0;
  std::string out = "{\"alerts\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ',';
    out += alert_row_json(rows[i]);
    if (rows[i].state == AlertState::kFiring) ++firing;
  }
  out += "],\"firing\":" + std::to_string(firing) + "}\n";
  return out;
}

SloMonitor::SloMonitor(TimeSeriesStore* store) : store_(store) {
  if constexpr (kObsEnabled) {
    auto& registry = MetricsRegistry::instance();
    evaluations_metric_ = &registry.counter("pdc.slo.evaluations");
    firing_metric_ = &registry.gauge("pdc.slo.firing");
  }
}

bool SloMonitor::add_rule(SloRule rule) {
  std::scoped_lock lock(mutex_);
  const auto at = std::lower_bound(
      entries_.begin(), entries_.end(), rule.name,
      [](const Entry& e, const std::string& name) { return e.rule.name < name; });
  if (at != entries_.end() && at->rule.name == rule.name) return false;
  Entry entry;
  entry.status.rule = rule.name;
  if constexpr (kObsEnabled) {
    auto& registry = MetricsRegistry::instance();
    static constexpr std::string_view kTo[4] = {"inactive", "pending",
                                                "firing", "resolved"};
    const AlertState states[4] = {AlertState::kInactive, AlertState::kPending,
                                  AlertState::kFiring, AlertState::kResolved};
    for (int s = 0; s < 4; ++s) {
      entry.to_counters[static_cast<int>(states[s])] = &registry.counter(
          "pdc.slo.transitions",
          {{"rule", rule.name}, {"to", std::string(kTo[s])}});
    }
  }
  entry.rule = std::move(rule);
  entries_.insert(at, std::move(entry));
  return true;
}

std::pair<bool, double> SloMonitor::signal_of(const SloRule& rule) const {
  const auto pair_signal = [&](const BurnRatePair& pair)
      -> std::pair<bool, double> {
    if (rule.kind == SloRule::Kind::kAvailability) {
      const auto burn = [&](std::uint64_t window_us) {
        const auto total_pts = store_->points(rule.total_series, window_us);
        if (total_pts.size() < 2) return 0.0;
        const auto good_pts = store_->points(rule.good_series, window_us);
        // Eviction can leave the two rings covering different spans of
        // the same window: a growing total evicts while an idle good
        // retains, and increases over mismatched spans make a full
        // outage read as zero burn. Both series are sampled on the same
        // ticks, so clamp both to the common covered range.
        std::uint64_t start = total_pts.front().t_us;
        if (!good_pts.empty()) start = std::max(start, good_pts.front().t_us);
        const auto increase_from = [start](const auto& pts) {
          double first = 0.0;
          double last = 0.0;
          bool seen = false;
          for (const auto& p : pts) {
            if (p.t_us < start) continue;
            if (!seen) first = static_cast<double>(p.values[0]);
            seen = true;
            last = static_cast<double>(p.values[0]);
          }
          return seen ? last - first : 0.0;
        };
        const double total = increase_from(total_pts);
        if (total <= 0.0) return 0.0;
        const double good = increase_from(good_pts);
        const double ratio = std::clamp((total - good) / total, 0.0, 1.0);
        return ratio / std::max(1.0 - rule.objective, 1e-12);
      };
      const double value =
          std::min(burn(pair.short_window_us), burn(pair.long_window_us));
      return {value >= pair.factor, value};
    }
    const auto q_short = store_->quantile_over_time(
        rule.latency_series, pair.short_window_us, rule.quantile);
    const auto q_long = store_->quantile_over_time(
        rule.latency_series, pair.long_window_us, rule.quantile);
    // A window without data cannot confirm a breach.
    const double value =
        std::min(q_short.value_or(0.0), q_long.value_or(0.0));
    return {q_short.has_value() && q_long.has_value() &&
                q_short.value() > rule.threshold_us &&
                q_long.value() > rule.threshold_us,
            value};
  };
  const auto fast = pair_signal(rule.fast);
  const auto slow = pair_signal(rule.slow);
  return {fast.first || slow.first, std::max(fast.second, slow.second)};
}

void SloMonitor::transition_locked(Entry& entry, AlertState to,
                                   std::uint64_t now_us) {
  entry.status.state = to;
  entry.status.since_us = now_us;
  switch (to) {
    case AlertState::kInactive: ++entry.status.to_inactive; break;
    case AlertState::kPending: ++entry.status.to_pending; break;
    case AlertState::kFiring: ++entry.status.to_firing; break;
    case AlertState::kResolved: ++entry.status.to_resolved; break;
  }
  if (Counter* c = entry.to_counters[static_cast<int>(to)]; c != nullptr) {
    c->inc();
  }
}

void SloMonitor::evaluate(std::uint64_t now_us) {
  struct Fired {
    SloRule rule;
    AlertStatus status;
  };
  std::vector<Fired> fired;
  std::function<void(std::uint64_t, const SloRule&, const AlertStatus&)> hook;
  {
    std::scoped_lock lock(mutex_);
    ++evaluations_;
    if (evaluations_metric_ != nullptr) evaluations_metric_->inc();
    for (Entry& entry : entries_) {
      const auto [breach, value] = signal_of(entry.rule);
      entry.status.value = value;
      if (breach && !entry.breaching) entry.breach_since_us = now_us;
      entry.breaching = breach;
      const std::uint64_t pending_for_us =
          static_cast<std::uint64_t>(entry.rule.pending_for_s * 1e6);
      switch (entry.status.state) {
        case AlertState::kInactive:
        case AlertState::kResolved:
          if (breach) transition_locked(entry, AlertState::kPending, now_us);
          break;
        default:
          break;
      }
      if (entry.status.state == AlertState::kPending) {
        if (!breach) {
          transition_locked(entry, AlertState::kInactive, now_us);
        } else if (now_us - entry.breach_since_us >= pending_for_us) {
          transition_locked(entry, AlertState::kFiring, now_us);
          if (firing_metric_ != nullptr) firing_metric_->add(1);
          fired.push_back(Fired{entry.rule, entry.status});
        }
      } else if (entry.status.state == AlertState::kFiring && !breach) {
        transition_locked(entry, AlertState::kResolved, now_us);
        if (firing_metric_ != nullptr) firing_metric_->sub(1);
      }
    }
    hook = firing_hook_;
  }
  if (hook) {
    for (const Fired& f : fired) hook(now_us, f.rule, f.status);
  }
}

void SloMonitor::set_firing_hook(
    std::function<void(std::uint64_t, const SloRule&, const AlertStatus&)>
        hook) {
  std::scoped_lock lock(mutex_);
  firing_hook_ = std::move(hook);
}

std::vector<AlertStatus> SloMonitor::status() const {
  std::scoped_lock lock(mutex_);
  std::vector<AlertStatus> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.status);
  return out;
}

std::vector<AlertWireRow> SloMonitor::rows_locked() const {
  std::vector<AlertWireRow> rows;
  rows.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    AlertWireRow row;
    row.rule = entry.status.rule;
    row.state = entry.status.state;
    row.since_us = entry.status.since_us;
    row.to_pending = entry.status.to_pending;
    row.to_firing = entry.status.to_firing;
    row.to_resolved = entry.status.to_resolved;
    row.to_inactive = entry.status.to_inactive;
    row.value = entry.status.value;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string SloMonitor::alerts_json() const {
  std::scoped_lock lock(mutex_);
  return alerts_json_of(rows_locked());
}

std::string SloMonitor::alerts_wire() const {
  std::scoped_lock lock(mutex_);
  return render_alerts_wire(rows_locked());
}

std::size_t SloMonitor::rules() const {
  std::scoped_lock lock(mutex_);
  return entries_.size();
}

std::uint64_t SloMonitor::evaluations() const {
  std::scoped_lock lock(mutex_);
  return evaluations_;
}

std::size_t SloMonitor::firing_count() const {
  std::scoped_lock lock(mutex_);
  std::size_t n = 0;
  for (const Entry& entry : entries_) {
    if (entry.status.state == AlertState::kFiring) ++n;
  }
  return n;
}

}  // namespace pdc::obs
