#include "obs/bench_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.hpp"

namespace pdc::obs {

namespace {

std::string roundtrip_double(double value) {
  // Shortest round-trippable form keeps the JSON diff-friendly.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double parsed = 0.0;
  std::sscanf(buffer, "%lg", &parsed);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    std::sscanf(shorter, "%lg", &parsed);
    if (parsed == value) return shorter;
  }
  return buffer;
}

}  // namespace

void BenchReport::add_table(const support::TextTable& table) {
  tables_.push_back(TableCopy{table.title(), table.header(), table.rows()});
}

void BenchReport::add_metric(std::string name, double value) {
  metrics_.emplace_back(std::move(name), value);
}

std::string BenchReport::to_json() const {
  std::string out = "{\"bench\":";
  append_json_string(out, name_);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, metrics_[i].first);
    out += ':';
    out += roundtrip_double(metrics_[i].second);
  }
  out += "},\"tables\":[";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (t != 0) out += ',';
    const TableCopy& table = tables_[t];
    out += "{\"title\":";
    append_json_string(out, table.title);
    out += ",\"header\":[";
    for (std::size_t i = 0; i < table.header.size(); ++i) {
      if (i != 0) out += ',';
      append_json_string(out, table.header[i]);
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      if (r != 0) out += ',';
      out += '[';
      for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
        if (c != 0) out += ',';
        append_json_string(out, table.rows[r][c]);
      }
      out += ']';
    }
    out += "]}";
  }
  out += "],\"registry\":";
  out += MetricsRegistry::instance().scrape().to_json();
  out += "}\n";
  return out;
}

bool BenchReport::write_if_requested() const {
  const char* dest = std::getenv("PDCKIT_BENCH_JSON");
  if (dest == nullptr || *dest == '\0') return false;
  const std::string json = to_json();
  if (std::string_view(dest) == "-") {
    std::cout << json;
    return true;
  }
  std::ofstream out(dest);
  if (!out) {
    std::cerr << "BenchReport: cannot open '" << dest << "' for writing\n";
    return false;
  }
  out << json;
  return static_cast<bool>(out);
}

}  // namespace pdc::obs
