#include "exp/sweep_report.hpp"

#include <fstream>
#include <map>
#include <stdexcept>

#include "util/csv.hpp"

namespace wakeup::exp {

const std::vector<std::string>& report_columns() {
  static const std::vector<std::string> columns = {
      "index",        "protocol",     "n",
      "k",            "channels",     "pattern",
      "trials",       "failures",     "success_rate",
      "rounds_mean",  "mean_ci_lo",   "mean_ci_hi",
      "rounds_median", "median_ci_lo", "median_ci_hi",
      "rounds_p95",   "rounds_max",   "collisions_mean",
      "silences_mean", "bound",       "normalized_mean",
      // Dynamic-traffic columns (zero for static cells).
      "arrival",      "horizon",      "throughput_mean",
      "jain_mean",    "latency_p50",  "latency_p95",
      "latency_p99",  "packet_arrivals", "delivered",
      "backlog",
      // Robustness columns (impairment axis; empty/-1 for clean cells with
      // no impaired twin in the grid).
      "impairment",   "rounds_inflation",
      // Energy columns (cells run with an EnergyModel; zero otherwise).
      "energy_mean",  "energy_mean_ci_lo", "energy_mean_ci_hi",
      "energy_max"};
  return columns;
}

void apply_inflation_join(std::vector<CellRecord>& records) {
  std::map<std::string, const CellRecord*> by_tag;
  for (const CellRecord& record : records) by_tag[record.cell.tag] = &record;
  for (CellRecord& record : records) {
    const Cell& cell = record.cell;
    const std::string clean_tag = cell_tag_text(
        cell.protocol, cell.n, cell.k, cell.channels, cell.pattern, cell.trials, cell.s,
        cell.dynamic ? cell.arrival.name() : "", cell.dynamic ? cell.horizon : 0);
    const auto twin = by_tag.find(clean_tag);
    if (twin == by_tag.end()) continue;
    const CellRecord& clean = *twin->second;
    if (cell.dynamic) {
      // Dynamic cells have no terminating round; inflation is the factor by
      // which sustained throughput shrank under the impairment.
      if (record.stats.throughput.mean > 0 && clean.stats.throughput.mean > 0) {
        record.rounds_inflation = clean.stats.throughput.mean / record.stats.throughput.mean;
      }
    } else if (clean.stats.rounds.mean > 0 && record.stats.rounds.count > 0) {
      record.rounds_inflation = record.stats.rounds.mean / clean.stats.rounds.mean;
    }
  }
}

void write_csv_report(const std::string& path, const std::vector<CellRecord>& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("sweep: cannot write " + path);
  const auto& columns = report_columns();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out << (i == 0 ? "" : ",") << columns[i];
  }
  out << "\n";
  for (const CellRecord& r : records) {
    out << r.cell.index << ',' << util::csv_escape(r.cell.protocol) << ',' << r.cell.n << ','
        << r.cell.k << ',' << r.cell.channels << ',' << pattern_name(r.cell.pattern) << ','
        << r.cell.trials << ',' << r.stats.failures << ','
        << json_double(r.stats.success_rate) << ',' << json_double(r.stats.rounds.mean) << ','
        << json_double(r.stats.mean_ci.lo) << ',' << json_double(r.stats.mean_ci.hi) << ','
        << json_double(r.stats.rounds.median) << ',' << json_double(r.stats.median_ci.lo) << ','
        << json_double(r.stats.median_ci.hi) << ',' << json_double(r.stats.rounds.p95)
        << ',' << json_double(r.stats.rounds.max) << ','
        << json_double(r.stats.collisions.mean) << ',' << json_double(r.stats.silences.mean)
        << ',' << json_double(r.bound) << ',' << json_double(r.normalized_mean) << ','
        << util::csv_escape(r.cell.dynamic ? r.cell.arrival.name() : "") << ','
        << (r.cell.dynamic ? r.cell.horizon : 0) << ','
        << json_double(r.stats.throughput.mean) << ',' << json_double(r.stats.jain.mean) << ','
        << json_double(r.stats.latency.median) << ',' << json_double(r.stats.latency.p95)
        << ',' << json_double(r.stats.latency.p99) << ',' << r.stats.packet_arrivals << ','
        << r.stats.delivered << ',' << r.stats.backlog << ','
        << util::csv_escape(r.cell.impairment.clean() ? "" : r.cell.impairment.name()) << ','
        << json_double(r.rounds_inflation) << ','
        << json_double(r.stats.energy_mean.mean) << ','
        << json_double(r.stats.energy_mean_ci.lo) << ','
        << json_double(r.stats.energy_mean_ci.hi) << ','
        << json_double(r.stats.energy_max.mean) << "\n";
  }
}

void write_json_report(const std::string& path, const ManifestHeader& header,
                       const std::vector<CellRecord>& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("sweep: cannot write " + path);
  out << "{\n  \"sweep\": \"wakeup\",\n  \"version\": " << header.version
      << ",\n  \"base_seed\": " << header.base_seed << ",\n  \"grid_hash\": " << header.grid_hash
      << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    " << manifest_line(records[i]);
  }
  out << (records.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace wakeup::exp
