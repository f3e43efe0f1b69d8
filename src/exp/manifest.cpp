#include "exp/manifest.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wakeup::exp {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

namespace detail {

std::map<std::string, std::string> parse_flat_object(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::size_t i = 0;
  const auto fail = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("manifest: malformed line (" + why + "): " + line);
  };
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto parse_string = [&]() -> std::string {
    if (i >= line.size() || line[i] != '"') throw fail("expected string");
    ++i;
    std::string out;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) throw fail("dangling escape");
        const char c = line[i];
        if (c == 'u') {
          if (i + 4 >= line.size()) throw fail("short \\u escape");
          out += static_cast<char>(std::stoi(line.substr(i + 1, 4), nullptr, 16));
          i += 4;
        } else {
          out += c;  // \" and \\ (we never emit other escapes)
        }
      } else {
        out += line[i];
      }
      ++i;
    }
    if (i >= line.size()) throw fail("unterminated string");
    ++i;  // closing quote
    return out;
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') throw fail("expected '{'");
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return fields;
  while (true) {
    skip_ws();
    const std::string key = parse_string();
    skip_ws();
    if (i >= line.size() || line[i] != ':') throw fail("expected ':'");
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      value = parse_string();
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) value.pop_back();
      if (value.empty()) throw fail("empty value");
    }
    fields[key] = value;
    skip_ws();
    if (i >= line.size()) throw fail("unterminated object");
    if (line[i] == '}') return fields;
    if (line[i] != ',') throw fail("expected ',' or '}'");
    ++i;
  }
}

double field_double(const std::map<std::string, std::string>& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) throw std::runtime_error("manifest: missing field '" + key + "'");
  if (it->second == "null") return 0.0;
  std::size_t pos = 0;
  const double v = std::stod(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::runtime_error("manifest: bad number in '" + key + "': " + it->second);
  }
  return v;
}

std::uint64_t field_u64(const std::map<std::string, std::string>& fields,
                        const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) throw std::runtime_error("manifest: missing field '" + key + "'");
  std::size_t pos = 0;
  const std::uint64_t v = std::stoull(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::runtime_error("manifest: bad integer in '" + key + "': " + it->second);
  }
  return v;
}

std::string field_str(const std::map<std::string, std::string>& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) throw std::runtime_error("manifest: missing field '" + key + "'");
  return it->second;
}

}  // namespace detail

namespace {

using detail::field_double;
using detail::field_str;
using detail::field_u64;
using detail::parse_flat_object;

void emit_summary(std::ostringstream& out, const char* prefix, const util::Summary& s) {
  out << ",\"" << prefix << "_count\":" << s.count
      << ",\"" << prefix << "_mean\":" << json_double(s.mean)
      << ",\"" << prefix << "_stddev\":" << json_double(s.stddev)
      << ",\"" << prefix << "_min\":" << json_double(s.min)
      << ",\"" << prefix << "_median\":" << json_double(s.median)
      << ",\"" << prefix << "_p95\":" << json_double(s.p95)
      << ",\"" << prefix << "_p99\":" << json_double(s.p99)
      << ",\"" << prefix << "_max\":" << json_double(s.max);
}

util::Summary parse_summary(const std::map<std::string, std::string>& fields,
                            const std::string& prefix) {
  util::Summary s;
  s.count = field_u64(fields, prefix + "_count");
  s.mean = field_double(fields, prefix + "_mean");
  s.stddev = field_double(fields, prefix + "_stddev");
  s.min = field_double(fields, prefix + "_min");
  s.median = field_double(fields, prefix + "_median");
  s.p95 = field_double(fields, prefix + "_p95");
  s.p99 = field_double(fields, prefix + "_p99");
  s.max = field_double(fields, prefix + "_max");
  return s;
}

}  // namespace

std::string json_double(double value) {
  if (!std::isfinite(value)) return "null";
  // The standard defines to_chars(general, 17) as printf's "%.17g", so the
  // bytes are those of snprintf, without the locale and format parsing.
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

std::string manifest_line(const CellRecord& record) {
  const Cell& cell = record.cell;
  const CellStats& stats = record.stats;
  std::ostringstream out;
  out << "{\"tag\":\"" << json_escape(cell.tag) << "\""
      << ",\"protocol\":\"" << json_escape(cell.protocol) << "\""
      << ",\"n\":" << cell.n << ",\"k\":" << cell.k << ",\"channels\":" << cell.channels
      << ",\"pattern\":\"" << pattern_name(cell.pattern) << "\""
      << ",\"trials\":" << cell.trials << ",\"s\":" << cell.s
      << ",\"arrival\":\"" << json_escape(cell.dynamic ? cell.arrival.name() : "") << "\""
      << ",\"horizon\":" << (cell.dynamic ? cell.horizon : 0)
      << ",\"impairment\":\""
      << json_escape(cell.impairment.clean() ? "" : cell.impairment.name()) << "\""
      << ",\"index\":" << cell.index
      << ",\"failures\":" << stats.failures
      << ",\"success_rate\":" << json_double(stats.success_rate);
  emit_summary(out, "rounds", stats.rounds);
  out << ",\"mean_ci_lo\":" << json_double(stats.mean_ci.lo)
      << ",\"mean_ci_hi\":" << json_double(stats.mean_ci.hi)
      << ",\"median_ci_lo\":" << json_double(stats.median_ci.lo)
      << ",\"median_ci_hi\":" << json_double(stats.median_ci.hi);
  emit_summary(out, "collisions", stats.collisions);
  emit_summary(out, "silences", stats.silences);
  emit_summary(out, "throughput", stats.throughput);
  emit_summary(out, "jain", stats.jain);
  emit_summary(out, "latency", stats.latency);
  emit_summary(out, "energy_mean", stats.energy_mean);
  emit_summary(out, "energy_max", stats.energy_max);
  out << ",\"energy_ci_lo\":" << json_double(stats.energy_mean_ci.lo)
      << ",\"energy_ci_hi\":" << json_double(stats.energy_mean_ci.hi);
  out << ",\"packet_arrivals\":" << stats.packet_arrivals
      << ",\"delivered\":" << stats.delivered << ",\"backlog\":" << stats.backlog
      << ",\"bound\":" << json_double(record.bound)
      << ",\"normalized_mean\":" << json_double(record.normalized_mean)
      << ",\"rounds_inflation\":" << json_double(record.rounds_inflation) << "}";
  return out.str();
}

CellRecord parse_manifest_line(const std::string& line) {
  const auto fields = parse_flat_object(line);
  CellRecord record;
  Cell& cell = record.cell;
  cell.tag = field_str(fields, "tag");
  cell.tag_hash = tag_hash(cell.tag);
  cell.protocol = field_str(fields, "protocol");
  cell.n = static_cast<std::uint32_t>(field_u64(fields, "n"));
  cell.k = static_cast<std::uint32_t>(field_u64(fields, "k"));
  cell.channels = static_cast<std::uint32_t>(field_u64(fields, "channels"));
  cell.pattern = parse_pattern(field_str(fields, "pattern"));
  cell.trials = field_u64(fields, "trials");
  cell.s = static_cast<mac::Slot>(field_u64(fields, "s"));
  const std::string arrival = field_str(fields, "arrival");
  if (!arrival.empty()) {
    cell.dynamic = true;
    cell.arrival = mac::ArrivalSpec::parse(arrival);
    cell.horizon = static_cast<mac::Slot>(field_u64(fields, "horizon"));
  }
  const std::string impairment = field_str(fields, "impairment");
  if (!impairment.empty()) cell.impairment = mac::ImpairmentSpec::parse(impairment);
  cell.index = field_u64(fields, "index");

  CellStats& stats = record.stats;
  stats.trials = cell.trials;
  stats.failures = field_u64(fields, "failures");
  stats.success_rate = field_double(fields, "success_rate");
  stats.rounds = parse_summary(fields, "rounds");
  stats.collisions = parse_summary(fields, "collisions");
  stats.silences = parse_summary(fields, "silences");
  stats.mean_ci.mean = stats.rounds.mean;
  stats.mean_ci.lo = field_double(fields, "mean_ci_lo");
  stats.mean_ci.hi = field_double(fields, "mean_ci_hi");
  stats.median_ci.mean = stats.rounds.median;
  stats.median_ci.lo = field_double(fields, "median_ci_lo");
  stats.median_ci.hi = field_double(fields, "median_ci_hi");
  stats.throughput = parse_summary(fields, "throughput");
  stats.jain = parse_summary(fields, "jain");
  stats.latency = parse_summary(fields, "latency");
  stats.energy_mean = parse_summary(fields, "energy_mean");
  stats.energy_max = parse_summary(fields, "energy_max");
  stats.energy_mean_ci.mean = stats.energy_mean.mean;
  stats.energy_mean_ci.lo = field_double(fields, "energy_ci_lo");
  stats.energy_mean_ci.hi = field_double(fields, "energy_ci_hi");
  stats.packet_arrivals = field_u64(fields, "packet_arrivals");
  stats.delivered = field_u64(fields, "delivered");
  stats.backlog = field_u64(fields, "backlog");
  if (cell.dynamic) {
    stats.mean_ci.mean = stats.throughput.mean;
    stats.median_ci.mean = stats.throughput.median;
  }

  record.bound = field_double(fields, "bound");
  record.normalized_mean = field_double(fields, "normalized_mean");
  record.rounds_inflation = field_double(fields, "rounds_inflation");
  return record;
}

ManifestData load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("manifest: cannot open " + path);
  ManifestData data;
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("manifest: empty file " + path);
  try {
    const auto header = parse_flat_object(line);
    if (field_str(header, "manifest") != "wakeup-sweep") {
      throw std::runtime_error("manifest: not a wakeup-sweep manifest");
    }
    data.header.version = field_u64(header, "version");
    data.header.base_seed = field_u64(header, "base_seed");
    data.header.grid_hash = field_u64(header, "grid_hash");
    data.header.cells = field_u64(header, "cells");
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("manifest: bad header: ") + e.what());
  }
  if (data.header.version != kManifestVersion) {
    throw std::runtime_error(
        "manifest: " + path + " is version " + std::to_string(data.header.version) +
        ", but this build writes version " + std::to_string(kManifestVersion) +
        (data.header.version < kManifestVersion
             ? " (v2 added p99 and throughput/fairness columns, v3 added the impairment "
               "identity and rounds_inflation robustness column, v4 added the energy block "
               "to every line, v5 made the median CI exact, v6 dropped the engine field) — a "
               "resumed report could not be byte-identical; re-run the sweep fresh (delete the "
               "output directory or pass a new --out)"
             : " — this manifest was written by a newer build"));
  }

  // Record lines.  A malformed line is fatal unless it is the last one —
  // a kill mid-append legitimately tears the tail; that cell just re-runs.
  std::string pending;
  bool have_pending = false;
  while (std::getline(in, line)) {
    if (have_pending) {
      const CellRecord record = parse_manifest_line(pending);  // throws on mid-file damage
      data.by_tag[record.cell.tag] = record;
    }
    pending = line;
    have_pending = true;
  }
  if (have_pending) {
    try {
      const CellRecord record = parse_manifest_line(pending);
      data.by_tag[record.cell.tag] = record;
    } catch (const std::exception&) {
      ++data.dropped_lines;  // torn tail
    }
  }
  return data;
}

namespace {

/// Append-mode tail repair: a kill mid-append can leave the file without a
/// trailing newline.  If the dangling fragment is a valid record it just
/// lost its newline — restore it; otherwise truncate the fragment so the
/// next append starts on a fresh line (load_manifest already dropped it,
/// and its cell re-runs).  Without this, a resumed run would glue its
/// first record onto the torn prefix, corrupting the manifest mid-file and
/// breaking every later resume.
void repair_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return;  // nothing to repair; the open below reports errors
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  in.close();
  if (content.empty() || content.back() == '\n') return;
  const std::size_t last_newline = content.find_last_of('\n');
  const std::string tail =
      last_newline == std::string::npos ? content : content.substr(last_newline + 1);
  bool tail_is_valid_record = false;
  try {
    (void)parse_manifest_line(tail);
    tail_is_valid_record = true;
  } catch (const std::exception&) {
  }
  if (tail_is_valid_record) {
    std::ofstream out(path, std::ios::app);
    out << "\n";
  } else {
    // A torn header (no newline anywhere) cannot reach here through
    // run_sweep — load_manifest throws on it first.
    std::filesystem::resize_file(
        path, last_newline == std::string::npos ? 0 : last_newline + 1);
  }
}

}  // namespace

ManifestWriter::ManifestWriter(const std::string& path, const ManifestHeader& header,
                               bool append) {
  if (append) repair_torn_tail(path);
  path_ = path;
  out_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!out_.good()) throw std::runtime_error("manifest: cannot open " + path + " for writing");
  if (!append) {
    out_ << "{\"manifest\":\"wakeup-sweep\",\"version\":" << header.version
         << ",\"base_seed\":" << header.base_seed << ",\"grid_hash\":" << header.grid_hash
         << ",\"cells\":" << header.cells << "}\n";
    out_.flush();
  }
}

void ManifestWriter::append(const CellRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << manifest_line(record) << "\n";
  out_.flush();
}

std::string shard_manifest_name(std::uint32_t worker) {
  return "manifest-" + std::to_string(worker) + ".jsonl";
}

std::vector<std::string> list_manifest_paths(const std::string& out_dir) {
  std::vector<std::pair<std::uint64_t, std::string>> ordered;
  const std::string legacy = out_dir + "/manifest.jsonl";
  if (std::filesystem::exists(legacy)) ordered.emplace_back(0, legacy);
  if (std::filesystem::is_directory(out_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() <= 15 || name.compare(0, 9, "manifest-") != 0 ||
          name.compare(name.size() - 6, 6, ".jsonl") != 0) {
        continue;
      }
      const std::string id = name.substr(9, name.size() - 15);
      std::size_t pos = 0;
      std::uint64_t worker = 0;
      try {
        worker = std::stoull(id, &pos);
      } catch (const std::exception&) {
        continue;
      }
      if (pos != id.size()) continue;
      ordered.emplace_back(worker + 1, entry.path().string());
    }
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<std::string> paths;
  paths.reserve(ordered.size());
  for (auto& [key, path] : ordered) paths.push_back(std::move(path));
  return paths;
}

}  // namespace wakeup::exp
