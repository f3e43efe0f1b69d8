#pragma once

/// \file manifest.hpp
/// Append-only JSONL sweep manifest: one line per completed cell.
///
/// The manifest is the interruption boundary of a sweep.  Every finished
/// cell appends one flat JSON object (identity + finalized statistics) and
/// flushes, so killing a run loses at most the in-flight cells; `--resume`
/// re-reads the file, skips every recorded cell, and the final report is
/// assembled from recorded + freshly-run cells in grid order — byte
/// identical to an uninterrupted run.  A header line pins the grid
/// fingerprint and base seed so results from a different spec can never be
/// mixed into one report.
///
/// Doubles are serialized with 17 significant digits (exact round-trip), so
/// a resumed report reproduces the fresh report's bytes.  A torn final line
/// (kill mid-write) is detected and dropped; that cell simply re-runs.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/sweep_spec.hpp"

namespace wakeup::exp {

namespace detail {

/// Flat-object JSONL scanner for the manifest's and claim ledger's own
/// output: string and scalar values only, no nesting.  Returns raw value
/// text for scalars and unescaped content for strings; throws
/// std::runtime_error on malformed input.
[[nodiscard]] std::map<std::string, std::string> parse_flat_object(const std::string& line);

/// Typed field accessors over parse_flat_object's map; throw
/// std::runtime_error on missing keys or unparseable values.
[[nodiscard]] double field_double(const std::map<std::string, std::string>& fields,
                                  const std::string& key);
[[nodiscard]] std::uint64_t field_u64(const std::map<std::string, std::string>& fields,
                                      const std::string& key);
[[nodiscard]] std::string field_str(const std::map<std::string, std::string>& fields,
                                    const std::string& key);

}  // namespace detail

/// A completed cell: identity + statistics + the theory-bound columns.
struct CellRecord {
  Cell cell;
  CellStats stats;
  double bound = 0.0;            ///< scenario theory bound for (protocol, n, k)
  double normalized_mean = 0.0;  ///< rounds.mean / bound (0 when bound unusable)
  /// Robustness vs the clean twin (the cell with the same identity minus
  /// the impairment suffix): impaired rounds.mean / clean rounds.mean for
  /// static cells, clean throughput.mean / impaired throughput.mean for
  /// dynamic ones — >= 1 means the impairment cost rounds.  Computed at
  /// report assembly (it is a cross-cell statistic); -1 while unknown or
  /// when the grid carries no clean twin.
  double rounds_inflation = -1.0;
};

/// Round-trip-exact double formatting used by the manifest and the reports
/// (the bytes of printf's "%.17g", written by std::to_chars; NaN/inf
/// become null — JSON has no token for them).
[[nodiscard]] std::string json_double(double value);

/// Serializes one record as a single JSONL line (no trailing newline).
[[nodiscard]] std::string manifest_line(const CellRecord& record);

/// Parses a manifest_line back.  Throws std::runtime_error on malformed
/// input.
[[nodiscard]] CellRecord parse_manifest_line(const std::string& line);

/// Current manifest schema version.  v2 added the p99 percentile to every
/// Summary block and the dynamic-traffic columns (arrival/horizon identity,
/// throughput/jain/latency summaries, packet totals); v3 added the
/// channel-impairment identity and the rounds_inflation robustness column;
/// v4 added the energy block (energy_mean / energy_max summaries and the
/// energy_mean CI); v5 made median_ci_lo/median_ci_hi the exact bootstrap
/// interval instead of a 2000-resample estimate of it; v6 dropped the
/// `engine` field, since the engine is a sweep-wide setting that changes no
/// result (the tag keeps its frozen "engine=auto" text).  Older manifests
/// cannot round-trip byte-identically and are rejected with a friendly error.
inline constexpr std::uint64_t kManifestVersion = 6;

struct ManifestHeader {
  std::uint64_t version = kManifestVersion;
  std::uint64_t base_seed = 0;
  std::uint64_t grid_hash = 0;  ///< grid_fingerprint(cells, base_seed)
  std::uint64_t cells = 0;      ///< grid size, for progress reporting
};

/// Everything a resume pass needs from an existing manifest.
struct ManifestData {
  ManifestHeader header;
  std::map<std::string, CellRecord> by_tag;  ///< completed cells, keyed by tag
  std::uint64_t dropped_lines = 0;           ///< torn/partial lines skipped
};

/// Reads a manifest written by ManifestWriter.  Throws std::runtime_error
/// when the file cannot be opened or the header is missing/invalid; a
/// malformed *trailing* record line (torn by a kill) is dropped and
/// counted, any other malformed line throws.
[[nodiscard]] ManifestData load_manifest(const std::string& path);

/// The per-worker manifest shard name used by multi-process sweeps:
/// "manifest-<worker>.jsonl".  Shards keep every append single-writer, so
/// ManifestWriter's torn-tail repair stays sound with N processes on one
/// out_dir.
[[nodiscard]] std::string shard_manifest_name(std::uint32_t worker);

/// Every manifest in `out_dir`, sorted: the legacy single-process
/// "manifest.jsonl" (if present) followed by the "manifest-<worker>.jsonl"
/// shards in worker order.  Non-matching files are ignored.
[[nodiscard]] std::vector<std::string> list_manifest_paths(const std::string& out_dir);

/// Appends records to `path`, serialized by an internal mutex and flushed
/// per line.  Fresh manifests (`append` false) are truncated and get the
/// header line; resumed ones are opened in append mode (the caller has
/// already validated the existing header via load_manifest).  Append mode
/// first repairs a torn tail so new records never glue onto a partial
/// line: an unparseable trailing fragment (kill mid-append) is truncated
/// away, a valid record merely missing its newline gets one.
class ManifestWriter {
 public:
  ManifestWriter(const std::string& path, const ManifestHeader& header, bool append);

  void append(const CellRecord& record);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
  std::ofstream out_;
};

}  // namespace wakeup::exp
