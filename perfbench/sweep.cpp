/// perfbench_sweep: one measured leg, or one traced replay, of a named
/// workload.  perfbench/run.py runs it once per rep (every rep is a fresh
/// process, as a `wakeup_cli sweep` user's run is) and aggregates the reps.
///
///   perfbench_sweep leg    --workload W --seed S --out DIR
///                           (--threads T | --fleet-workers N) [--setup-reps R]
///   perfbench_sweep replay --workload W --seed S --out DIR [--trace-file PATH]
///
/// `leg` runs every preset of the workload end to end through
/// exp::run_sweep on a T-thread pool (T = 0: inline), or through
/// exp::run_sweep_fleet with N single-threaded worker processes, with obs
/// off.  It reports the wall time from spec to the last report written,
/// peak RSS, a digest of every report and of every cell record, and — with
/// --setup-reps — the median of R set-up reps.
///
/// `replay` is the per-layer view.  It first runs the workload untraced
/// through run_sweep (the reference records and the untraced wall), then
/// rebuilds every cell the way the sweep runner's cell executor does,
/// timing each call into a public function or callback as a span, with
/// obs on.  Layer self time is a span's duration minus its children's.
/// Replay records must match the reference byte for byte.  The `fleet`
/// workload also runs a 1-worker fleet and a merge first, before anything
/// else: run_sweep_fleet forks, and the replay never starts a thread.
///
/// Either mode prints one JSON object as its last stdout line.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/claim_ledger.hpp"
#include "exp/manifest.hpp"
#include "exp/presets.hpp"
#include "exp/sweep_report.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "mac/wake_pattern.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "sim/run.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

using namespace wakeup;

namespace {

// ------------------------------------------------------------- workloads --

/// One preset run of a workload.
struct PresetRun {
  const char* preset;
  bool statistics;            ///< false: ci_resamples = 0 (bootstrap bypassed)
  std::uint64_t trials = 0;   ///< 0 keeps the preset's trial count
};

struct Workload {
  const char* name;
  std::vector<PresetRun> presets;
  bool fleet = false;  ///< the replay also runs a 1-worker fleet and a merge
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"figures",
       {{"figure-scenario-a", true}, {"figure-scenario-b", true}, {"figure-scenario-c", true}}},
      {"engines",
       {{"crossover", false}, {"multichannel-scaling", false, 256}, {"frontier-scaling", false}}},
      {"traffic", {{"dynamic-throughput", true}, {"robustness-curves", true}}},
      {"fleet", {{"figure-scenario-b", true}}, true},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

exp::SweepSpec spec_for(const PresetRun& run, std::uint64_t seed) {
  exp::SweepSpec spec = exp::make_preset(run.preset);
  spec.base_seed = seed;
  if (run.trials > 0) spec.trials = run.trials;
  return spec;
}

std::uint64_t resamples_for(const PresetRun& run) {
  return run.statistics ? exp::SweepOptions{}.ci_resamples : 0;
}

// --------------------------------------------------------------- helpers --

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// FNV-1a 64 as 16 hex digits: the digests run.py compares across reps.
std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

/// Peak RSS in KiB of this process and of its largest waited-for child.
long peak_rss_kb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self.ru_maxrss, children.ru_maxrss);
}

/// Sanity of one finished record, independent of any other run.
bool record_sane(const exp::CellRecord& record) {
  const exp::CellStats& s = record.stats;
  if (s.trials != record.cell.trials) return false;
  if (!(s.success_rate >= 0.0 && s.success_rate <= 1.0)) return false;
  if (record.cell.dynamic) {
    return s.throughput.count == s.trials && s.delivered <= s.packet_arrivals;
  }
  if (s.failures > s.trials || s.rounds.count + s.failures != s.trials) return false;
  return s.rounds.count == 0 ||
         (s.rounds.min <= s.rounds.median && s.rounds.median <= s.rounds.max);
}

/// Stamp fields shared by both modes' JSON.
std::string stamp_fields() {
  return "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": " + quoted(util::simd::active_name()) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
}

// ------------------------------------------------------------------- leg --

struct LegArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string out;
  unsigned threads = 0;
  unsigned fleet_workers = 0;  ///< > 0: run_sweep_fleet with this many workers
  unsigned setup_reps = 0;
};

/// One set-up: make_preset + expand for every preset of the workload, plus
/// pool construction (sweep legs) or ledger creation and the fork/wait of
/// the worker processes (fleet legs).  Returns seconds.
double setup_once(const LegArgs& args) {
  const std::int64_t t0 = now_ns();
  std::vector<std::vector<exp::Cell>> grids;
  for (const PresetRun& run : args.workload->presets) {
    const exp::SweepSpec spec = spec_for(run, args.seed);
    grids.push_back(exp::expand(spec));
  }
  if (args.fleet_workers == 0) {
    const util::ThreadPool pool(args.threads);
    return seconds_between(t0, now_ns());
  }
  std::vector<pid_t> pids;
  const std::string dir = args.out + "/setup";
  if (!util::ensure_directory(dir)) throw std::runtime_error("cannot create " + dir);
  for (std::size_t i = 0; i < grids.size(); ++i) {
    const std::string ledger_path = dir + "/claims.jsonl";
    std::filesystem::remove(ledger_path);
    exp::ManifestHeader header;
    header.base_seed = args.seed;
    header.grid_hash = exp::grid_fingerprint(grids[i], args.seed);
    header.cells = grids[i].size();
    const exp::ClaimLedger ledger(ledger_path, header);
    for (unsigned w = 0; w < args.fleet_workers; ++w) {
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) ::_exit(0);
      pids.push_back(pid);
    }
  }
  const double seconds = seconds_between(t0, now_ns());
  // Reaping is not set-up: how soon an exiting child is scheduled is host
  // noise, and the workers' own exit is part of the fleet's run.
  for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
  return seconds;
}

int run_leg(const LegArgs& args) {
  std::vector<exp::SweepOutcome> outcomes;
  unsigned resumes = 0;
  const std::int64_t t0 = now_ns();
  std::optional<util::ThreadPool> pool;
  if (args.fleet_workers == 0) pool.emplace(args.threads);
  for (const PresetRun& run : args.workload->presets) {
    const exp::SweepSpec spec = spec_for(run, args.seed);
    exp::SweepOptions options;
    options.out_dir = args.out + "/" + run.preset;
    options.ci_resamples = resamples_for(run);
    if (args.fleet_workers > 0) {
      // A worker that fails leaves its banked cells in its shard, and the
      // documented recovery is a --resume re-run, which is what a user
      // does.  The leg counts such re-runs, and its wall time includes
      // the failed attempt.
      for (unsigned attempt = 0;; ++attempt) {
        try {
          outcomes.push_back(exp::run_sweep_fleet(spec, options, args.fleet_workers, 0));
          break;
        } catch (const std::runtime_error& e) {
          if (attempt == 2) throw;
          std::fprintf(stderr, "perfbench_sweep: resuming after: %s\n", e.what());
          options.resume = true;
          ++resumes;
        }
      }
    } else {
      options.pool = &*pool;
      outcomes.push_back(exp::run_sweep(spec, options));
    }
  }
  const double wall = seconds_between(t0, now_ns());
  pool.reset();
  const long rss = peak_rss_kb();

  std::vector<double> setups;
  for (unsigned r = 0; r < args.setup_reps; ++r) setups.push_back(setup_once(args));
  std::sort(setups.begin(), setups.end());

  std::uint64_t total = 0;
  std::uint64_t run_cells = 0;
  std::uint64_t bad = 0;
  std::string reports;
  std::string cells;
  for (const exp::SweepOutcome& outcome : outcomes) {
    total += outcome.cells_total;
    if (!outcome.completed) continue;
    run_cells += outcome.records.size();
    if (!reports.empty()) reports += ", ";
    reports += quoted(digest(slurp(outcome.csv_path) + '\0' + slurp(outcome.json_path)));
    for (const exp::CellRecord& record : outcome.records) {
      if (!record_sane(record)) ++bad;
      if (!cells.empty()) cells += ", ";
      cells += quoted(digest(exp::manifest_line(record)));
    }
  }
  std::printf(
      "{\"mode\": \"leg\", %s, \"wall_s\": %s, \"setup_s\": %s, \"rss_kb\": %ld, "
      "\"fleet_resumes\": %u, \"cells_total\": %llu, \"cells_run\": %llu, \"cells_bad\": %llu, "
      "\"reports\": [%s], \"cells\": [%s]}\n",
      stamp_fields().c_str(), number(wall).c_str(),
      setups.empty() ? "null" : number(setups[setups.size() / 2]).c_str(), rss, resumes,
      static_cast<unsigned long long>(total), static_cast<unsigned long long>(run_cells),
      static_cast<unsigned long long>(bad), reports.c_str(), cells.c_str());
  return 0;
}

// ---------------------------------------------------------------- replay --

/// In-memory span log of the replay, single-threaded.  Spans nest through
/// an open-span stack; closing a span adds its duration to its parent's
/// child time, so a layer's self time is dur - child.  Spans are written to
/// the obs trace recorder only after the timed section.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t child_ns;
    std::int64_t parent;  ///< index into spans, -1 at the top
    std::string label;    ///< cell tag on "exp.cell" spans
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::string label = {}) : log_(log) {
      log_.open(name, std::move(label));
    }
    ~Scope() { log_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per span name over spans that started at or after `from`.
  [[nodiscard]] std::map<std::string, double> self_ms(std::size_t from = 0) const {
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(spans_[i].dur_ns - spans_[i].child_ns) * 1e-6;
    }
    return out;
  }

  [[nodiscard]] std::map<std::string, std::uint64_t> counts(std::size_t from = 0) const {
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = from; i < spans_.size(); ++i) ++out[spans_[i].name];
    return out;
  }

  /// Hands every span to obs::trace_duration, anchored so that `origin_ns`
  /// (a steady-clock reading) maps to `origin_us` in the trace clock.
  void emit(std::int64_t origin_ns, std::uint64_t origin_us) const {
    const auto to_us = [&](std::int64_t ns) {
      const std::int64_t since = std::max<std::int64_t>(0, ns - origin_ns);
      return origin_us + static_cast<std::uint64_t>(since / 1000);
    };
    for (const Span& span : spans_) {
      const std::uint64_t begin = to_us(span.start_ns);
      const std::uint64_t end = to_us(span.start_ns + span.dur_ns);
      if (span.label.empty()) {
        obs::trace_duration(span.name, "layer", begin, end - begin);
      } else {
        obs::trace_duration(span.name, "layer", begin, end - begin, {{"tag", span.label}});
      }
    }
  }

 private:
  void open(const char* name, std::string label) {
    const std::int64_t parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    stack_.push_back(spans_.size());
    spans_.push_back({name, now_ns(), 0, 0, parent, std::move(label)});
  }

  void close() {
    Span& span = spans_[stack_.back()];
    stack_.pop_back();
    span.dur_ns = now_ns() - span.start_ns;
    if (span.parent >= 0) spans_[static_cast<std::size_t>(span.parent)].child_ns += span.dur_ns;
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

proto::ProtocolPtr build_registry_protocol(const exp::Cell& cell, std::uint64_t seed) {
  proto::ProtocolSpec spec;
  spec.name = cell.protocol;
  spec.n = cell.n;
  spec.k = cell.k;
  spec.s = cell.s;
  spec.seed = seed;
  return proto::make_protocol_by_name(spec);
}

proto::McProtocolPtr build_mc_protocol(const exp::Cell& cell, std::uint64_t seed) {
  if (cell.protocol == "striped_rr") return proto::make_striped_round_robin(cell.n, cell.channels);
  if (cell.protocol == "group_wag") {
    return proto::make_group_wait_and_go(cell.n, cell.k, cell.channels,
                                         comb::FamilyKind::kRandomized, seed);
  }
  if (cell.protocol == "random_rpd") {
    return proto::make_random_channel_rpd(cell.n, cell.channels, seed);
  }
  return proto::make_single_channel_adapter(build_registry_protocol(cell, seed), cell.channels);
}

/// Rebuilds one cell as the sweep runner's cell executor does, with every
/// callback and library call wrapped in a span.
exp::CellRecord replay_cell(const exp::SweepSpec& spec, const exp::Cell& cell,
                            std::uint64_t ci_resamples, util::ThreadPool& pool, SpanLog& log) {
  const SpanLog::Scope cell_scope(log, "exp.cell", cell.tag);
  sim::RunSpec run;
  run.trials = cell.trials;
  run.base_seed = spec.base_seed;
  run.cell_tag = cell.tag_hash;
  run.sim = spec.sim;
  run.sim.engine = cell.engine;
  run.sim.energy = sim::EnergyModel::kListenAll;
  run.impairment = cell.impairment;

  exp::Aggregator aggregator(cell.trials, cell.dynamic);
  const bool multichannel =
      !cell.dynamic && (cell.channels > 1 || exp::is_mc_strategy(cell.protocol));
  if (multichannel) {
    run.make_mc_protocol = [&](std::uint64_t seed) {
      const SpanLog::Scope scope(log, "protocols.build");
      return build_mc_protocol(cell, seed);
    };
    run.per_trial_mc = [&](std::uint64_t i, const sim::McSimResult& r) {
      const SpanLog::Scope scope(log, "exp.aggregate");
      aggregator.add(i, r);
    };
  } else {
    run.make_protocol = [&](std::uint64_t seed) {
      const SpanLog::Scope scope(log, "protocols.build");
      return build_registry_protocol(cell, seed);
    };
  }
  if (cell.dynamic) {
    run.horizon = cell.horizon;
    run.arrival = cell.arrival;
    run.dynamic_n = cell.n;
    run.dynamic_k = cell.k;
    run.per_trial_dynamic = [&](std::uint64_t i, const sim::DynamicResult& r) {
      const SpanLog::Scope scope(log, "exp.aggregate");
      aggregator.add(i, r);
    };
  } else {
    if (cell.pattern == exp::PatternKind::kAdversarial) {
      throw std::logic_error("replay: adversarial wake patterns are not replayed");
    }
    const mac::patterns::Kind kind = exp::generator_kind(cell.pattern);
    run.make_pattern = [&, kind](util::Rng& rng) {
      const SpanLog::Scope scope(log, "mac.pattern");
      return mac::patterns::generate(kind, cell.n, cell.k, cell.s, rng);
    };
    if (!multichannel) {
      run.per_trial = [&](std::uint64_t i, const sim::SimResult& r) {
        const SpanLog::Scope scope(log, "exp.aggregate");
        aggregator.add(i, r);
      };
    }
  }
  {
    const SpanLog::Scope scope(log, "sim.run");
    (void)sim::Run(run, &pool);
  }
  exp::CellRecord record;
  record.cell = cell;
  {
    const SpanLog::Scope scope(log, "exp.finalize");
    record.stats = aggregator.finalize(
        ci_resamples, util::hash_words({spec.base_seed, 0x4349ULL /* "CI" */, cell.tag_hash}));
  }
  if (!cell.dynamic) {
    record.bound = exp::cell_bound(cell);
    record.normalized_mean = record.bound > 0 && record.stats.rounds.count > 0
                                 ? record.stats.rounds.mean / record.bound
                                 : 0.0;
  }
  return record;
}

struct ReplayArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string out;
  std::string trace_file;
};

/// Sums `key` over the metrics-<W>.json shards the fleet workers wrote.
std::uint64_t shard_metric(const std::string& dir, const std::string& key) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("metrics-", 0) != 0) continue;
    const std::string text = slurp(entry.path().string());
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at != std::string::npos) {
      total += std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
    }
  }
  return total;
}

int run_replay(const ReplayArgs& args) {
  const Workload& workload = *args.workload;
  util::ThreadPool inline_pool(0);  // the replay never starts a thread
  // Fleet metrics read 0 on workloads without a fleet leg.
  std::map<std::string, double> m = {
      {"fleet.run_ms", 0},       {"fleet.merge_ms", 0},      {"fleet.ledger_lines", 0},
      {"fleet.ledger_bytes", 0}, {"fleet.ledger_claims", 0}, {"fleet.lease_steals", 0},
  };
  SpanLog log;
  const std::int64_t origin_ns = now_ns();
  const std::uint64_t origin_us = obs::trace_now_us();

  // Fleet legs first: run_sweep_fleet forks, and only the calling thread
  // survives a fork.  obs is on so each worker writes its metrics shard.
  double fleet_run_ms = 0;
  if (workload.fleet) {
    const PresetRun& run = workload.presets.front();
    exp::SweepOptions options;
    options.out_dir = args.out + "/fleet";
    options.ci_resamples = resamples_for(run);
    options.metrics_path = args.out + "/fleet-metrics.json";
    obs::set_enabled(true);
    std::int64_t t0 = now_ns();
    {
      const SpanLog::Scope scope(log, "fleet.run");
      if (!exp::run_sweep_fleet(spec_for(run, args.seed), options, 1, 0).completed) {
        throw std::runtime_error("replay: the fleet left cells pending");
      }
    }
    fleet_run_ms = seconds_between(t0, now_ns()) * 1e3;
    t0 = now_ns();
    {
      const SpanLog::Scope scope(log, "fleet.merge");
      (void)exp::merge_sweep(options.out_dir);
    }
    m["fleet.merge_ms"] = seconds_between(t0, now_ns()) * 1e3;
    obs::set_enabled(false);
    const std::string claims = slurp(options.out_dir + "/claims.jsonl");
    m["fleet.run_ms"] = fleet_run_ms;
    m["fleet.ledger_bytes"] = static_cast<double>(claims.size());
    m["fleet.ledger_lines"] = static_cast<double>(std::count(claims.begin(), claims.end(), '\n'));
    m["fleet.ledger_claims"] = static_cast<double>(shard_metric(options.out_dir, "ledger.claims"));
    m["fleet.lease_steals"] =
        static_cast<double>(shard_metric(options.out_dir, "ledger.lease_steals"));
  }

  // Untraced reference: the records and reports the replay must reproduce.
  std::vector<exp::SweepOutcome> reference;
  const std::int64_t u0 = now_ns();
  for (const PresetRun& run : workload.presets) {
    exp::SweepOptions options;
    options.out_dir = args.out + "/reference/" + run.preset;
    options.ci_resamples = resamples_for(run);
    options.pool = &inline_pool;
    reference.push_back(exp::run_sweep(spec_for(run, args.seed), options));
  }
  const double untraced_ms = seconds_between(u0, now_ns()) * 1e3;

  // Traced replay, obs on.
  obs::reset();
  obs::set_enabled(true);
  const std::size_t first_span = log.spans().size();
  std::vector<std::vector<exp::CellRecord>> replayed;
  std::vector<std::string> report_paths;
  double manifest_bytes = 0;
  const std::int64_t r0 = now_ns();
  for (const PresetRun& run : workload.presets) {
    const exp::SweepSpec spec = spec_for(run, args.seed);
    std::vector<exp::Cell> cells;
    {
      const SpanLog::Scope scope(log, "exp.expand");
      cells = exp::expand(spec);
    }
    const std::string dir = args.out + "/replay/" + run.preset;
    if (!util::ensure_directory(dir)) throw std::runtime_error("cannot create " + dir);
    exp::ManifestHeader header;
    header.base_seed = spec.base_seed;
    header.grid_hash = exp::grid_fingerprint(cells, spec.base_seed);
    header.cells = cells.size();
    std::optional<exp::ManifestWriter> writer;
    {
      const SpanLog::Scope scope(log, "exp.manifest");
      writer.emplace(dir + "/manifest.jsonl", header, /*append=*/false);
    }
    std::vector<exp::CellRecord> records;
    records.reserve(cells.size());
    for (const exp::Cell& cell : cells) {
      records.push_back(replay_cell(spec, cell, resamples_for(run), inline_pool, log));
      const SpanLog::Scope scope(log, "exp.manifest");
      writer->append(records.back());
    }
    {
      const SpanLog::Scope scope(log, "exp.report");
      exp::apply_inflation_join(records);
      exp::write_csv_report(dir + "/report.csv", records);
      exp::write_json_report(dir + "/report.json", header, records);
    }
    writer.reset();
    manifest_bytes += static_cast<double>(file_size(dir + "/manifest.jsonl"));
    report_paths.push_back(dir + "/report.csv");
    report_paths.push_back(dir + "/report.json");
    replayed.push_back(std::move(records));
  }
  const double traced_ms = seconds_between(r0, now_ns()) * 1e3;
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::snapshot();

  // Correctness: every replayed cell against the reference record, and the
  // replay's reports against run_sweep's.
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  for (std::size_t p = 0; p < replayed.size(); ++p) {
    const exp::SweepOutcome& ref = reference[p];
    const std::vector<exp::CellRecord>& records = replayed[p];
    total += ref.cells_total;
    if (!ref.completed || ref.records.size() != records.size()) {
      bad += ref.cells_total;
      continue;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!record_sane(records[i]) ||
          exp::manifest_line(records[i]) != exp::manifest_line(ref.records[i])) {
        ++bad;
      }
    }
    if (slurp(ref.csv_path) != slurp(report_paths[2 * p]) ||
        slurp(ref.json_path) != slurp(report_paths[2 * p + 1])) {
      bad = std::max<std::uint64_t>(bad, 1);
    }
  }

  // Layer self times by span name; "exp.cell" (the executor glue between a
  // cell's calls) is not a layer.
  static const std::pair<const char*, const char*> kLayers[] = {
      {"exp.expand", "exp.expand_ms"},       {"exp.aggregate", "exp.aggregate_ms"},
      {"exp.finalize", "exp.finalize_ms"},   {"exp.manifest", "exp.manifest_ms"},
      {"exp.report", "exp.report_ms"},       {"protocols.build", "protocols.build_ms"},
      {"mac.pattern", "mac.pattern_ms"},     {"sim.run", "sim.run_self_ms"},
  };
  const std::map<std::string, double> self = log.self_ms(first_span);
  const std::map<std::string, std::uint64_t> counts = log.counts(first_span);
  double covered = 0;
  for (const auto& [span, metric] : kLayers) {
    const auto it = self.find(span);
    m[metric] = it == self.end() ? 0.0 : it->second;
    covered += m[metric];
  }
  const auto count_of = [&](const char* name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  m["exp.manifest_bytes"] = manifest_bytes;
  double report_bytes = 0;
  for (const std::string& path : report_paths) report_bytes += static_cast<double>(file_size(path));
  m["exp.report_bytes"] = report_bytes;
  m["protocols.builds"] = count_of("protocols.build");
  m["mac.patterns"] = count_of("mac.pattern");
  m["sim.trials"] = count_of("exp.aggregate");
  m["sim.us_per_trial"] = m["sim.trials"] > 0 ? 1e3 * m["sim.run_self_ms"] / m["sim.trials"] : 0;
  m["sim.cache_hit_ratio"] = obs::snapshot_ratio(snap, "cache.find_hits", "cache.find_misses");
  m["sim.cache_census_declines"] =
      static_cast<double>(obs::snapshot_value(snap, "cache.census_declines"));
  m["sim.cache_bytes_resident"] =
      static_cast<double>(obs::snapshot_value(snap, "cache.bytes_resident"));
  m["sim.batch_tiles"] = static_cast<double>(obs::snapshot_value(snap, "batch.tiles"));
  m["sim.batch_words_fetched"] =
      static_cast<double>(obs::snapshot_value(snap, "batch.words_fetched"));
  const auto warmup = snap.find("run.warmup_slots");  // a histogram: total slots = sum
  m["sim.warmup_slots"] = warmup == snap.end() ? 0.0 : static_cast<double>(warmup->second.sum);
  m["sim.dynamic_peak_backlog"] =
      static_cast<double>(obs::snapshot_value(snap, "dynamic.peak_backlog"));
  m["fleet.overhead_frac"] = workload.fleet ? fleet_run_ms / untraced_ms - 1.0 : 0.0;
  m["obs.trace_overhead_frac"] = traced_ms / untraced_ms - 1.0;
  m["trace.wall_ms"] = traced_ms;
  m["trace.untraced_wall_ms"] = untraced_ms;
  m["trace.coverage_frac"] = covered / traced_ms;

  if (!args.trace_file.empty()) {
    obs::set_trace_enabled(true);
    obs::trace_set_process(0, std::string("perfbench replay ") + workload.name);
    log.emit(origin_ns, origin_us);
    obs::write_trace_json(args.trace_file);
    obs::set_trace_enabled(false);
  }

  std::string metrics;
  for (const auto& [name, value] : m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(name) + ": " + number(value);
  }
  std::printf(
      "{\"mode\": \"replay\", %s, \"cells_total\": %llu, \"cells_bad\": %llu, "
      "\"metrics\": {%s}}\n",
      stamp_fields().c_str(), static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(bad), metrics.c_str());
  return 0;
}

// ------------------------------------------------------------------ main --

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_sweep: %s\n"
               "usage: perfbench_sweep leg --workload W --seed S --out DIR "
               "(--threads T | --fleet-workers N) [--setup-reps R]\n"
               "       perfbench_sweep replay --workload W --seed S --out DIR "
               "[--trace-file PATH]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!optimized) {
    std::fprintf(stderr, "perfbench_sweep: built as '%s'; timings come only from Release builds\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0) usage("bad flag list");
    flags[argv[i]] = argv[i + 1];
  }
  const auto flag = [&](const std::string& name, const std::string& fallback = "") {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  };
  try {
    const Workload& workload = find_workload(flag("--workload"));
    const std::uint64_t seed = parse_u64("--seed", flag("--seed"));
    const std::string out = flag("--out");
    if (out.empty()) usage("--out is required");
    if (mode == "leg") {
      LegArgs args;
      args.workload = &workload;
      args.seed = seed;
      args.out = out;
      args.threads = static_cast<unsigned>(parse_u64("--threads", flag("--threads", "0")));
      args.fleet_workers =
          static_cast<unsigned>(parse_u64("--fleet-workers", flag("--fleet-workers", "0")));
      args.setup_reps = static_cast<unsigned>(parse_u64("--setup-reps", flag("--setup-reps", "0")));
      return run_leg(args);
    }
    if (mode == "replay") {
      ReplayArgs args;
      args.workload = &workload;
      args.seed = seed;
      args.out = out;
      args.trace_file = flag("--trace-file");
      return run_replay(args);
    }
    usage("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sweep: %s\n", e.what());
    return 1;
  }
}
