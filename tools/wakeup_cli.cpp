/// wakeup_cli — run any registered protocol against a generated or replayed
/// wake pattern, with optional trace and CSV emission.
///
/// Usage:
///   wakeup_cli run  --protocol=wakeup_matrix --n=1024 --k=16
///                   [--pattern=staggered|simultaneous|uniform|batched|poisson|exp_spread]
///                   [--s=0] [--seed=1] [--trials=1] [--trace] [--cd]
///                   [--engine=auto|interpret|batch] [--threads=N]
///                   [--channels=4] [--mc=adapter|striped_rr|group_wag|random_rpd]
///                   [--per-trial-csv=trials.csv]
///                   [--pattern-file=arrivals.csv] [--save-pattern=out.csv]
///                   [--arrival=poisson:0.2 --horizon=2048]  (dynamic traffic)
///   wakeup_cli sweep --preset=figure-scenario-b --out=sweep_b [--resume]
///   wakeup_cli sweep --protocols=wakeup_with_k,round_robin --n=2^10..2^13 --k=1,8,64
///   wakeup_cli sweep --preset=dynamic-throughput   # sustained-load grid
///   wakeup_cli sweep --preset=figure-scenario-b --out=sweep_b --workers=4
///   wakeup_cli sweep merge --out=sweep_b           # shards -> report
///   wakeup_cli adversary --protocol=round_robin --n=128 --k=16 [--seed=1]
///   wakeup_cli certify --n=16 [--c=2] [--seed=1]          # waking-matrix seed search
///   wakeup_cli list                                       # protocols + capabilities
///
/// Exit code 0 on success (wake-up achieved in every trial), 1 otherwise,
/// 2 on bad arguments — including any flag the command does not read.
/// `<command> --help` prints that command's options and exits 0.

#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "combinatorics/waking_search.hpp"
#include "mac/pattern_io.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "wakeup/wakeup.hpp"

using namespace wakeup;

namespace {

constexpr const char* kCommandsUsage =
    R"(wakeup_cli — contention resolution on a multiple access channel

commands:
  run        simulate a protocol against a wake pattern
  sweep      run a declarative parameter grid (presets or --protocols/--n/--k axes)
  adversary  play the Theorem 2.1 element-swap game against a protocol
  certify    search for a certified waking-matrix seed (small n)
  list       list registered protocols with capability columns
  <command> --help prints that command's options.  Every command rejects a
  flag it does not read (exit 2).
)";

constexpr const char* kCommonUsage = R"(
common options (run, adversary):
  --protocol=<name>      (see `list`; default wakeup_matrix)
  --n=<int>              universe size (default 1024; adversary 128)
  --k=<int>              contention bound / pattern size (default 8; adversary 16)
  --s=<int>              known start slot for Scenario A protocols (default 0)
  --seed=<int>           randomness seed (default 1)
)";

constexpr const char* kRunUsage = R"(
run options:
  --pattern=<kind>       staggered|simultaneous|uniform|batched|poisson|exp_spread
  --pattern-file=<csv>   replay arrivals from "station,wake" rows instead
  --save-pattern=<csv>   write the generated pattern out
  --trials=<int>         independent trials (default 1)
  --trace                print the slot-by-slot timeline (single trial)
  --cd                   collision-detection feedback (for tree_splitting)
  --max-slots=<int>      slot budget (default: auto)
  --engine=<sel>         auto|interpret|batch (default auto)
  --threads=<int>        worker threads for multi-trial runs (default: one
                         per hardware thread via the shared pool; 0 = inline)
  --channels=<int>       C-channel network (default 1 = the paper's model)
  --mc=<strategy>        adapter|striped_rr|group_wag|random_rpd
                         (default adapter: --protocol embedded on channel 0)
  --per-trial-csv=<csv>  stream one result row per trial (no accumulation)
  --arrival=<spec>       dynamic traffic: per-station packet queues fed by
                         poisson:RATE | bursty:RATE:SWITCH | pareto:ALPHA[:RATE]
                         (RATE = offered load, packets/slot across k stations)
  --horizon=<int>        slots per dynamic trial (default 2048)
  --arrival-file=<csv>   replay a fixed "station,slot" packet trace instead
                         (one row per packet; stations may repeat)
  --noise=<spec>         feedback noise: iid:P | bursty:P:SWITCH (mac/impairment
                         grammar minus the "noise:" prefix; "none" = clean)
  --jam=<spec>           budgeted jamming: budget:J[:front|spread|random|adversarial]
                         (adversarial searches the worst placement; static only)
  --faults=<spec>        station faults: crash:F[:slot] | byzantine:F
                         (dynamic traffic only); clauses compose, e.g.
                         --noise=iid:0.01 --jam=budget:16
  --energy=<model>       per-station energy accounting: off | listen:all |
                         listen:until_woken (identical numbers from every
                         engine; prints the station mean/max)
  --metrics=<json>       write the obs metrics registry snapshot (counters,
                         gauges, histograms; deterministic key order)
  --trace=<json>         with a file path: write a Chrome trace-event /
                         Perfetto file (slot timeline as instant events);
                         bare --trace keeps the classic stdout print

note: --save-pattern generates one pattern up front, saves it, and replays
it for every trial (use --pattern-file to re-run it later).
)";

constexpr const char* kSweepUsage = R"(
sweep options:
  --preset=<name>        figure-scenario-a/b/c, crossover, multichannel-scaling,
                         smoke, frontier-scaling, dynamic-throughput,
                         robustness-curves (grid flags below override preset
                         axes)
  --protocols=<a,b,..>   protocol axis: registry names and/or striped_rr,
                         group_wag, random_rpd
  --n=<axis>             axis grammar: N, 2^E, doubling range A..B, commas
                         (e.g. --n=2^10..2^17 --k=1,8,64)
  --k=<axis>  --channels=<axis>
  --pattern=<a,b,..>     generator kinds plus `adversarial` (per-cell
                         hardest-pattern search, sim/adversary)
  --arrival=<a,b,..>     dynamic-traffic axis (replaces --pattern), e.g.
                         --arrival=poisson:0.1,bursty:0.5:0.05,pareto:1.5
  --horizon=<int>        slots per dynamic trial (default 2048)
  --noise=<a,b,..> --jam=<a,b,..> --faults=<a,b,..>
                         impairment axis: each flag is a comma list of clause
                         values ("none" allowed); the axis is their cross
                         product with clauses joined by '+', so
                         --noise=none,iid:0.05 --jam=none,budget:16 sweeps the
                         clean channel, each impairment alone, and both
  --engine=<sel>         auto|interpret|batch: one engine for the whole sweep
                         (default auto); engines are bit-identical, so it
                         changes no result
  --trials=<int>         Monte-Carlo trials per cell
  --out=<dir>            output directory (manifest.jsonl, report.csv/json;
                         default sweep_out)
  --resume               skip cells already in the manifest; the final
                         report is byte-identical to an uninterrupted run
  --threads=<int>        pool size for cell/trial parallelism (default:
                         shared pool; 0 = inline)
  --ci-resamples=<int>   mean-CI resamples; 0 turns every CI off; the median
                         CI is exact (default 2000)
  --max-cells=<int>      stop after N pending cells (CI/kill simulation)
  --per-trial-csv=<csv>  stream one row per trial across all cells
  --quiet                suppress per-cell progress lines
  --progress=<N>         heartbeat every N completed cells: completed/total,
                         cells/sec, ETA (off by default; workers prefix
                         their lines with [worker W])
  --workers=<N>          fork N cooperating worker processes against --out:
                         cells are leased through the claim ledger
                         (claims.jsonl), results land in per-worker shards
                         (manifest-<w>.jsonl), and the driver merges them
                         into the canonical report on exit
  --worker-id=<W>        run THIS process as worker W of an externally
                         launched fleet (cluster schedulers; every worker
                         shares --out on one filesystem); drain, then run
                         `sweep merge --out=<dir>` once to emit the report
  --lease-cells=<N>      cells leased per claim (default 8)
  --lease-ttl=<ms>       lease duration before a crashed worker's cells
                         become stealable (default 10000)
  --metrics=<json>       write the obs registry snapshot after the sweep
                         (engine counters, cell wall times, ledger steals;
                         fleet workers shard to <out>/metrics-<w>.json)
  --trace=<json>         write a Perfetto trace: one duration event per
                         cell; fleet workers get their own process row and
                         the driver merges <out>/trace-<w>.json shards here

sweep merge:
  wakeup_cli sweep merge --out=<dir>
                         merge every manifest shard in <dir> and write the
                         report (byte-identical to a single-process run);
                         exit 1 while cells are still missing
)";

constexpr const char* kCertifyUsage = R"(
certify options:
  --n=<int>              universe size (default 16)
  --c=<int>              the matrix constant c (default 2)
  --k-exhaustive=<int>   check every pattern up to this k (default 2; 0 = off)
  --k-random=<int>       random patterns up to this k (default 8; 0 = off)
  --seed=<int>           first seed tried (default 1)
)";

/// The usage text: the command list plus the sections `command` reads, or
/// every section when the command is empty or unknown.
void print_usage(const std::string& command = "") {
  std::cout << kCommandsUsage;
  if (command == "run" || command == "adversary") std::cout << kCommonUsage;
  if (command == "run") std::cout << kRunUsage;
  if (command == "sweep") std::cout << kSweepUsage;
  if (command == "certify") std::cout << kCertifyUsage;
  if (command != "list" && command != "run" && command != "adversary" && command != "sweep" &&
      command != "certify") {
    std::cout << kCommonUsage << kRunUsage << kSweepUsage << kCertifyUsage;
  }
}

/// Composes `run`'s --noise/--jam/--faults flags into one impairment spec:
/// each flag contributes its clause ("none" and absent flags contribute
/// nothing), clauses joined by '+' through the mac/impairment grammar.
mac::ImpairmentSpec parse_impairment_flags(const util::Args& args) {
  std::string text;
  const auto add = [&text](const char* prefix, const std::string& value) {
    if (value.empty() || value == "none") return;
    if (!text.empty()) text += '+';
    text += prefix;
    text += value;
  };
  if (args.has("noise")) add("noise:", args.get("noise"));
  if (args.has("jam")) add("jam:", args.get("jam"));
  if (args.has("faults")) add("", args.get("faults"));
  if (text.empty()) return {};
  return mac::ImpairmentSpec::parse(text);
}

/// The run commands' --energy flag (off when absent).
sim::EnergyModel parse_energy_flag(const util::Args& args) {
  if (!args.has("energy")) return sim::EnergyModel::kOff;
  return sim::parse_energy_model(args.get("energy"));
}

/// The --metrics=FILE flag: enables the registry and returns the path ("" =
/// flag absent).  Enabling must precede the simulation so the counters see
/// every event.
std::string metrics_flag(const util::Args& args) {
  if (!args.has("metrics")) return "";
  const std::string path = args.get("metrics");
  if (path.empty()) throw std::invalid_argument("--metrics needs a file path");
  obs::set_enabled(true);
  return path;
}

/// The run command's --trace flag is overloaded: bare/boolean values keep
/// the classic stdout timeline print, anything else is a Perfetto output
/// path.  Returns the path ("" = print mode or absent).
std::string trace_path_flag(const util::Args& args) {
  if (!args.has("trace") || args.get_flag("trace")) return "";
  return args.get("trace");
}

/// Bounded integer flag shared by every command: a negative value would
/// wrap through the uint64 casts into a ~2^64 trial count / loop bound.
std::int64_t bounded_flag(const util::Args& args, const char* key, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) {
  const std::int64_t v = args.get_int(key, fallback);
  if (v < lo || v > hi) {
    throw std::invalid_argument("--" + std::string(key) + " must be in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// --n / --k style station counts, [1, 2^32 - 1].
std::uint32_t count_flag(const util::Args& args, const char* key, std::int64_t fallback) {
  return static_cast<std::uint32_t>(
      bounded_flag(args, key, fallback, 1, std::numeric_limits<std::uint32_t>::max()));
}

/// --s: the first wake slot, >= 0.
mac::Slot start_flag(const util::Args& args) {
  return bounded_flag(args, "s", 0, 0, std::numeric_limits<std::int64_t>::max());
}

/// --trials for run: at least one trial (0 would exit 0 having run nothing).
std::uint64_t trials_flag(const util::Args& args) {
  return static_cast<std::uint64_t>(bounded_flag(args, "trials", 1, 1, 1'000'000'000));
}

/// --channels for run: the C of the C-channel model.
std::uint32_t channels_flag(const util::Args& args) {
  return static_cast<std::uint32_t>(bounded_flag(args, "channels", 1, 1, 65536));
}

/// The --threads flag, shared by run/sweep: the worker count of a
/// dedicated pool (0 = inline), or -1 when the flag is absent — callers
/// then fall back to the process-wide shared pool.
std::int64_t threads_flag(const util::Args& args) {
  return args.has("threads") ? bounded_flag(args, "threads", 0, 0, 1024) : -1;
}

/// The dedicated pool a threads_flag value asks for (nullptr for -1).
std::unique_ptr<util::ThreadPool> make_own_pool(std::int64_t threads) {
  if (threads < 0) return nullptr;
  return std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads));
}

mac::patterns::Kind parse_kind(const std::string& label) {
  for (const auto kind : mac::patterns::all_kinds()) {
    if (mac::patterns::kind_name(kind) == label) return kind;
  }
  throw std::invalid_argument("unknown pattern kind: " + label);
}

const char* yn(bool v) { return v ? "yes" : "-"; }

int cmd_list(const util::Args& args) {
  args.reject_unread();
  // The capability columns are the same answers exp/sweep_spec.cpp
  // validates grids against, so what this table says runs, runs.
  util::ConsoleTable table({"protocol", "oblivious", "cheap-words", "randomized", "needs-k",
                            "needs-s", "needs-cd", "dynamic"});
  for (const auto& name : proto::protocol_names()) {
    const auto caps = proto::protocol_capabilities(name);
    table.cell(name)
        .cell(yn(caps.oblivious))
        .cell(yn(caps.cheap_words))
        .cell(yn(caps.randomized))
        .cell(yn(caps.needs_k))
        .cell(yn(caps.needs_start_time))
        .cell(yn(caps.needs_collision_detection))
        .cell(yn(caps.dynamic));
    table.end_row();
  }
  table.print(std::cout);
  std::cout << "\nmultichannel strategies (sweep --protocols / run --mc): ";
  bool first = true;
  for (const auto& name : exp::mc_strategy_names()) {
    std::cout << (first ? "" : ", ") << name;
    first = false;
  }
  std::cout << ", adapter (any registry protocol at --channels > 1)\n"
            << "oblivious protocols batch word-parallel; non-oblivious ones run on the\n"
            << "slot interpreter (engine=batch rejects them at grid validation).\n"
            << "`dynamic` marks protocols that re-contend per packet under sustained\n"
            << "load (--arrival); static-only ones are rejected on arrival-axis grids.\n";
  return 0;
}

/// `sweep merge --out=dir`: standalone deterministic merge for cluster
/// launchers whose workers ran with --worker-id on a shared filesystem.
int cmd_sweep_merge(const util::Args& args) {
  const std::string out_dir = args.get("out", "sweep_out");
  args.reject_unread();
  const exp::SweepOutcome outcome = exp::merge_sweep(out_dir);
  std::cout << "cells: " << outcome.cells_total << " total, " << outcome.cells_resumed
            << " merged, " << outcome.cells_remaining << " remaining\n";
  if (!outcome.completed) {
    std::cout << "grid incomplete — run the remaining cells (more workers, or --resume) "
                 "before merging\n";
    return 1;
  }
  std::cout << "report: " << outcome.csv_path << "  " << outcome.json_path << "\n";
  return 0;
}

int cmd_sweep(const util::Args& args) {
  if (args.positional().size() > 1 && args.positional()[1] == "merge") {
    return cmd_sweep_merge(args);
  }
  exp::SweepSpec spec =
      args.has("preset") ? exp::make_preset(args.get("preset")) : exp::SweepSpec{};
  if (args.has("protocols")) spec.protocols = exp::split_list(args.get("protocols"));
  if (args.has("n")) spec.ns = exp::parse_axis_u32(args.get("n"));
  if (args.has("k")) spec.ks = exp::parse_axis_u32(args.get("k"));
  if (args.has("channels")) spec.channels = exp::parse_axis_u32(args.get("channels"));
  if (args.has("pattern")) {
    spec.patterns.clear();
    for (const auto& label : exp::split_list(args.get("pattern"))) {
      spec.patterns.push_back(exp::parse_pattern(label));
    }
  }
  if (args.has("engine")) spec.sim.engine = exp::parse_engine(args.get("engine"));
  if (args.has("arrival")) spec.arrivals = exp::parse_arrival_axis(args.get("arrival"));
  if (args.has("noise") || args.has("jam") || args.has("faults")) {
    // Impairment axis: each flag carries a comma list of clause values; the
    // axis is their cross product with the clauses of one combination joined
    // by '+' ("none" in a list keeps the clause absent, so mixed lists build
    // L-shaped grids: clean + each ladder alone).
    const auto clause_values = [&args](const char* key, const char* prefix) {
      std::vector<std::string> out;
      if (!args.has(key)) return out = {""}, out;
      for (const auto& item : exp::split_list(args.get(key))) {
        out.push_back(item == "none" ? "" : prefix + item);
      }
      if (out.empty()) throw std::invalid_argument("--" + std::string(key) + " is empty");
      return out;
    };
    const auto noises = clause_values("noise", "noise:");
    const auto jams = clause_values("jam", "jam:");
    const auto faults = clause_values("faults", "");
    spec.impairments.clear();
    for (const auto& nz : noises) {
      for (const auto& jm : jams) {
        for (const auto& fl : faults) {
          std::string text;
          for (const std::string* clause : {&nz, &jm, &fl}) {
            if (clause->empty()) continue;
            if (!text.empty()) text += '+';
            text += *clause;
          }
          spec.impairments.push_back(text.empty() ? "none" : text);
        }
      }
    }
  }
  if (args.has("horizon")) {
    const std::int64_t horizon = args.get_int("horizon", 2048);
    if (horizon < 1) throw std::invalid_argument("--horizon must be >= 1");
    spec.horizon = horizon;
  }
  if (args.has("trials")) {
    spec.trials = static_cast<std::uint64_t>(bounded_flag(args, "trials", 64, 1, 1'000'000'000));
  }
  if (args.has("seed")) spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.has("s")) {
    spec.s = bounded_flag(args, "s", 0, 0, std::numeric_limits<std::int64_t>::max());
  }
  if (args.has("max-slots")) spec.sim.max_slots = args.get_int("max-slots", 0);

  exp::SweepOptions options;
  options.out_dir = args.get("out", "sweep_out");
  options.resume = args.get_flag("resume");
  options.ci_resamples =
      static_cast<std::uint64_t>(bounded_flag(args, "ci-resamples", 2000, 0, 1'000'000));
  options.max_cells =
      static_cast<std::uint64_t>(bounded_flag(args, "max-cells", 0, 0, 1'000'000'000));
  options.progress = !args.get_flag("quiet");
  if (args.has("progress")) {
    // --progress=N: heartbeat (completed/total, cells/sec, ETA) every N
    // cells; bare --progress means every cell.
    options.heartbeat_cells =
        static_cast<std::uint64_t>(bounded_flag(args, "progress", 1, 1, 1'000'000'000));
  }
  options.lease_cells =
      static_cast<std::uint64_t>(bounded_flag(args, "lease-cells", 8, 1, 1'000'000'000));
  options.lease_ttl_ms =
      static_cast<std::uint64_t>(bounded_flag(args, "lease-ttl", 10000, 1, 86'400'000));
  options.metrics_path = metrics_flag(args);
  if (args.has("trace")) {
    options.trace_path = args.get("trace");
    if (options.trace_path.empty()) {
      throw std::invalid_argument("sweep --trace needs a file path (there is no timeline print)");
    }
  }
  const std::int64_t workers = bounded_flag(args, "workers", 0, 0, 1024);
  if (args.has("worker-id")) {
    if (workers > 0) {
      throw std::invalid_argument(
          "--workers forks a local fleet, --worker-id joins an externally launched one — "
          "pick one");
    }
    options.worker_id =
        static_cast<std::int32_t>(bounded_flag(args, "worker-id", 0, 0, 1'000'000));
  }
  const std::int64_t threads = threads_flag(args);
  const bool per_trial_csv = args.has("per-trial-csv");
  if (workers > 0 && per_trial_csv) {
    throw std::invalid_argument("--per-trial-csv cannot serialize rows across worker processes");
  }
  args.reject_unread();  // every flag is read: nothing has run or been written yet

  if (!options.trace_path.empty()) {
    obs::set_trace_enabled(true);
    obs::trace_set_process(0, "sweep");
  }
  // The registry also powers the --progress heartbeat extra (lease
  // steals); enable it here — before the fleet forks, so worker processes
  // inherit the flag.
  if (args.has("progress")) obs::set_enabled(true);

  // Fleet mode forks before this process owns any threads (fork carries
  // only the calling thread), so it must run before --threads builds a
  // pool and before any sink opens.
  if (workers > 0) {
    const auto worker_threads = static_cast<std::size_t>(threads < 0 ? 0 : threads);
    const exp::SweepOutcome outcome = exp::run_sweep_fleet(
        spec, options, static_cast<std::uint32_t>(workers), worker_threads);
    std::cout << "workers: " << workers << "\ncells: " << outcome.cells_total << " total, "
              << outcome.cells_resumed << " merged, " << outcome.cells_remaining
              << " remaining\n";
    if (!outcome.completed) {
      std::cout << "sweep interrupted by --max-cells; re-run with --resume to finish\n";
      return 1;
    }
    std::cout << "report: " << outcome.csv_path << "  " << outcome.json_path << "\n";
    if (!options.metrics_path.empty()) std::cout << "[metrics] " << options.metrics_path << "\n";
    if (!options.trace_path.empty()) std::cout << "[trace] " << options.trace_path << "\n";
    return 0;
  }

  std::unique_ptr<sim::TrialCsvSink> csv;
  if (per_trial_csv) {
    // The sink may target the (not yet created) output directory.
    if (!util::ensure_directory(options.out_dir)) {
      throw std::runtime_error("cannot create output directory " + options.out_dir);
    }
    csv = std::make_unique<sim::TrialCsvSink>(args.get("per-trial-csv"));
    options.trial_csv = csv.get();
  }
  const std::unique_ptr<util::ThreadPool> own_pool = make_own_pool(threads);
  if (own_pool) options.pool = own_pool.get();

  const exp::SweepOutcome outcome = exp::run_sweep(spec, options);
  std::cout << "cells: " << outcome.cells_total << " total, " << outcome.cells_run << " run, "
            << outcome.cells_resumed << " resumed, " << outcome.cells_remaining
            << " remaining\n"
            << "manifest: " << outcome.manifest_path << "\n";
  if (csv) std::cout << "[per-trial csv] " << csv->path() << " (" << csv->rows() << " rows)\n";
  if (options.worker_id >= 0) {
    // One worker of an externally launched fleet: no report here — the
    // launcher merges once the grid is drained.
    if (!outcome.drained) {
      std::cout << "worker " << options.worker_id
                << " exited with cells outstanding; run more workers (or re-run) to drain\n";
      return 1;
    }
    std::cout << "grid drained; emit the report with `wakeup_cli sweep merge --out="
              << options.out_dir << "`\n";
    return 0;
  }
  if (!outcome.completed) {
    std::cout << "sweep interrupted by --max-cells; re-run with --resume to finish\n";
    return 1;
  }
  std::cout << "report: " << outcome.csv_path << "  " << outcome.json_path << "\n";
  if (!options.metrics_path.empty()) std::cout << "[metrics] " << options.metrics_path << "\n";
  if (!options.trace_path.empty()) std::cout << "[trace] " << options.trace_path << "\n";
  std::uint64_t failures = 0;
  for (const auto& record : outcome.records) failures += record.stats.failures;
  std::cout << "trials with budget exhaustion across the grid: " << failures << "\n";
  return 0;
}

/// The protocol flags (--protocol, --n, --k, --s) as a registry spec; each
/// build fills in its own seed.  Read once on the main thread: trial
/// builders run on pool workers, so they capture the spec, not the flags.
proto::ProtocolSpec protocol_flags(const util::Args& args) {
  proto::ProtocolSpec spec;
  spec.name = args.get("protocol", "wakeup_matrix");
  spec.n = count_flag(args, "n", 1024);
  spec.k = count_flag(args, "k", 8);
  spec.s = start_flag(args);
  return spec;
}

proto::ProtocolPtr build_protocol(proto::ProtocolSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  return proto::make_protocol_by_name(spec);
}

/// The --mc strategy over `channels` lanes; `inner` is the protocol the
/// adapter embeds on channel 0 (and the n/k of the native strategies).
proto::McProtocolPtr build_mc_protocol(const proto::ProtocolSpec& inner,
                                       const std::string& strategy, std::uint32_t channels,
                                       std::uint64_t seed) {
  if (strategy == "adapter") {
    return proto::make_single_channel_adapter(build_protocol(inner, seed), channels);
  }
  if (strategy == "striped_rr") return proto::make_striped_round_robin(inner.n, channels);
  if (strategy == "group_wag") {
    return proto::make_group_wait_and_go(inner.n, inner.k, channels,
                                         comb::FamilyKind::kRandomized, seed);
  }
  if (strategy == "random_rpd") return proto::make_random_channel_rpd(inner.n, channels, seed);
  throw std::invalid_argument("unknown mc strategy: " + strategy);
}

/// `run --arrival=...` / `run --arrival-file=...`: sustained-load traffic on
/// per-station packet queues instead of a one-shot wake pattern.
int cmd_run_traffic(const util::Args& args) {
  const proto::ProtocolSpec pspec = protocol_flags(args);
  const std::uint32_t n = pspec.n;
  const std::uint32_t k = pspec.k;
  const std::uint64_t trials = trials_flag(args);
  const auto base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (channels_flag(args) != 1 || args.has("mc")) {
    throw std::invalid_argument("dynamic traffic is single-channel — drop --channels/--mc");
  }
  if (args.has("trace") || args.get_flag("cd")) {
    throw std::invalid_argument("--trace and --cd are one-shot features; drop --arrival");
  }
  if (args.has("pattern") || args.has("pattern-file") || args.has("save-pattern")) {
    throw std::invalid_argument(
        "--arrival replaces the wake pattern — drop --pattern/--pattern-file/--save-pattern");
  }
  if (args.has("per-trial-csv")) {
    throw std::invalid_argument("--per-trial-csv has no row schema for dynamic trials yet");
  }

  const std::int64_t threads = threads_flag(args);
  const std::string metrics_path = metrics_flag(args);

  sim::RunSpec spec;
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.sim.engine = exp::parse_engine(args.get("engine", "auto"));
  spec.sim.energy = parse_energy_flag(args);
  spec.impairment = parse_impairment_flags(args);
  spec.make_protocol = [pspec](std::uint64_t seed) { return build_protocol(pspec, seed); };

  const std::int64_t horizon_flag = args.get_int("horizon", 0);
  if (horizon_flag < 0) throw std::invalid_argument("--horizon must be >= 1");
  mac::DynamicScenario replay;
  mac::ArrivalSpec arrival;
  if (args.has("arrival-file")) {
    replay = mac::load_arrivals_csv(args.get("arrival-file"), n, horizon_flag);
    arrival.kind = mac::ArrivalKind::kReplay;
    spec.scenario = &replay;
    spec.horizon = replay.horizon();
  } else {
    arrival = mac::ArrivalSpec::parse(args.get("arrival"));
    spec.horizon = horizon_flag > 0 ? horizon_flag : 2048;
    spec.dynamic_n = n;
    spec.dynamic_k = k;
  }
  args.reject_unread();

  const std::unique_ptr<util::ThreadPool> own_pool = make_own_pool(threads);
  const auto out = sim::Run(spec, own_pool.get());
  const sim::CellStats cell = out.cell();

  std::cout << "protocol: " << build_protocol(pspec, base_seed)->name() << "\n"
            << "n=" << n << " k=" << k << " arrival=" << arrival.name()
            << " horizon=" << spec.horizon << " trials=" << trials << "\n";
  if (!spec.impairment.clean()) {
    std::cout << "impairment: " << spec.impairment.name() << "\n";
  }
  std::cout
            << "packets: " << cell.packet_arrivals << " arrived, " << cell.delivered
            << " delivered, " << cell.backlog << " backlogged at the horizon\n"
            << "throughput mean=" << cell.throughput.mean << " packets/slot"
            << "  jain=" << cell.jain.mean << "\n"
            << "latency p50=" << cell.latency.median << " p95=" << cell.latency.p95
            << " p99=" << cell.latency.p99 << " max=" << cell.latency.max << "\n"
            << "collisions mean=" << cell.collisions.mean
            << " silences mean=" << cell.silences.mean << "\n";
  if (spec.sim.energy != sim::EnergyModel::kOff) {
    std::cout << "energy (" << sim::energy_model_name(spec.sim.energy)
              << "): station mean=" << cell.energy_mean.mean
              << " max=" << cell.energy_max.mean << " slots\n";
  }
  if (!metrics_path.empty()) {
    obs::write_metrics_json(metrics_path);
    std::cout << "[metrics] " << metrics_path << "\n";
  }
  if (trials == 1) {
    // Per-station delivery spread of the single trial (truncated).
    const auto& d = out.dynamic;
    std::cout << "per-station delivered:";
    const std::size_t shown = std::min<std::size_t>(d.stations.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
      std::cout << ' ' << d.stations[i] << ':' << d.delivered_per_station[i];
    }
    if (shown < d.stations.size()) std::cout << " ... (" << d.stations.size() << " stations)";
    std::cout << "\n";
  }
  return 0;
}

int cmd_run(const util::Args& args) {
  if (args.has("arrival") || args.has("arrival-file")) return cmd_run_traffic(args);
  const proto::ProtocolSpec pspec = protocol_flags(args);
  const std::uint32_t n = pspec.n;
  const std::uint32_t k = pspec.k;
  const mac::Slot s = pspec.s;
  const std::uint64_t trials = trials_flag(args);
  const auto base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::uint32_t channels = channels_flag(args);
  const bool multichannel = channels > 1 || args.has("mc");
  const std::string strategy = args.get("mc", "adapter");
  if (multichannel && (args.has("trace") || args.get_flag("cd"))) {
    throw std::invalid_argument(
        "--trace and --cd are single-channel features; drop --channels/--mc to use them");
  }
  const std::string metrics_path = metrics_flag(args);
  const std::string trace_path = trace_path_flag(args);
  const bool trace_print = args.get_flag("trace");
  const std::string csv_path = args.get("per-trial-csv");
  const bool per_trial_csv = args.has("per-trial-csv");
  // --threads=N builds a dedicated pool (0 = inline); otherwise sim::Run
  // parallelizes multi-trial sweeps on the process-wide shared pool.
  const std::int64_t threads = threads_flag(args);

  // One sim::Run call covers the whole sweep: pattern per trial from the
  // facade's seed contract, protocol hoisted per cell (randomized
  // protocols rebuilt per trial), trials fanned out over the pool.
  sim::RunSpec spec;
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.impairment = parse_impairment_flags(args);
  spec.sim.max_slots = args.get_int("max-slots", 0);
  spec.sim.engine = exp::parse_engine(args.get("engine", "auto"));
  spec.sim.energy = parse_energy_flag(args);
  spec.sim.record_trace = trace_print || !trace_path.empty();
  spec.sim.record_transmitters = spec.sim.record_trace;
  spec.sim.feedback = args.get_flag("cd") ? mac::FeedbackModel::kCollisionDetection
                                          : mac::FeedbackModel::kNone;

  mac::WakePattern fixed;
  std::string save_path;
  if (args.has("pattern-file")) {
    fixed = mac::load_pattern_csv(args.get("pattern-file"), n);
    spec.pattern = &fixed;
  } else {
    const auto kind = parse_kind(args.get("pattern", "staggered"));
    if (args.has("save-pattern")) {
      // Reproducibility beats per-trial variety here: generate one
      // pattern, save it, replay it for every trial.
      util::Rng rng(util::hash_words({base_seed, 0x434c49ULL /* "CLI" */}));
      fixed = mac::patterns::generate(kind, n, k, s, rng);
      save_path = args.get("save-pattern");
      spec.pattern = &fixed;
    } else {
      spec.make_pattern = [kind, n, k, s](util::Rng& rng) {
        return mac::patterns::generate(kind, n, k, s, rng);
      };
    }
  }

  std::string name;
  if (multichannel) {
    spec.make_mc_protocol = [pspec, strategy, channels](std::uint64_t seed) {
      return build_mc_protocol(pspec, strategy, channels, seed);
    };
    name = build_mc_protocol(pspec, strategy, channels, base_seed)->name();
  } else {
    spec.make_protocol = [pspec](std::uint64_t seed) { return build_protocol(pspec, seed); };
    name = build_protocol(pspec, base_seed)->name();
  }
  args.reject_unread();  // every flag is read: nothing has run or been written yet

  if (!trace_path.empty()) {
    obs::set_trace_enabled(true);
    obs::trace_set_process(0, "wakeup_cli run");
  }
  if (!save_path.empty()) mac::save_pattern_csv(save_path, fixed);
  std::unique_ptr<sim::TrialCsvSink> csv;
  if (per_trial_csv) csv = std::make_unique<sim::TrialCsvSink>(csv_path);
  spec.trial_csv = csv.get();
  const std::unique_ptr<util::ThreadPool> own_pool = make_own_pool(threads);

  const auto out = sim::Run(spec, own_pool.get());
  // The bootstrap CI resamples trials in trial order, so it is the same
  // for every thread count and completion order.
  const sim::CellStats cell = out.cell(trials > 1 ? 2000 : 0);

  if (trials == 1) {
    const sim::SimResult& result = out.sim;
    if (multichannel && result.success) {
      std::cout << "winning channel: " << result.success_channel << " of " << channels << "\n";
    }
    // Report the simulated pattern's k, which --pattern-file may decouple
    // from the --k flag.
    const std::size_t pattern_k = spec.pattern != nullptr ? fixed.k() : k;
    std::cout << "protocol: " << name << "\nn=" << n << " k=" << pattern_k
              << " s=" << result.s << "\n";
    if (!spec.impairment.clean()) {
      std::cout << "impairment: " << spec.impairment.name() << "\n";
    }
    if (result.success) {
      std::cout << "wake-up at slot " << result.success_slot << " (rounds " << result.rounds
                << ") by station " << result.winner << "\n"
                << "collisions=" << result.collisions << " silences=" << result.silences
                << "\n";
    } else {
      std::cout << "FAILED: no wake-up within the slot budget\n";
    }
    if (trace_print && result.trace) result.trace->print(std::cout, 48);
  }
  if (csv) std::cout << "[per-trial csv] " << csv->path() << " (" << csv->rows() << " rows)\n";
  if (spec.sim.energy != sim::EnergyModel::kOff) {
    std::cout << "energy (" << sim::energy_model_name(spec.sim.energy)
              << "): station mean=" << cell.energy_mean.mean
              << " max=" << cell.energy_max.mean << " slots\n";
  }
  if (!trace_path.empty()) {
    // Single-trial runs carry the slot-by-slot ExecutionTrace; render it as
    // instant events.  Multi-trial runs still get the (empty) valid file.
    if (out.sim.trace) obs::trace_execution(*out.sim.trace, obs::trace_now_us());
    obs::write_trace_json(trace_path);
    std::cout << "[trace] " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    obs::write_metrics_json(metrics_path);
    std::cout << "[metrics] " << metrics_path << "\n";
  }

  if (trials > 1) {
    std::cout << "trials=" << trials << " success=" << cell.rounds.count << "\n"
              << "rounds mean=" << cell.rounds.mean << " [" << cell.mean_ci.lo << ", "
              << cell.mean_ci.hi << "]95%  median=" << cell.rounds.median
              << " p95=" << cell.rounds.p95 << " max=" << cell.rounds.max << "\n";
  }
  return cell.failures == 0 ? 0 : 1;
}

int cmd_adversary(const util::Args& args) {
  const std::uint32_t n = count_flag(args, "n", 128);
  const std::uint32_t k = count_flag(args, "k", 16);
  const proto::ProtocolSpec pspec = protocol_flags(args);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unread();
  const auto protocol = build_protocol(pspec, seed);
  const auto result = sim::run_swap_adversary(*protocol, n, k);
  std::cout << "protocol: " << protocol->name() << "  n=" << n << " k=" << k << "\n"
            << "Theorem 2.1 bound min{k, n-k+1} = " << result.bound << "\n"
            << "rounds forced = " << result.rounds_forced << "  swaps = " << result.swaps
            << (result.protocol_stalled ? "  (protocol stalled at horizon)" : "") << "\n";
  return 0;
}

int cmd_certify(const util::Args& args) {
  comb::WakingSearchConfig config;
  config.n = count_flag(args, "n", 16);
  config.c = static_cast<unsigned>(bounded_flag(args, "c", 2, 1, 1024));
  // 0 switches a battery off.
  constexpr std::int64_t kMaxK = std::numeric_limits<std::uint32_t>::max();
  config.k_exhaustive =
      static_cast<std::uint32_t>(bounded_flag(args, "k-exhaustive", 2, 0, kMaxK));
  config.k_random = static_cast<std::uint32_t>(bounded_flag(args, "k-random", 8, 0, kMaxK));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unread();
  const auto result = comb::find_certified_seed(config, seed);
  if (!result.found) {
    std::cout << "no certified seed in " << result.attempts << " attempts\n";
    return 1;
  }
  std::cout << "certified waking-matrix seed for n=" << config.n << " c=" << config.c << ": "
            << result.seed << "\n"
            << "attempts=" << result.attempts << " patterns_checked=" << result.patterns_checked
            << " worst_rounds=" << result.worst_rounds << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const std::string command = args.positional().empty() ? "" : args.positional().front();
    if (args.has("help")) {  // before dispatch: --help runs nothing
      print_usage(command);
      return 0;
    }
    if (command.empty()) {
      print_usage();
      return 2;
    }
    if (command == "list") return cmd_list(args);
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "adversary") return cmd_adversary(args);
    if (command == "certify") return cmd_certify(args);
    std::cerr << "unknown command: " << command << "\n";
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
