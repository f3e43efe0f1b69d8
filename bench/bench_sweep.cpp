/// S1 — sweep orchestration: runner overhead, pool sizes, worker scaling.
///
/// The subsystem claim: `exp::run_sweep` adds negligible cost over a
/// hand-rolled loop of `sim::Run` cells, while giving grids declarative
/// specs, a resumable manifest, CIs, and cells that share one nested pool
/// with their trials.  Measured here:
///   * 1/2/4-process worker fleets vs a single-process run on the 96-cell
///     scenario-b acceptance grid — the multi-process scale-out path, each
///     fleet leg timed against the single-process leg as interleaved
///     min-of-reps (`bench::measure`).
///     Gates: claim-ledger + merge overhead (1 worker vs classic) <= 5%,
///     and >= 1.6x at 2 workers when the host has >= 2 cores (reported
///     otherwise: single-core CI runs this too).  Fleet reports must be
///     byte-identical to the single-process run.
///   * hand-rolled loop vs run_sweep, both on the shared pool, on the same
///     grid — the orchestration overhead, acceptance <= 15%, timed as
///     interleaved min-of-reps (`bench::measure`) at both sizes;
///   * run_sweep on the shared pool vs on a 0-worker pool — the speedup of
///     cells and trials nested on one pool (reported, not gated).
/// The run_sweep reports on 0-, 1- and 4-worker pools and every fleet
/// report must be byte-identical; both are asserted in-run.  The fleet
/// legs run FIRST: `run_sweep_fleet` forks, and the process must not have
/// spawned pool threads yet.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_common.hpp"
#include "exp/presets.hpp"

using namespace wakeup;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

exp::SweepSpec bench_spec(bool quick) {
  exp::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k", "wait_and_go"};
  spec.ns = quick ? std::vector<std::uint32_t>{1u << 10}
                  : std::vector<std::uint32_t>{1u << 10, 1u << 12};
  spec.ks = {8, 32};
  spec.patterns = {exp::PatternKind::kStaggered};
  spec.trials = quick ? 32 : 96;
  spec.base_seed = 20130522;
  return spec;
}

std::string out_dir(const std::string& leg) {
  const auto dir = std::filesystem::temp_directory_path() / ("bench_sweep_" + leg);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  // ---- worker scaling: 1/2/4-process fleets on the scenario-b grid ------
  // This block runs before anything touches bench::pool(): run_sweep_fleet
  // forks its workers, and fork() carries only the calling thread.
  // The acceptance cells are microseconds each on the lazy-word engine, so
  // raise the trial count until per-cell work dominates the fork + ledger +
  // merge fixed costs; otherwise the percentage gates measure noise.
  exp::SweepSpec fleet_spec = exp::make_preset("figure-scenario-b");
  fleet_spec.trials = quick ? 96 : 4096;
  const auto fleet_cells = exp::expand(fleet_spec);

  // Each fleet leg is timed against the single-process leg as interleaved
  // min-of-reps (`bench::measure`), every rep into a fresh out_dir, so the
  // ratios compare runs under the same machine noise.
  util::ThreadPool inline_pool(0);  // threadless: keeps the baseline fork-safe
  std::string single_csv;
  std::string single_json;
  const auto single_leg = [&] {
    exp::SweepOptions options;
    options.out_dir = out_dir("single");
    options.ci_resamples = 0;
    options.pool = &inline_pool;
    const auto t = std::chrono::steady_clock::now();
    const auto outcome = exp::run_sweep(fleet_spec, options);
    const double seconds = seconds_since(t);
    single_csv = slurp(outcome.csv_path);
    single_json = slurp(outcome.json_path);
    return seconds;
  };

  struct FleetLeg {
    std::uint32_t workers;
    double seconds = 0.0;
    double single_seconds = 0.0;  ///< the single-process leg it was paired with
    int reps = 0;
    bool identical = true;
  };
  std::vector<FleetLeg> fleet = {{1}, {2}, {4}};
  for (FleetLeg& leg : fleet) {
    const bench::Measured m = bench::measure(single_leg, [&] {
      exp::SweepOptions options;
      options.out_dir = out_dir("fleet" + std::to_string(leg.workers));
      options.ci_resamples = 0;
      const auto t = std::chrono::steady_clock::now();
      const auto outcome = exp::run_sweep_fleet(fleet_spec, options, leg.workers, 0);
      const double seconds = seconds_since(t);
      leg.identical = leg.identical && outcome.completed &&
                      slurp(outcome.csv_path) == single_csv &&
                      slurp(outcome.json_path) == single_json;
      return seconds;
    });
    leg.single_seconds = m.a_secs;
    leg.seconds = m.b_secs;
    leg.reps = m.reps;
  }
  const auto speedup = [](const FleetLeg& leg) {
    return leg.seconds > 0 ? leg.single_seconds / leg.seconds : 0.0;
  };
  const double single_s = std::min({fleet[0].single_seconds, fleet[1].single_seconds,
                                    fleet[2].single_seconds});
  const double fleet_overhead =
      fleet[0].single_seconds > 0 ? fleet[0].seconds / fleet[0].single_seconds - 1.0 : 0.0;
  const double speedup2 = speedup(fleet[1]);
  const double speedup4 = speedup(fleet[2]);
  const unsigned cores = std::thread::hardware_concurrency();

  const exp::SweepSpec spec = bench_spec(quick);
  const auto cells = exp::expand(spec);

  // Baseline: the hand-rolled loop every multi-cell experiment used before
  // this subsystem — one sim::Run per cell, aggregate discarded.
  const auto hand_rolled = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& cell : cells) {
      auto run = bench::cell_for(cell.protocol, cell.n, cell.k, cell.s,
                                 [&cell](util::Rng& rng) {
                                   return mac::patterns::generate(
                                       exp::generator_kind(cell.pattern), cell.n, cell.k,
                                       cell.s, rng);
                                 },
                                 cell.trials, spec.base_seed);
      run.cell_tag = cell.tag_hash;
      (void)sim::Run(run, &bench::pool());
    }
    return seconds_since(t0);
  };

  const auto sweep_on = [&](util::ThreadPool& pool, const std::string& leg) {
    exp::SweepOptions options;
    options.out_dir = out_dir(leg);
    options.pool = &pool;
    options.ci_resamples = 0;  // measure orchestration, not bootstrap math
    const auto t = std::chrono::steady_clock::now();
    const auto outcome = exp::run_sweep(spec, options);
    const double seconds = seconds_since(t);
    return std::make_pair(seconds, slurp(outcome.csv_path) + slurp(outcome.json_path));
  };
  // Each leg takes a few milliseconds, so both are timed as interleaved
  // reps (min of each) until each has >= 100 ms: one shot of each would
  // gate on timer noise.
  std::string sweep_report;
  const bench::Measured orchestration = bench::measure(hand_rolled, [&] {
    auto [seconds, report] = sweep_on(bench::pool(), "pooled");
    sweep_report = std::move(report);
    return seconds;
  });
  const double hand_s = orchestration.a_secs;
  const double sweep_s = orchestration.b_secs;
  util::ThreadPool pool0(0);
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  const auto [inline_s, inline_report] = sweep_on(pool0, "inline");
  const bool identical = sweep_report == inline_report &&
                         sweep_on(pool1, "one_worker").second == inline_report &&
                         sweep_on(pool4, "four_workers").second == inline_report;
  const double overhead = hand_s > 0 ? sweep_s / hand_s - 1.0 : 0.0;
  const double pool_speedup = sweep_s > 0 ? inline_s / sweep_s : 0.0;

  sim::ResultsSink sink("s1_sweep_orchestration",
                        {"leg", "cells", "trials/cell", "seconds", "cells/s"});
  const auto row = [&](const char* leg, double seconds) {
    sink.cell(leg)
        .cell(std::uint64_t{cells.size()})
        .cell(spec.trials)
        .cell(seconds, 3)
        .cell(seconds > 0 ? static_cast<double>(cells.size()) / seconds : 0.0, 1);
    sink.end_row();
  };
  row("hand-rolled loop", hand_s);
  row("run_sweep", sweep_s);
  row("run_sweep, 0-worker pool", inline_s);
  sink.flush("S1: sweep orchestration overhead + nested pool");

  sim::ResultsSink fleet_sink("s1_sweep_worker_scaling",
                              {"leg", "workers", "seconds", "speedup", "cells/s"});
  const auto fleet_row = [&](const char* leg, std::uint64_t workers, double seconds,
                             double speedup_vs_single) {
    fleet_sink.cell(leg)
        .cell(workers)
        .cell(seconds, 3)
        .cell(speedup_vs_single, 2)
        .cell(seconds > 0 ? static_cast<double>(fleet_cells.size()) / seconds : 0.0, 1);
    fleet_sink.end_row();
  };
  fleet_row("single process", 1, single_s, 1.0);
  for (const FleetLeg& leg : fleet) {
    fleet_row("worker fleet", leg.workers, leg.seconds, speedup(leg));
  }
  fleet_sink.flush("S1: multi-process worker scaling (scenario-b, " +
                   std::to_string(fleet_cells.size()) + " cells)");

  bench::JsonReport report("sweep");
  report.config("quick", quick);
  report.config("cells", std::uint64_t{cells.size()});
  report.config("trials_per_cell", spec.trials);
  report.config("workers", std::uint64_t{bench::pool().worker_count()});
  report.config("hardware_cores", std::uint64_t{cores});
  report.config("fleet_cells", std::uint64_t{fleet_cells.size()});
  report.config("fleet_trials_per_cell", fleet_spec.trials);
  report.config("orchestration_reps", orchestration.reps);
  report.row({{"leg", "hand_rolled"}, {"seconds", hand_s}});
  report.row({{"leg", "run_sweep"}, {"seconds", sweep_s}, {"overhead_vs_hand", overhead}});
  report.row({{"leg", "run_sweep_inline"},
              {"seconds", inline_s},
              {"pool_speedup", pool_speedup},
              {"reports_identical", identical}});
  report.row({{"leg", "single_process"}, {"seconds", single_s}});
  for (const FleetLeg& leg : fleet) {
    report.row({{"leg", "fleet_" + std::to_string(leg.workers)},
                {"seconds", leg.seconds},
                {"single_seconds", leg.single_seconds},
                {"speedup_vs_single", speedup(leg)},
                {"reps", leg.reps},
                {"reports_identical", leg.identical}});
  }
  report.write();

  std::cout << "orchestration overhead vs hand-rolled loop: " << overhead * 100.0 << "% (min of "
            << orchestration.reps << " interleaved reps each)\n"
            << "run_sweep pooled vs 0-worker pool: " << pool_speedup
            << "x (workers=" << bench::pool().worker_count() << ")\n"
            << "reports on 0/1/4-worker pools byte-identical: " << (identical ? "yes" : "NO")
            << "\n"
            << "ledger+merge overhead (1 worker vs classic): " << fleet_overhead * 100.0
            << "% (each fleet leg min of " << fleet[0].reps << "/" << fleet[1].reps << "/"
            << fleet[2].reps << " interleaved reps against the single process)\n"
            << "fleet speedup: " << speedup2 << "x @ 2 workers, " << speedup4
            << "x @ 4 workers (cores=" << cores << ")\n";
  bool ok = true;
  if (!identical) {
    std::cout << "FAIL: reports differ across pool sizes\n";
    ok = false;
  }
  if (overhead > 0.15) {
    std::cout << "FAIL: orchestration overhead above 15%\n";
    ok = false;
  }
  for (const FleetLeg& leg : fleet) {
    if (!leg.identical) {
      std::cout << "FAIL: " << leg.workers << "-worker fleet report differs from the "
                << "single-process run\n";
      ok = false;
    }
  }
  // Noise guard: gate the 5% overhead bound only when the grid runs long
  // enough for 5% to be signal rather than scheduler jitter.
  if (single_s >= 0.25 && fleet_overhead > 0.05) {
    std::cout << "FAIL: claim-ledger + merge overhead above 5%\n";
    ok = false;
  }
  if (cores >= 2 && speedup2 < 1.6) {
    std::cout << "FAIL: 2-worker speedup below 1.6x on a multi-core host\n";
    ok = false;
  }
  if (!ok) return 1;
  std::cout << "PASS\n";
  return 0;
}
