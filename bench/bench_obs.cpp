/// OBS — observability overhead gate: the same gated sweep cells timed
/// with the metrics registry runtime-disabled and runtime-enabled, in one
/// process (WAKEUP_OBS compiled in; an OFF build trivially measures two
/// identical stub paths).
///
/// Two claims are gated, matching the obs design contract:
///   1. Results are bit-identical with obs on and off — the registry is
///      side-state only, nothing in the simulation reads it.  Every
///      per-trial SimResult field (station energy included) is compared.
///   2. Enabled overhead on a gated cell is <= 5%: min-of-reps of both
///      flavors from bench::measure (interleaved reps until each flavor has
///      at least 100 ms measured), so machine noise hits both equally.
///
/// Each JSON row carries the enabled run's registry snapshot as a nested
/// `metrics` object (batch tiles, fetched words, ...), so the perf
/// trajectory records what the instrumentation actually saw.
///
/// Usage: bench_obs [--quick]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wakeup;

namespace {

struct ObsCell {
  std::string protocol;
  std::uint32_t n;
  std::uint32_t k;
  std::uint64_t trials;
  sim::Engine engine;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

sim::RunSpec spec_for(const ObsCell& cell) {
  const std::uint32_t n = cell.n;
  const std::uint32_t k = cell.k;
  sim::RunSpec spec = bench::cell_for(
      cell.protocol, n, k, /*s=*/0,
      [n, k](util::Rng& rng) {
        return mac::patterns::uniform_window(n, k, 0, static_cast<mac::Slot>(4) * k, rng);
      },
      cell.trials);
  spec.sim.engine = cell.engine;
  // Energy accounting on, as in sweep cells: the hot-loop popcounts it adds
  // are part of the gated path, and its numbers must not depend on obs.
  spec.sim.energy = sim::EnergyModel::kListenAll;
  return spec;
}

struct RunOut {
  double secs = 0;
  std::vector<sim::SimResult> results;
};

RunOut run_once(sim::RunSpec spec) {
  RunOut out;
  out.results.resize(spec.trials);
  spec.per_trial = [&out](std::uint64_t i, const sim::SimResult& r) { out.results[i] = r; };
  const auto start = std::chrono::steady_clock::now();
  (void)sim::Run(spec, &bench::pool());
  out.secs = seconds_since(start);
  return out;
}

bool identical(const std::vector<sim::SimResult>& a, const std::vector<sim::SimResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.success != y.success || x.s != y.s || x.success_slot != y.success_slot ||
        x.rounds != y.rounds || x.winner != y.winner || x.silences != y.silences ||
        x.collisions != y.collisions || x.successes != y.successes ||
        x.station_energy != y.station_energy) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t trials = quick ? 64 : 256;

  const std::vector<ObsCell> cells = {
      {"wakeup_with_k", 1 << 14, 64, trials, sim::Engine::kBatch},
      {"wait_and_go", 1 << 13, 64, trials, sim::Engine::kBatch},
      {"wakeup_with_k", 1 << 11, 32, trials, sim::Engine::kInterpreter},
  };

  bench::JsonReport json("obs");
  json.config("quick", quick);
  json.config("obs_compiled", obs::kCompiled);

  std::printf("%-16s %8s %5s %9s | %12s %12s %5s | %9s %9s\n", "protocol", "n", "k", "engine",
              "off ms/run", "on ms/run", "reps", "overhead", "identical");

  bool pass = true;
  for (const auto& cell : cells) {
    const sim::RunSpec spec = spec_for(cell);
    std::vector<sim::SimResult> results_off;
    std::vector<sim::SimResult> results_on;
    const bench::Measured m = bench::measure(
        [&] {
          obs::set_enabled(false);
          RunOut off = run_once(spec);
          results_off = std::move(off.results);
          return off.secs;
        },
        [&] {
          obs::set_enabled(true);
          obs::reset();  // the snapshot below sees the last run only
          RunOut on = run_once(spec);
          results_on = std::move(on.results);
          return on.secs;
        });
    obs::set_enabled(false);
    const double t_off = m.a_secs;
    const double t_on = m.b_secs;

    const bool same = identical(results_off, results_on);
    const double overhead = t_off > 0 ? (t_on - t_off) / t_off : 0;
    const bool cell_pass = same && overhead <= 0.05;
    pass = pass && cell_pass;

    std::printf("%-16s %8u %5u %9s | %12.2f %12.2f %5d | %8.1f%% %9s\n", cell.protocol.c_str(),
                cell.n, cell.k, cell.engine == sim::Engine::kBatch ? "batch" : "interpret",
                t_off * 1e3, t_on * 1e3, m.reps, overhead * 100, same ? "ok" : "MISMATCH");
    json.row({{"protocol", cell.protocol},
              {"n", cell.n},
              {"k", cell.k},
              {"engine", cell.engine == sim::Engine::kBatch ? "batch" : "interpret"},
              {"trials", cell.trials},
              {"off_ms", t_off * 1e3},
              {"on_ms", t_on * 1e3},
              {"reps", m.reps},
              {"overhead", overhead},
              {"identical", same},
              {"metrics", bench::raw_json(obs::metrics_object_text(obs::snapshot()))}});
  }

  std::printf("\nobs overhead <= 5%% and on/off bit-identity: %s\n", pass ? "PASS" : "FAIL");
  json.config("acceptance_pass", pass);
  json.write();
  return pass ? 0 : 1;
}
