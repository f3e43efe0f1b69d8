/// M — native multichannel batching: C-lane word-parallel cells vs the
/// slot-by-slot interpreter (the loop single-channel runs use, over C
/// lanes).  A faster slot loop lowers the ratio this bench gates on.
///
/// Sweeps C in {1, 4, 16, 64} for the three strategies that reach the
/// batch engine — striped round-robin and group wait_and_go natively, and
/// the channel-0 adapter baseline (whose kAuto path rides the
/// single-channel engine stack) — reporting interpreted vs batched cell
/// throughput (trials/s) and the C-fold TDM speedup in mean rounds.
/// Each (interpreted, kAuto) pair is timed with bench::measure:
/// interleaved reps, min of reps per leg.
///
/// Acceptance (ISSUE 3): batched striped round-robin at n = 2^14, C = 16
/// sustains >= 3x the interpreted cell throughput; per-trial results are
/// verified bit-identical in-run (and by tests/test_mc_engine_equivalence
/// across all strategies).
///
/// Usage: bench_multichannel [--quick]  (--quick shrinks trial counts)

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wakeup;

namespace {

sim::RunSpec cell_spec(const proto::McProtocol& protocol, std::uint32_t n, std::uint32_t k,
                       std::uint64_t trials, sim::Engine engine) {
  sim::RunSpec spec;
  spec.mc_protocol = &protocol;
  spec.make_pattern = [n, k](util::Rng& rng) {
    return mac::patterns::simultaneous(n, k, 0, rng);
  };
  spec.trials = trials;
  spec.base_seed = 20130522;
  // No channel term: cells across C share the same trial patterns, so the
  // tdm_vs_c1 column compares like with like.
  spec.cell_tag = util::hash_words({n, k});
  spec.sim.engine = engine;
  return spec;
}

/// Wall seconds of one run of `spec` (one bench::measure rep).
double time_run(const sim::RunSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  (void)sim::Run(spec, &bench::pool());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Runs `spec` once, keeping every trial's result for the bit-identity
/// check, and returns the cell's statistics.
sim::CellStats run_kept(sim::RunSpec spec, std::vector<sim::SimResult>& per_trial) {
  per_trial.assign(spec.trials, {});
  spec.per_trial = [&per_trial](std::uint64_t i, const sim::SimResult& r) { per_trial[i] = r; };
  return sim::Run(spec, &bench::pool()).cell();
}

bool identical(const std::vector<sim::SimResult>& a,
               const std::vector<sim::SimResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].success != b[i].success || a[i].success_slot != b[i].success_slot ||
        a[i].rounds != b[i].rounds || a[i].success_channel != b[i].success_channel ||
        a[i].winner != b[i].winner || a[i].silences != b[i].silences ||
        a[i].collisions != b[i].collisions || a[i].successes != b[i].successes) {
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
  const std::uint32_t n = 1 << 14;
  const std::uint32_t k = 8;       // sparse: long TDM runs, the batch regime
  const std::uint32_t k_wag = 64;  // contended: group wait_and_go's regime
  const std::uint64_t trials = quick ? 8 : 24;

  sim::ResultsSink sink("m_multichannel",
                        {"strategy", "channels", "interp_tr_s", "batch_tr_s", "speedup",
                         "mean_rounds", "tdm_vs_c1", "reps"});
  bench::JsonReport json("multichannel");
  json.config("n", n);
  json.config("trials", trials);
  json.config("quick", quick);

  bool verify_ok = true;
  double gate_speedup = 0;
  for (const char* const strategy_name : {"striped_rr", "group_wag", "adapter"}) {
    const std::string strategy(strategy_name);
    double rounds_c1 = 0;
    for (const std::uint32_t channels : {1u, 4u, 16u, 64u}) {
      const std::uint32_t cell_k = strategy == "group_wag" ? k_wag : k;
      proto::McProtocolPtr protocol;
      if (strategy == "striped_rr") {
        protocol = proto::make_striped_round_robin(n, channels);
      } else if (strategy == "group_wag") {
        protocol = proto::make_group_wait_and_go(n, cell_k, channels,
                                                 comb::FamilyKind::kRandomized, 7);
      } else {
        protocol = proto::make_single_channel_adapter(
            proto::make_wait_and_go(n, cell_k, comb::FamilyKind::kRandomized, 7), channels);
      }

      // kAuto: native strategies take the C-lane batch engine; the adapter
      // rides the single-channel stack — that IS its fast path.
      const sim::RunSpec interp_spec =
          cell_spec(*protocol, n, cell_k, trials, sim::Engine::kInterpreter);
      const sim::RunSpec batch_spec = cell_spec(*protocol, n, cell_k, trials, sim::Engine::kAuto);
      std::vector<sim::SimResult> interp_results, batch_results;
      (void)run_kept(interp_spec, interp_results);
      const double mean_rounds = run_kept(batch_spec, batch_results).rounds.mean;
      verify_ok = verify_ok && identical(interp_results, batch_results);

      // Interleaved reps until each leg has >= 100 ms (bench::measure), so
      // machine noise hits both engines alike; min-of-reps per leg.
      const bench::Measured m = bench::measure([&] { return time_run(interp_spec); },
                                               [&] { return time_run(batch_spec); });
      const double interp_per_trial = m.a_secs / static_cast<double>(trials);
      const double batch_per_trial = m.b_secs / static_cast<double>(trials);
      const double speedup = batch_per_trial > 0 ? interp_per_trial / batch_per_trial : 0;
      if (channels == 1) rounds_c1 = mean_rounds;
      if (strategy == "striped_rr" && channels == 16) gate_speedup = speedup;

      sink.cell(strategy)
          .cell(std::uint64_t{channels})
          .cell(1.0 / interp_per_trial, 1)
          .cell(1.0 / batch_per_trial, 1)
          .cell(speedup, 1)
          .cell(mean_rounds, 1)
          .cell(mean_rounds > 0 ? rounds_c1 / mean_rounds : 0, 1)
          .cell(static_cast<std::uint64_t>(m.reps));
      sink.end_row();
      json.row({{"strategy", strategy},
                {"channels", channels},
                {"k", cell_k},
                {"interp_trials_per_sec", 1.0 / interp_per_trial},
                {"throughput_trials_per_sec", 1.0 / batch_per_trial},
                {"speedup", speedup},
                {"mean_rounds", mean_rounds},
                {"tdm_vs_c1", mean_rounds > 0 ? rounds_c1 / mean_rounds : 0.0},
                {"reps", static_cast<std::uint64_t>(m.reps)}});
    }
  }
  sink.flush("M: native multichannel batching — cell throughput, batched vs slot loop "
             "(n=2^14; k=8, group_wag k=64)");

  const bool gate_ok = gate_speedup >= 3.0;
  json.config("acceptance_pass", gate_ok && verify_ok);
  json.write();
  std::cout << "striped_rr C=16 batched/interpreted: " << gate_speedup
            << "x (acceptance: >= 3x) " << (gate_ok ? "PASS" : "FAIL") << "\n"
            << "bit-identity: " << (verify_ok ? "PASS" : "FAIL") << "\n"
            << "Claim check: striped RR keeps the C-fold TDM speedup in rounds while the\n"
             "C-lane OR/ctz reduction replaces per-station, per-slot actions;\n"
             "group wait_and_go cuts per-channel contention ~k/C on the same engine.\n";
  return gate_ok && verify_ok ? 0 : 1;
}
