/// D — dynamic traffic: sustained-load slots/sec of the slot loop vs the
/// word-parallel batch engine, both through `sim::dispatch_dynamic`.
///
/// The acceptance cell is round_robin at n = 2^14 under poisson traffic —
/// the interpreter pays one virtual transmits() per backlogged station per
/// slot while the batch engine reads 64-slot schedule words — gated at
/// >= 3x.  The other cells show the win across arrival shapes and the
/// contended small-n regime where segments with live transmitters bound
/// the word-level fast path.
///
/// Usage: bench_dynamic [--quick]   (--quick shrinks horizons/trials for
/// CI-sized runs; the gate then applies to the shrunk cells)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wakeup;

namespace {

struct DynamicCell {
  std::string protocol;
  std::uint32_t n;
  std::uint32_t k;
  const char* arrival;
  mac::Slot horizon;
  std::uint64_t trials;
  bool gates = false;  ///< counts toward the acceptance check
};

/// One timed pass over a cell's trials on `engine`: wall seconds, and the
/// packets delivered (the same on both engines).
double run_cell(const proto::Protocol& protocol, sim::Engine engine, const DynamicCell& cell,
                std::uint64_t* delivered) {
  const mac::ArrivalSpec spec = mac::ArrivalSpec::parse(cell.arrival);
  std::uint64_t total = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    util::Rng rng(util::hash_words({0x44594eULL /* "DYN" */, trial}));
    const auto scenario = mac::arrivals::generate(spec, cell.n, cell.k, cell.horizon, rng);
    total += sim::dispatch_dynamic(protocol, scenario, engine).delivered;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  if (delivered != nullptr) *delivered = total;
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const mac::Slot horizon = quick ? 1 << 12 : 1 << 14;
  const std::uint64_t trials = quick ? 4 : 12;

  const std::vector<DynamicCell> cells = {
      // The acceptance cell: big sparse universe, light memoryless load.
      {"round_robin", 1 << 14, 64, "poisson:0.2", horizon, trials, true},
      // Arrival-shape spread on the same universe.
      {"round_robin", 1 << 14, 64, "bursty:0.4:0.05", horizon, trials},
      {"round_robin", 1 << 14, 64, "pareto:1.5:0.2", horizon, trials},
      // Denser schedules: fewer idle words, the batch win narrows.
      {"wakeup_with_k", 4096, 64, "poisson:0.3", horizon, trials},
      // Contended small-n regime: every slot has live transmitters.
      {"wakeup_matrix", 512, 32, "poisson:0.6", horizon, trials},
  };

  wakeup::bench::JsonReport json("dynamic");
  json.config("quick", quick);
  json.config("horizon", static_cast<std::uint64_t>(horizon));
  json.config("trials", trials);

  bool verify_ok = true;
  double gated = 0;
  std::string gated_protocol;
  std::printf("%-14s %6s %4s %-16s | %13s %13s | %7s %5s\n", "protocol", "n", "k", "arrival",
              "interp sl/s", "batch sl/s", "batch x", "reps");
  for (const auto& cell : cells) {
    proto::ProtocolSpec spec;
    spec.name = cell.protocol;
    spec.n = cell.n;
    spec.k = cell.k;
    spec.seed = 20130522;
    const auto protocol = proto::make_protocol_by_name(spec);

    // Bit-identity on one trial before timing — a fast batch engine that
    // disagrees with the reference loop measures nothing.
    {
      util::Rng rng(util::hash_words({0x44594eULL, std::uint64_t{0}}));
      const auto scenario = mac::arrivals::generate(mac::ArrivalSpec::parse(cell.arrival),
                                                    cell.n, cell.k, cell.horizon, rng);
      const auto a = sim::dispatch_dynamic(*protocol, scenario, sim::Engine::kInterpreter);
      const auto b = sim::dispatch_dynamic(*protocol, scenario, sim::Engine::kBatch);
      if (!(a == b)) {
        std::printf("BIT-IDENTITY FAIL: %s %s\n", cell.protocol.c_str(), cell.arrival);
        verify_ok = false;
      }
    }

    // Interleaved reps until each leg has >= 100 ms (bench::measure), so
    // machine noise hits both engines alike; min-of-reps per leg.
    std::uint64_t delivered = 0;
    const bench::Measured m = bench::measure(
        [&] { return run_cell(*protocol, sim::Engine::kInterpreter, cell, nullptr); },
        [&] { return run_cell(*protocol, sim::Engine::kBatch, cell, &delivered); });
    const double slots = static_cast<double>(cell.horizon) * static_cast<double>(cell.trials);
    const double interp_rate = m.a_secs > 0 ? slots / m.a_secs : 0;
    const double batch_rate = m.b_secs > 0 ? slots / m.b_secs : 0;
    const double speedup = interp_rate > 0 ? batch_rate / interp_rate : 0;
    std::printf("%-14s %6u %4u %-16s | %13.3e %13.3e | %6.1fx %5d\n", cell.protocol.c_str(),
                cell.n, cell.k, cell.arrival, interp_rate, batch_rate, speedup, m.reps);
    if (cell.gates) {
      gated = speedup;
      gated_protocol = cell.protocol;
    }
    json.row({{"protocol", cell.protocol},
              {"n", cell.n},
              {"k", cell.k},
              {"arrival", std::string(cell.arrival)},
              {"horizon", static_cast<std::uint64_t>(cell.horizon)},
              {"trials", cell.trials},
              {"interp_slots_per_sec", interp_rate},
              {"batch_slots_per_sec", batch_rate},
              {"speedup", speedup},
              {"reps", static_cast<std::uint64_t>(m.reps)},
              {"delivered", delivered},
              {"gated", cell.gates}});
  }

  const bool accept_ok = gated >= 3.0;
  std::printf("\ngated speedup: %.2fx (%s at n=2^14 poisson; acceptance: >= 3x) %s\n", gated,
              gated_protocol.c_str(), accept_ok ? "PASS" : "FAIL");
  std::printf("bit-identity: %s\n", verify_ok ? "PASS" : "FAIL");
  json.config("gated_speedup", gated);
  json.config("acceptance_pass", accept_ok && verify_ok);
  json.write();
  return verify_ok && accept_ok ? 0 : 1;
}
