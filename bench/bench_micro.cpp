/// M — microbenchmarks (google-benchmark): construction and query costs of
/// the combinatorial machinery and the simulator's slot throughput.

#include <benchmark/benchmark.h>

#include "wakeup/wakeup.hpp"

using namespace wakeup;

namespace {

void BM_BuildRandomizedFamily(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto fam = comb::build_randomized(n, k, comb::kDefaultRandomFamilyC, seed++);
    benchmark::DoNotOptimize(fam.length());
  }
}
BENCHMARK(BM_BuildRandomizedFamily)->Args({1024, 8})->Args({4096, 32})->Args({16384, 64});

void BM_BuildKautzSingleton(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto fam = comb::build_kautz_singleton(n, k);
    benchmark::DoNotOptimize(fam.length());
  }
}
BENCHMARK(BM_BuildKautzSingleton)->Args({1024, 4})->Args({4096, 8});

void BM_BuildBitSplitter(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto fam = comb::build_bit_splitter(n);
    benchmark::DoNotOptimize(fam.length());
  }
}
BENCHMARK(BM_BuildBitSplitter)->Arg(1024)->Arg(65536);

void BM_DoublingScheduleBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    comb::DoublingSchedule::Config config;
    config.n = n;
    config.k_max = k;
    config.seed = seed++;
    comb::DoublingSchedule sched(config);
    benchmark::DoNotOptimize(sched.period());
  }
}
BENCHMARK(BM_DoublingScheduleBuild)->Args({1024, 64})->Args({4096, 256});

void BM_MatrixMembershipQuery(benchmark::State& state) {
  const auto params = comb::MatrixParams::make(1 << 20, 2);
  const comb::LazyTransmissionMatrix matrix(params, 7);
  std::uint64_t col = 0;
  comb::Station u = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += matrix.contains(1 + static_cast<unsigned>(col % params.rows), col, u) ? 1 : 0;
    ++col;
    u = static_cast<comb::Station>((u + 977) & ((1 << 20) - 1));
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_MatrixMembershipQuery);

void BM_SelectivityCheck(benchmark::State& state) {
  const auto fam = comb::build_randomized(1024, 16, comb::kDefaultRandomFamilyC, 3);
  util::Rng rng(5);
  const auto subset = comb::random_subset(1024, 12, rng);
  util::DynamicBitset x(1024);
  for (auto s : subset) x.set(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam.first_selecting_step(x));
  }
}
BENCHMARK(BM_SelectivityCheck);

void BM_SimulateScenarioC(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const proto::WakeupMatrixProtocol protocol(n, 2, 11);
  util::Rng rng(3);
  const auto pattern = mac::patterns::staggered(n, k, 0, 3, rng);
  std::int64_t total_slots = 0;
  for (auto _ : state) {
    const auto result = sim::Run({.protocol = &protocol, .pattern = &pattern}).sim;
    total_slots += result.rounds + 1;
    benchmark::DoNotOptimize(result.success);
  }
  state.counters["slots/s"] = benchmark::Counter(static_cast<double>(total_slots),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateScenarioC)->Args({1024, 8})->Args({4096, 32});

void BM_SimulateRoundRobinFullHouse(benchmark::State& state) {
  const std::uint32_t n = 4096;
  const proto::RoundRobinProtocol protocol(n);
  std::vector<mac::Arrival> arrivals;
  for (mac::StationId u = 0; u < n; ++u) arrivals.push_back({u, 0});
  const mac::WakePattern pattern(n, std::move(arrivals));
  for (auto _ : state) {
    const auto result = sim::Run({.protocol = &protocol, .pattern = &pattern}).sim;
    benchmark::DoNotOptimize(result.success);
  }
}
BENCHMARK(BM_SimulateRoundRobinFullHouse);

/// One 64-slot block of 256 stations, all woken at slot 0 and past their
/// waiting phase, at n = 4096 (k = 256 for wakeup_with_k).  Arg 0 picks
/// the protocol (0 wakeup_matrix, 1 wakeup_with_k); arg 1 the path:
/// 0 a schedule_word call per station, 1 one schedule_words call for the
/// round (what the batch engine makes), 2 the interpreted equivalent (64
/// `transmits` calls per station on live runtimes — the per-slot cost the
/// kAuto warm-up weighs against one round).  items/s counts words.
void BM_ScheduleWords(benchmark::State& state) {
  constexpr std::uint32_t n = 4096;
  constexpr std::size_t stations = 256;
  const proto::ProtocolPtr protocol =
      state.range(0) == 0 ? std::make_shared<proto::WakeupMatrixProtocol>(n, 2, 11)
                          : proto::make_wakeup_with_k(n, 256, comb::FamilyKind::kRandomized, 11);
  const proto::ObliviousSchedule& schedule = *protocol->oblivious_schedule();
  std::vector<proto::ObliviousSchedule::StationWake> asked;
  std::vector<std::unique_ptr<proto::StationRuntime>> runtimes;
  for (std::size_t i = 0; i < stations; ++i) {
    const auto u = static_cast<mac::StationId>(i * 16);
    asked.push_back({u, 0});
    runtimes.push_back(protocol->make_runtime(u, 0));
  }
  std::vector<std::uint64_t> words(stations);
  mac::Slot from = 64 * 64;
  for (mac::Slot t = 0; t < from; ++t) {
    for (auto& rt : runtimes) benchmark::DoNotOptimize(rt->transmits(t));
  }
  for (auto _ : state) {
    switch (state.range(1)) {
      case 0:
        for (std::size_t i = 0; i < stations; ++i) {
          words[i] = schedule.schedule_word(asked[i].u, asked[i].wake, from);
        }
        break;
      case 1:
        schedule.schedule_words(asked, from, words);
        break;
      default:
        for (std::size_t i = 0; i < stations; ++i) {
          std::uint64_t word = 0;
          for (unsigned j = 0; j < 64; ++j) {
            word |= static_cast<std::uint64_t>(runtimes[i]->transmits(from + j)) << j;
          }
          words[i] = word;
        }
        break;
    }
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
    from += 64;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(stations));
}
BENCHMARK(BM_ScheduleWords)
    ->ArgNames({"protocol", "path"})
    ->ArgsProduct({{0, 1}, {0, 1, 2}});

void BM_SwapAdversary(benchmark::State& state) {
  const std::uint32_t n = 512, k = 64;
  const proto::RoundRobinProtocol protocol(n);
  for (auto _ : state) {
    const auto result = sim::run_swap_adversary(protocol, n, k);
    benchmark::DoNotOptimize(result.rounds_forced);
  }
}
BENCHMARK(BM_SwapAdversary);

}  // namespace
