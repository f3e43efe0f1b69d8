#include "sim/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "mac/impairment.hpp"
#include "protocols/local_doubling.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/wakeup_matrix.hpp"
#include "protocols/wakeup_with_k.hpp"
#include "protocols/wakeup_with_s.hpp"
#include "sim/batch_engine.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace ws = wakeup::sim;
namespace wp = wakeup::proto;
namespace wc = wakeup::comb;
namespace wu = wakeup::util;

TEST(SwapAdversary, ForcesTheoremBoundOnRoundRobin) {
  for (std::uint32_t n : {16u, 64u}) {
    for (std::uint32_t k : {1u, 2u, 4u, n / 2, n - 1}) {
      wp::RoundRobinProtocol rr(n);
      const auto result = ws::run_swap_adversary(rr, n, k);
      EXPECT_FALSE(result.protocol_stalled) << "n=" << n << " k=" << k;
      EXPECT_EQ(result.bound, static_cast<std::int64_t>(wu::theorem21_bound(n, k)));
      EXPECT_GE(result.rounds_forced, result.bound) << "n=" << n << " k=" << k;
    }
  }
}

TEST(SwapAdversary, RoundRobinIsExactlyTight) {
  // RR selects a fresh X-member every slot whose owner is in X; the
  // adversary swaps min(k, n-k) times, so rounds = min(k, n-k) + ... the
  // game ends within n rounds regardless.
  const std::uint32_t n = 32, k = 8;
  wp::RoundRobinProtocol rr(n);
  const auto result = ws::run_swap_adversary(rr, n, k);
  EXPECT_EQ(result.swaps, std::min(k, n - k));
  EXPECT_LE(result.rounds_forced, static_cast<std::int64_t>(n));
}

// Theorem 2.1 against the selective-family protocols: the Scenario A and B
// interleavings and the local-clock doubling baseline.
TEST(SwapAdversary, WorksOnSelectiveSchedules) {
  const std::uint32_t n = 64;
  for (const std::uint32_t k : {2u, 8u, 48u}) {
    const std::vector<std::pair<std::string, wp::ProtocolPtr>> protocols = {
        {"local_doubling", wp::make_local_doubling(n, n, wc::FamilyKind::kRandomized, 3)},
        {"wakeup_with_s", wp::make_wakeup_with_s(n, 0, wc::FamilyKind::kRandomized, 3)},
        {"wakeup_with_k", wp::make_wakeup_with_k(n, k, wc::FamilyKind::kRandomized, 3)},
    };
    for (const auto& [name, protocol] : protocols) {
      const auto result = ws::run_swap_adversary(*protocol, n, k);
      EXPECT_FALSE(result.protocol_stalled) << name << " k=" << k;
      EXPECT_GE(result.rounds_forced, result.bound) << name << " k=" << k;
    }
  }
}

TEST(SwapAdversary, WorksOnWakeupMatrix) {
  const std::uint32_t n = 32, k = 4;
  const wp::WakeupMatrixProtocol protocol(n, 2, 5);
  const auto result = ws::run_swap_adversary(protocol, n, k);
  EXPECT_FALSE(result.protocol_stalled);
  EXPECT_GE(result.rounds_forced, result.bound);
}

TEST(SwapAdversary, DegenerateParameters) {
  wp::RoundRobinProtocol rr(8);
  EXPECT_EQ(ws::run_swap_adversary(rr, 8, 0).rounds_forced, 0);
  EXPECT_EQ(ws::run_swap_adversary(rr, 8, 9).rounds_forced, 0);  // k > n rejected
  // k == n: bound is 1; no swaps possible.
  const auto result = ws::run_swap_adversary(rr, 8, 8);
  EXPECT_EQ(result.bound, 1);
  EXPECT_GE(result.rounds_forced, 1);
}

TEST(PatternSearch, FindsAtLeastAsHardAsStructured) {
  const std::uint32_t n = 32, k = 4;
  auto factory = [n](std::uint64_t seed) -> wp::ProtocolPtr {
    return std::make_shared<wp::WakeupMatrixProtocol>(n, 2, seed % 3 + 1);
  };
  ws::SimConfig config;
  const auto search = ws::search_worst_pattern(factory, n, k, /*restarts=*/3,
                                               /*steps=*/10, /*seed=*/7, config);
  EXPECT_GT(search.evaluations, 0u);
  EXPECT_EQ(search.worst.k(), k);
  EXPECT_TRUE(search.worst_result.success);
  EXPECT_GE(search.worst_result.rounds, 0);
}

TEST(PatternSearch, DeterministicForSeed) {
  const std::uint32_t n = 16, k = 3;
  auto factory = [n](std::uint64_t) -> wp::ProtocolPtr {
    return std::make_shared<wp::WakeupMatrixProtocol>(n, 2, 9);
  };
  ws::SimConfig config;
  const auto a = ws::search_worst_pattern(factory, n, k, 2, 8, 11, config);
  const auto b = ws::search_worst_pattern(factory, n, k, 2, 8, 11, config);
  EXPECT_EQ(a.worst_result.rounds, b.worst_result.rounds);
  EXPECT_EQ(a.worst.arrivals(), b.worst.arrivals());
}

TEST(JamSearch, DeterministicAcrossEngineTuning) {
  // The adversarial jam schedule feeds the cell-tag seed contract: the
  // sweep resolves it once per cell and every trial replays it, so the
  // search must be a pure function of (seed, cell identity) — identical
  // slots no matter the tile width or whether the SIMD kernels are live.
  struct Guard {
    ~Guard() {
      wakeup::sim::set_tile_words(0);
      wakeup::util::simd::set_force_scalar(false);
    }
  } guard;

  const std::uint32_t n = 64, k = 8;
  wp::RoundRobinProtocol rr(n);
  wakeup::util::Rng rng(2013);
  const auto pattern =
      wakeup::mac::patterns::generate(wakeup::mac::patterns::Kind::kUniform, n, k, 0, rng);
  const auto spec = wakeup::mac::ImpairmentSpec::parse("jam:budget:12:adversarial");
  ws::SimConfig config;
  config.max_slots = 1 << 12;

  const auto reference = ws::search_worst_jam(rr, pattern, spec, 3, 16, 77, config);
  EXPECT_EQ(reference.slots.size(), 12u);
  EXPECT_TRUE(std::is_sorted(reference.slots.begin(), reference.slots.end()));
  EXPECT_GT(reference.evaluations, 0u);

  for (const std::size_t tile : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool scalar : {false, true}) {
      wakeup::sim::set_tile_words(tile);
      wakeup::util::simd::set_force_scalar(scalar);
      const auto probe = ws::search_worst_jam(rr, pattern, spec, 3, 16, 77, config);
      EXPECT_EQ(probe.slots, reference.slots)
          << "tile=" << tile << (scalar ? " scalar" : " simd");
      EXPECT_EQ(probe.worst_result.rounds, reference.worst_result.rounds)
          << "tile=" << tile << (scalar ? " scalar" : " simd");
      EXPECT_EQ(probe.evaluations, reference.evaluations)
          << "tile=" << tile << (scalar ? " scalar" : " simd");
    }
  }

  // A different seed explores differently (the climb is seed-driven).
  const auto other = ws::search_worst_jam(rr, pattern, spec, 3, 16, 78, config);
  EXPECT_EQ(other.slots.size(), 12u);
}
