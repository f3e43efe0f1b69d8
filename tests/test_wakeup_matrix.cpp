#include "protocols/wakeup_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "combinatorics/waking_verifier.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wp = wakeup::proto;
namespace wc = wakeup::comb;
namespace wm = wakeup::mac;
namespace wu = wakeup::util;
using wakeup::test::make_pattern;
using wakeup::test::run;

TEST(WakeupMatrix, RuntimeMatchesDeclarativeRowWalk) {
  // The incremental runtime must agree with MatrixParams::row_at + the lazy
  // matrix at every slot (two independent implementations of §5.1).
  const wp::WakeupMatrixProtocol protocol(64, /*c=*/1, /*seed=*/5);
  const auto& matrix = protocol.matrix();
  const auto& p = matrix.params();
  for (wm::Slot wake : {0, 1, 3, 7, 50}) {
    auto rt = protocol.make_runtime(9, wake);
    const auto horizon = static_cast<wm::Slot>(p.total_scan()) + wake + 100;
    for (wm::Slot t = wake; t < horizon; t += 1) {
      const auto row = p.row_at(wake, t);
      const bool expected =
          row.has_value() && matrix.contains(*row, static_cast<std::uint64_t>(t), 9);
      ASSERT_EQ(rt->transmits(t), expected) << "wake=" << wake << " t=" << t;
    }
  }
}

TEST(WakeupMatrix, ScheduleWordMatchesContains) {
  // The word path steps the column j = t mod ℓ, ρ(j) and the row-hash
  // prefix incrementally; every bit must still equal the declarative row
  // walk + one-call membership.  n = 16, c = 1 keeps ℓ = 256 and one row
  // scan at 240 slots, so the eight words read from each start below
  // straddle both wraps, start before µ(σ), and start many whole scans
  // past it.
  const wp::WakeupMatrixProtocol protocol(16, /*c=*/1, /*seed=*/11);
  const auto& matrix = protocol.matrix();
  const auto& p = matrix.params();
  ASSERT_EQ(p.ell, 256u);
  ASSERT_EQ(p.total_scan(), 240u);
  ASSERT_GT(p.window, 1u);
  std::uint64_t ones = 0;
  for (const wm::Slot wake : {0, 1, 3, 70, 239, 257, 1000}) {
    for (const wm::Slot start : {wm::Slot{0}, wm::Slot{64}, wm::Slot{192}, wm::Slot{448},
                                 (wake / 64) * 64, wm::Slot{64 * 200}, wm::Slot{64 * 1001}}) {
      for (wm::Slot from = start; from < start + 64 * 8; from += 64) {
        for (const wm::StationId u : {0u, 5u, 15u, 20u}) {
          const std::uint64_t word = protocol.schedule_word(u, wake, from);
          for (wm::Slot t = std::max(wake, from); t < from + 64; ++t) {  // t < wake: unspecified
            const auto row = p.row_at(wake, t);
            const bool expected =
                row.has_value() && matrix.contains(*row, static_cast<std::uint64_t>(t), u);
            const bool got = (word >> (t - from)) & 1u;
            ASSERT_EQ(got, expected) << "wake=" << wake << " from=" << from << " u=" << u
                                     << " t=" << t;
            ones += got ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(ones, 0u);  // the comparison saw transmissions, not only silence
}

TEST(WakeupMatrix, AgreesWithWakingVerifier) {
  // Simulator path (protocol runtimes) and matrix-level verifier must find
  // the same isolation slot.
  const std::uint32_t n = 32;
  const wp::WakeupMatrixProtocol protocol(n, 2, 77);
  const auto pattern = make_pattern(n, {{3, 0}, {17, 2}, {29, 9}});
  const auto sim_result = run(protocol, pattern, 1 << 20);
  std::vector<wc::WakeEvent> wakes;
  for (const auto& a : pattern.arrivals()) wakes.push_back({a.station, a.wake});
  const auto verifier_result = wc::find_isolation_slot(protocol.matrix(), wakes, 1 << 20);
  ASSERT_TRUE(sim_result.success);
  ASSERT_TRUE(verifier_result.isolated);
  EXPECT_EQ(sim_result.success_slot, verifier_result.slot);
  EXPECT_EQ(sim_result.winner, verifier_result.winner);
}

TEST(WakeupMatrix, WaitsForWindowBoundary) {
  const wp::WakeupMatrixProtocol protocol(256, 2, 5);
  const auto& p = protocol.matrix().params();
  ASSERT_GT(p.window, 1u);
  const wm::Slot wake = 1;  // mu(1) = window > 1
  auto rt = protocol.make_runtime(4, wake);
  for (wm::Slot t = wake; t < p.mu(wake); ++t) {
    EXPECT_FALSE(rt->transmits(t));
  }
}

TEST(WakeupMatrix, ScenarioCScalingEnvelope) {
  const std::uint32_t n = 256;
  wu::Rng rng(41);
  for (std::uint32_t k : {1u, 2u, 8u, 24u}) {
    const wp::WakeupMatrixProtocol protocol(n, 2, 13);
    const auto pattern = wm::patterns::staggered(n, k, 0, 3, rng);
    const auto result = run(protocol, pattern);
    ASSERT_TRUE(result.success) << "k=" << k;
    EXPECT_LE(static_cast<double>(result.rounds), 64.0 * wu::scenario_c_bound(n, k))
        << "k=" << k;
  }
}

TEST(WakeupMatrix, AllPatternsSucceed) {
  const std::uint32_t n = 128;
  wu::Rng rng(43);
  const wp::WakeupMatrixProtocol protocol(n, 2, 17);
  for (const auto kind : wm::patterns::all_kinds()) {
    const auto pattern = wm::patterns::generate(kind, n, 12, 4, rng);
    const auto result = run(protocol, pattern);
    EXPECT_TRUE(result.success) << wm::patterns::kind_name(kind);
  }
}

TEST(WakeupMatrix, NoKnowledgeRequirements) {
  const wp::WakeupMatrixProtocol protocol(64, 2, 1);
  const auto req = protocol.requirements();
  EXPECT_FALSE(req.needs_start_time);
  EXPECT_FALSE(req.needs_k);
  EXPECT_FALSE(req.needs_collision_detection);
  EXPECT_EQ(protocol.name(), "wakeup_matrix");
}

TEST(WakeupMatrix, DeterministicForSeed) {
  const wp::WakeupMatrixProtocol a(64, 2, 5), b(64, 2, 5);
  const auto pattern = make_pattern(64, {{1, 0}, {2, 0}, {3, 1}});
  const auto ra = run(a, pattern);
  const auto rb = run(b, pattern);
  EXPECT_EQ(ra.success_slot, rb.success_slot);
  EXPECT_EQ(ra.winner, rb.winner);
}

TEST(WakeupMatrix, SeedChangesExecution) {
  const wp::WakeupMatrixProtocol a(64, 2, 5), b(64, 2, 6);
  const auto pattern = make_pattern(64, {{1, 0}, {2, 0}, {3, 1}, {60, 2}});
  const auto ra = run(a, pattern);
  const auto rb = run(b, pattern);
  EXPECT_TRUE(ra.success && rb.success);
  // Different matrices will almost surely isolate at different slots.
  EXPECT_TRUE(ra.success_slot != rb.success_slot || ra.winner != rb.winner);
}

TEST(WakeupMatrix, SingleStationAloneFast) {
  const wp::WakeupMatrixProtocol protocol(1024, 2, 3);
  const auto result = run(protocol, make_pattern(1024, {{512, 6}}));
  ASSERT_TRUE(result.success);
  // Lone station: isolated at its first membership; expected ~2^(1+rho).
  EXPECT_LT(result.rounds, 300);
}
