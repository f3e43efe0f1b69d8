#include <gtest/gtest.h>

#include "protocols/round_robin.hpp"
#include "protocols/wait_and_go.hpp"
#include "sim/run.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;


namespace {

ws::SimResult run_mc(const wp::McProtocol& protocol, const wm::WakePattern& pattern,
                     wm::Slot max_slots = 0) {
  return ws::Run({.mc_protocol = &protocol, .pattern = &pattern,
                  .sim = {.max_slots = max_slots}})
      .sim;
}

}  // namespace

TEST(StripedRoundRobin, CompletesWithinCeilNOverC) {
  const std::uint32_t n = 64;
  wu::Rng rng(3);
  for (std::uint32_t channels : {1u, 2u, 4u, 8u}) {
    const auto protocol = wp::make_striped_round_robin(n, channels);
    for (std::uint32_t k : {1u, 8u, 64u}) {
      const auto pattern = wm::patterns::simultaneous(n, k, 0, rng);
      const auto result = run_mc(*protocol, pattern);
      ASSERT_TRUE(result.success) << "C=" << channels << " k=" << k;
      EXPECT_LE(result.rounds, static_cast<wm::Slot>(wu::ceil_div(n, channels)))
          << "C=" << channels << " k=" << k;
    }
  }
}

TEST(StripedRoundRobin, SpeedupIsRoughlyLinearInChannels) {
  // Worst-case single station: last turn of the cycle.
  const std::uint32_t n = 64;
  std::int64_t prev = 1 << 30;
  for (std::uint32_t channels : {1u, 2u, 4u}) {
    const auto protocol = wp::make_striped_round_robin(n, channels);
    // Station n-1 has the last turn in every striping.
    const wm::WakePattern pattern(n, {{n - 1, 0}});
    const auto result = run_mc(*protocol, pattern);
    ASSERT_TRUE(result.success);
    EXPECT_LT(result.rounds, prev);
    prev = result.rounds;
  }
}

TEST(Adapter, MatchesSingleChannelSemantics) {
  const std::uint32_t n = 16;
  auto inner = std::make_shared<wp::RoundRobinProtocol>(n);
  const auto mc = wp::make_single_channel_adapter(inner, 4);
  EXPECT_EQ(mc->channels(), 4u);
  const wm::WakePattern pattern(n, {{3, 5}});
  const auto mc_result = run_mc(*mc, pattern);
  const auto sc_result = ws::Run({.protocol = inner.get(), .pattern = &pattern}).sim;
  ASSERT_TRUE(mc_result.success && sc_result.success);
  EXPECT_EQ(mc_result.success_slot, sc_result.success_slot);
  EXPECT_EQ(mc_result.winner, sc_result.winner);
  EXPECT_EQ(mc_result.success_channel, 0);
}

TEST(GroupWaitAndGo, ResolvesAndUsesMultipleChannels) {
  const std::uint32_t n = 256, k = 32;
  wu::Rng rng(7);
  const auto protocol =
      wp::make_group_wait_and_go(n, k, 4, wakeup::comb::FamilyKind::kRandomized, 11);
  EXPECT_EQ(protocol->channels(), 4u);
  bool saw_nonzero_channel = false;
  for (int trial = 0; trial < 10; ++trial) {
    const auto pattern = wm::patterns::simultaneous(n, k, 0, rng);
    const auto result = run_mc(*protocol, pattern);
    ASSERT_TRUE(result.success) << "trial " << trial;
    saw_nonzero_channel = saw_nonzero_channel || result.success_channel > 0;
  }
  EXPECT_TRUE(saw_nonzero_channel) << "all successes on channel 0 is suspicious";
}

TEST(GroupWaitAndGo, FasterThanSingleChannelOnAverage) {
  const std::uint32_t n = 256, k = 32;
  wu::Rng rng(9);
  const auto mc = wp::make_group_wait_and_go(n, k, 8, wakeup::comb::FamilyKind::kRandomized, 3);
  const auto sc = wp::make_single_channel_adapter(
      wp::make_wait_and_go(n, k, wakeup::comb::FamilyKind::kRandomized, 3), 8);
  double mc_total = 0, sc_total = 0;
  const int trials = 12;
  for (int trial = 0; trial < trials; ++trial) {
    const auto pattern = wm::patterns::simultaneous(n, k, 0, rng);
    const auto mc_result = run_mc(*mc, pattern);
    const auto sc_result = run_mc(*sc, pattern);
    ASSERT_TRUE(mc_result.success && sc_result.success);
    mc_total += static_cast<double>(mc_result.rounds);
    sc_total += static_cast<double>(sc_result.rounds);
  }
  EXPECT_LT(mc_total, sc_total) << "grouping across channels should cut contention";
}

TEST(RandomChannelRpd, Resolves) {
  const std::uint32_t n = 256;
  wu::Rng rng(13);
  const auto protocol = wp::make_random_channel_rpd(n, 4, 5);
  for (std::uint32_t k : {2u, 16u, 64u}) {
    const auto pattern = wm::patterns::simultaneous(n, k, 0, rng);
    const auto result = run_mc(*protocol, pattern);
    EXPECT_TRUE(result.success) << "k=" << k;
  }
}

TEST(McSimulator, CountsSilencePerChannel) {
  // One awake station, no collisions ever: every channel-slot is either
  // silent or the one solo, so the counters must satisfy the conservation
  // law channels * (rounds + 1) = silences + successes.
  const std::uint32_t n = 64;
  for (std::uint32_t channels : {2u, 4u}) {
    const auto protocol = wp::make_striped_round_robin(n, channels);
    const wm::WakePattern pattern(n, {{n - 1, 0}});
    const auto result = run_mc(*protocol, pattern);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.collisions, 0u);
    EXPECT_EQ(result.silences + result.successes,
              static_cast<std::uint64_t>(channels) *
                  static_cast<std::uint64_t>(result.rounds + 1))
        << "C=" << channels;
    EXPECT_GT(result.silences, 0u);
  }
}

TEST(McSimulator, FastPathReportsSilences) {
  // Single-channel adapter: round_robin station 5 in [0,8) gives slots 0-4
  // silent on channel 0 and a success at 5, while the two side channels
  // are silent in all 6 processed slots — the adapter fast path must
  // charge them exactly like the slot loop does: 5 + 2 * 6 = 17.
  const std::uint32_t n = 8;
  auto inner = std::make_shared<wp::RoundRobinProtocol>(n);
  const auto mc = wp::make_single_channel_adapter(inner, 3);
  const wm::WakePattern pattern(n, {{5, 0}});
  const auto result = run_mc(*mc, pattern);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 5);
  EXPECT_EQ(result.silences, 17u);
  EXPECT_EQ(result.collisions, 0u);
  EXPECT_EQ(result.successes, 1u);
  // The conservation law now holds uniformly across strategies:
  // channels * (rounds + 1) = silences + successes + collisions.
  EXPECT_EQ(result.silences + result.successes + result.collisions,
            3u * static_cast<std::uint64_t>(result.rounds + 1));
}

TEST(McSimulator, SuccessesAreFullRunChannelTotals) {
  // Striped RR over 2 channels: stations 0 and 1 both own cycle slot 0 on
  // different channels, so the completing slot carries TWO solos —
  // `successes` totals solo channel-slots over the whole run (here the run
  // is one slot long), not "the" winning channel alone.
  const auto protocol = wp::make_striped_round_robin(4, 2);
  const wm::WakePattern pattern(4, {{0, 0}, {1, 0}});
  const auto result = run_mc(*protocol, pattern);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.rounds, 0);
  EXPECT_EQ(result.successes, 2u);
  EXPECT_EQ(result.silences, 0u);
  EXPECT_EQ(result.collisions, 0u);
  // The reported winning channel is the lowest solo channel.
  EXPECT_EQ(result.success_channel, 0);
}

TEST(McSimulator, EmptyPattern) {
  const auto protocol = wp::make_striped_round_robin(8, 2);
  const auto result = run_mc(*protocol, wm::WakePattern());
  EXPECT_FALSE(result.success);
}

TEST(McSimulator, BudgetExhaustion) {
  const auto protocol = wp::make_striped_round_robin(64, 1);
  const wm::WakePattern pattern(64, {{63, 1}});  // needs a near-full cycle
  const auto result = run_mc(*protocol, pattern, /*max_slots=*/3);
  EXPECT_FALSE(result.success);
}
