/// C-channel engine equivalence: the multichannel batch engine must
/// produce bit-identical SimResults — every counter: successes,
/// silences, collisions, success_channel, winner — to the slot-by-slot
/// interpreter run over C lanes, across the three native strategies (striped
/// round-robin, group wait_and_go, channel-0 adapter) over seeded trials,
/// including budget-exhaustion runs.  Also checks the channel-aware
/// ObliviousSchedule capability contract action for action against the
/// McStationRuntime.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "protocols/multichannel.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/rpd.hpp"
#include "protocols/wait_and_go.hpp"
#include "sim/batch_engine.hpp"
#include "sim/run.hpp"
#include "tests/test_helpers.hpp"
#include "util/rng.hpp"

namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

namespace {

void expect_identical(const ws::SimResult& a, const ws::SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.s, b.s) << label;
  EXPECT_EQ(a.success_slot, b.success_slot) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.success_channel, b.success_channel) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.successes, b.successes) << label;
}

ws::SimResult run_mc(const wp::McProtocol& protocol, const wm::WakePattern& pattern,
                     ws::Engine engine, wm::Slot max_slots = 0) {
  return ws::Run({.mc_protocol = &protocol,
                  .pattern = &pattern,
                  .sim = {.max_slots = max_slots, .engine = engine}})
      .sim;
}

/// The native strategies under test, each with its channel counts.
struct Strategy {
  std::string label;
  wp::McProtocolPtr protocol;
};

std::vector<Strategy> native_strategies(std::uint32_t n, std::uint32_t k) {
  std::vector<Strategy> out;
  for (const std::uint32_t c : {1u, 3u, 8u}) {
    out.push_back({"striped_rr/C=" + std::to_string(c), wp::make_striped_round_robin(n, c)});
  }
  for (const std::uint32_t c : {2u, 4u}) {
    out.push_back({"group_wag/C=" + std::to_string(c),
                   wp::make_group_wait_and_go(n, k, c, wakeup::comb::FamilyKind::kRandomized,
                                              20130522)});
  }
  out.push_back({"adapter(round_robin)/C=3",
                 wp::make_single_channel_adapter(std::make_shared<wp::RoundRobinProtocol>(n), 3)});
  out.push_back({"adapter(wait_and_go)/C=4",
                 wp::make_single_channel_adapter(
                     wp::make_wait_and_go(n, k, wakeup::comb::FamilyKind::kRandomized, 7), 4)});
  return out;
}

}  // namespace

TEST(McEngineEquivalence, BitIdenticalAcrossSeededTrials) {
  const std::uint32_t n = 96, k = 12;
  const auto& kinds = wm::patterns::all_kinds();
  std::uint64_t checked = 0;
  for (const Strategy& strategy : native_strategies(n, k)) {
    ASSERT_TRUE(ws::batch_engine_supports(*strategy.protocol, {})) << strategy.label;
    for (const auto kind : kinds) {
      for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const std::uint64_t seed = wu::hash_words(
            {0x4d435151ULL /* "MCQQ" */, static_cast<std::uint64_t>(kind), trial});
        wu::Rng rng(seed);
        const auto pattern = wm::patterns::generate(kind, n, k, 3, rng);
        const std::string label = strategy.label + " kind=" +
                                  std::string(wm::patterns::kind_name(kind)) + " trial=" +
                                  std::to_string(trial);
        const auto reference = run_mc(*strategy.protocol, pattern, ws::Engine::kInterpreter);
        expect_identical(reference, run_mc(*strategy.protocol, pattern, ws::Engine::kBatch),
                         label + " batch");
        expect_identical(reference, run_mc(*strategy.protocol, pattern, ws::Engine::kAuto),
                         label + " auto");
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 100u);
}

TEST(McEngineEquivalence, BudgetExhaustionCountersMatch) {
  // Failure paths must agree on every counter too — all engines walk the
  // full budget and count every channel-slot.  Budget 0 is the automatic
  // budget (every run resolves).
  const std::uint32_t n = 64;
  for (const Strategy& strategy : native_strategies(n, 8)) {
    wu::Rng rng(11);
    const auto pattern = wm::patterns::simultaneous(n, 8, 5, rng);
    for (const wm::Slot budget : {0, 1, 2, 63, 64, 65, 129, 130, 513}) {
      const std::string label = strategy.label + " budget=" + std::to_string(budget);
      const auto reference =
          run_mc(*strategy.protocol, pattern, ws::Engine::kInterpreter, budget);
      expect_identical(reference,
                       run_mc(*strategy.protocol, pattern, ws::Engine::kBatch, budget),
                       label + " batch");
      expect_identical(reference,
                       run_mc(*strategy.protocol, pattern, ws::Engine::kAuto, budget),
                       label + " auto");
    }
  }
}

TEST(McEngineEquivalence, ScheduleAgreesWithRuntimeActions) {
  // Capability contract: schedule_word bit == act().transmit and
  // channel_lane == act().channel (constant over the run), for stations in
  // and out of the universe, across block boundaries.
  const std::uint32_t n = 37, k = 5;
  for (const Strategy& strategy : native_strategies(n, k)) {
    const auto* schedule = strategy.protocol->oblivious_schedule();
    ASSERT_NE(schedule, nullptr) << strategy.label;
    EXPECT_EQ(schedule->schedule_channels(), strategy.protocol->channels()) << strategy.label;
    for (const wm::Slot wake : {wm::Slot{0}, wm::Slot{9}, wm::Slot{130}}) {
      for (const wm::StationId u : {0u, 1u, 17u, 36u, 45u}) {
        const std::uint32_t lane = schedule->channel_lane(u, wake);
        ASSERT_LT(lane, strategy.protocol->channels()) << strategy.label;
        auto runtime = strategy.protocol->make_runtime(u, wake);
        const wm::Slot from = (wake / 64) * 64;
        for (wm::Slot block = from; block < from + 256; block += 64) {
          const std::uint64_t word = schedule->schedule_word(u, wake, block);
          for (wm::Slot t = std::max(wake, block); t < block + 64; ++t) {
            const bool word_says = (word >> (t - block)) & 1u;
            const wm::ChannelAction action = runtime->act(t);
            ASSERT_EQ(word_says, action.transmit)
                << strategy.label << " u=" << u << " wake=" << wake << " t=" << t;
            ASSERT_EQ(lane, action.channel)
                << strategy.label << " u=" << u << " wake=" << wake << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(McEngineEquivalence, ScheduleWordsMatchScheduleWord) {
  // One schedule_words call per block over stations of every lane, woken
  // before, inside and after the block, gives each its own schedule_word.
  const std::uint32_t n = 37, k = 5;
  std::uint64_t ones = 0;
  for (const Strategy& strategy : native_strategies(n, k)) {
    const auto* schedule = strategy.protocol->oblivious_schedule();
    ASSERT_NE(schedule, nullptr) << strategy.label;
    std::vector<wp::ObliviousSchedule::StationWake> stations;
    for (const wm::Slot wake : {wm::Slot{0}, wm::Slot{9}, wm::Slot{130}, wm::Slot{300}}) {
      for (wm::StationId u = 0; u < 46; u += 2) stations.push_back({u, wake});  // 92 in all
    }
    for (wm::Slot from = 0; from < 512; from += 64) {
      ones += wakeup::test::expect_words_match_word(*schedule, stations, from, strategy.label);
    }
  }
  EXPECT_GT(ones, 0u);
}

TEST(McEngineEquivalence, BatchThrowsWithoutCapability) {
  // random_rpd hops channels per slot — no fixed lane, no capability.
  const auto rpd = wp::make_random_channel_rpd(64, 4, 1);
  EXPECT_EQ(rpd->oblivious_schedule(), nullptr);
  EXPECT_FALSE(ws::batch_engine_supports(*rpd, {}));
  wu::Rng rng(2);
  const auto pattern = wm::patterns::simultaneous(64, 4, 0, rng);
  EXPECT_THROW((void)run_mc(*rpd, pattern, ws::Engine::kBatch), std::invalid_argument);
  // Adapters over non-oblivious inners cannot batch either.
  const auto adapter = wp::make_single_channel_adapter(wp::RpdProtocol::for_n(64, 3), 4);
  EXPECT_EQ(adapter->oblivious_schedule(), nullptr);
  EXPECT_THROW((void)run_mc(*adapter, pattern, ws::Engine::kBatch), std::invalid_argument);
}

namespace {

/// A broken capability: every station claims lane channels(), one past
/// the last lane.
class OutOfRangeLaneProtocol final : public wp::McProtocol, public wp::ObliviousSchedule {
 public:
  [[nodiscard]] std::string name() const override { return "out_of_range_lane"; }
  [[nodiscard]] std::uint32_t channels() const override { return 2; }
  [[nodiscard]] std::unique_ptr<wp::McStationRuntime> make_runtime(
      wm::StationId /*u*/, wm::Slot /*wake*/) const override {
    return nullptr;
  }
  [[nodiscard]] const wp::ObliviousSchedule* oblivious_schedule() const override { return this; }
  [[nodiscard]] std::uint32_t schedule_channels() const override { return 2; }
  [[nodiscard]] std::uint32_t channel_lane(wm::StationId /*u*/,
                                           wm::Slot /*wake*/) const override {
    return 2;
  }
  [[nodiscard]] std::uint64_t schedule_word(wm::StationId /*u*/, wm::Slot /*wake*/,
                                            wm::Slot /*from*/) const override {
    return ~std::uint64_t{0};
  }
};

}  // namespace

TEST(McEngineEquivalence, BatchRejectsOutOfRangeLane) {
  // The engine trusts channel_lane to index its lane rows; a schedule that
  // breaks the < schedule_channels() contract must be refused, not read
  // past the reduction rows.
  const OutOfRangeLaneProtocol protocol;
  ASSERT_TRUE(ws::batch_engine_supports(protocol, {}));
  wu::Rng rng(3);
  const auto pattern = wm::patterns::simultaneous(16, 4, 0, rng);
  EXPECT_THROW((void)run_mc(protocol, pattern, ws::Engine::kBatch), std::invalid_argument);
}

TEST(McEngineEquivalence, InterpreterRejectsOutOfRangeChannel) {
  // A runtime acting on channel >= C — transmitting or only listening —
  // breaks the McStationRuntime contract; the slot loop must refuse it
  // rather than index a lane that does not exist.
  wu::Rng rng(3);
  const auto pattern = wm::patterns::simultaneous(16, 4, 0, rng);
  for (const bool transmit : {true, false}) {
    const wakeup::test::FixedActionProtocol protocol(2, {{transmit, 2}});
    for (const auto engine : {ws::Engine::kInterpreter, ws::Engine::kAuto}) {
      EXPECT_THROW((void)run_mc(protocol, pattern, engine), std::invalid_argument)
          << "transmit=" << transmit;
    }
  }
}

TEST(McCellTrials, PooledBatchTrialsMatchSlotLoop) {
  // Whole C-channel sweep cells: every per-trial SimResult of the pooled
  // cell on the default dispatch must equal the interpreted per-trial
  // loop, counter for counter.
  const std::uint32_t n = 96, k = 12;
  for (const Strategy& strategy : native_strategies(n, k)) {
    if (strategy.protocol->single_channel() != nullptr) continue;  // adapters: fast path
    ws::RunSpec spec;
    spec.mc_protocol = strategy.protocol.get();
    spec.make_pattern = [n, k](wu::Rng& rng) {
      return wm::patterns::uniform_window(n, k, 3, 48, rng);
    };
    spec.trials = 20;
    spec.base_seed = 20130522;

    std::vector<ws::SimResult> interpreted(spec.trials), batched(spec.trials);
    auto interp_spec = spec;
    interp_spec.sim.engine = ws::Engine::kInterpreter;
    interp_spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
      interpreted[i] = r;
    };
    const auto plain = ws::Run(interp_spec, nullptr).cell();

    auto batch_spec = spec;
    batch_spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
      batched[i] = r;
    };
    wu::ThreadPool pool(3);
    const auto pooled = ws::Run(batch_spec, &pool).cell();

    for (std::uint64_t i = 0; i < spec.trials; ++i) {
      expect_identical(interpreted[i], batched[i],
                       strategy.label + " trial " + std::to_string(i));
    }
    EXPECT_EQ(plain.failures, pooled.failures) << strategy.label;
    EXPECT_DOUBLE_EQ(plain.rounds.mean, pooled.rounds.mean) << strategy.label;
    EXPECT_DOUBLE_EQ(plain.silences.mean, pooled.silences.mean) << strategy.label;
    EXPECT_DOUBLE_EQ(plain.collisions.mean, pooled.collisions.mean) << strategy.label;
  }
}
