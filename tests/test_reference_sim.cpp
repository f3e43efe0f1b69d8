/// Golden-model cross-check: an independent, deliberately naive
/// re-implementation of the wake-up execution semantics, compared against
/// the sim::Run engine stack on a grid of protocols and patterns.  Any divergence in
/// success slot / winner / outcome counters flags a simulator bug.  The
/// second half does the same for the C-channel model.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "sim/run.hpp"
#include "tests/test_helpers.hpp"
#include "util/rng.hpp"

namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

namespace {

struct ReferenceResult {
  bool success = false;
  wm::Slot success_slot = -1;
  wm::StationId winner = 0;
  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;
};

/// Naive semantics straight from the problem statement: one runtime per
/// station created up-front, every awake station polled every slot, first
/// slot with exactly one transmitter wins.  No lazy creation, no early
/// datastructure tricks — different code shape from the engine stack.
ReferenceResult reference_run(const wp::Protocol& protocol, const wm::WakePattern& pattern,
                              wm::Slot budget, wm::FeedbackModel fb) {
  ReferenceResult result;
  if (pattern.empty()) return result;

  std::map<wm::StationId, std::unique_ptr<wp::StationRuntime>> runtimes;
  std::map<wm::StationId, wm::Slot> wakes;
  wm::Slot s = pattern.arrivals().front().wake;
  for (const auto& a : pattern.arrivals()) {
    s = std::min(s, a.wake);
    wakes[a.station] = a.wake;
  }

  for (wm::Slot t = s; t - s < budget; ++t) {
    std::vector<wm::StationId> tx;
    for (const auto& [station, wake] : wakes) {
      if (wake > t) continue;
      auto it = runtimes.find(station);
      if (it == runtimes.end()) {
        it = runtimes.emplace(station, protocol.make_runtime(station, wake)).first;
      }
      if (it->second->transmits(t)) tx.push_back(station);
    }
    const auto outcome = wm::resolve_slot(tx.size());
    for (const auto& [station, wake] : wakes) {
      if (wake <= t) runtimes.at(station)->feedback(t, wm::feedback_for(outcome, fb));
    }
    if (outcome == wm::SlotOutcome::kSuccess) {
      result.success = true;
      result.success_slot = t;
      result.winner = tx.front();
      return result;
    }
    if (outcome == wm::SlotOutcome::kSilence) ++result.silences;
    if (outcome == wm::SlotOutcome::kCollision) ++result.collisions;
  }
  return result;
}

struct CrossCase {
  std::string protocol;
  wm::patterns::Kind pattern;
  std::uint32_t n;
  std::uint32_t k;
};

class SimulatorCrossCheck : public ::testing::TestWithParam<CrossCase> {};

}  // namespace

TEST_P(SimulatorCrossCheck, MatchesReferenceModel) {
  const auto& p = GetParam();
  wp::ProtocolSpec spec;
  spec.name = p.protocol;
  spec.n = p.n;
  spec.k = p.k;
  spec.s = 0;
  spec.seed = 314;
  const auto protocol = wp::make_protocol_by_name(spec);
  const auto fb = protocol->requirements().needs_collision_detection
                      ? wm::FeedbackModel::kCollisionDetection
                      : wm::FeedbackModel::kNone;

  wu::Rng rng(wu::hash_words({p.n, p.k, static_cast<std::uint64_t>(p.pattern)}));
  const auto pattern = wm::patterns::generate(p.pattern, p.n, p.k, 0, rng);

  const wm::Slot budget = ws::auto_slot_budget(p.n, p.k);
  ws::SimConfig config;
  config.max_slots = budget;
  config.feedback = fb;
  const auto fast = ws::Run({.protocol = protocol.get(), .pattern = &pattern, .sim = config}).sim;
  const auto reference = reference_run(*protocol, pattern, budget, fb);

  ASSERT_EQ(fast.success, reference.success);
  if (fast.success) {
    EXPECT_EQ(fast.success_slot, reference.success_slot);
    EXPECT_EQ(fast.winner, reference.winner);
    EXPECT_EQ(fast.silences, reference.silences);
    EXPECT_EQ(fast.collisions, reference.collisions);
  }
}

namespace {

std::vector<CrossCase> cross_cases() {
  std::vector<CrossCase> cases;
  for (const auto& protocol :
       {"round_robin", "wakeup_with_s", "wakeup_with_k", "wakeup_matrix", "rpd_n",
        "local_doubling", "binary_backoff", "tree_splitting"}) {
    for (const auto kind :
         {wm::patterns::Kind::kSimultaneous, wm::patterns::Kind::kStaggered,
          wm::patterns::Kind::kPoisson}) {
      cases.push_back({protocol, kind, 64, 8});
    }
  }
  cases.push_back({"wakeup_matrix", wm::patterns::Kind::kUniform, 128, 32});
  cases.push_back({"round_robin", wm::patterns::Kind::kUniform, 32, 32});
  return cases;
}

std::string cross_name(const ::testing::TestParamInfo<CrossCase>& info) {
  return info.param.protocol + "_" + wm::patterns::kind_name(info.param.pattern) + "_" +
         std::to_string(info.index);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Grid, SimulatorCrossCheck, ::testing::ValuesIn(cross_cases()),
                         cross_name);

// -- C channels ---------------------------------------------------------------

namespace {

struct McReferenceResult {
  bool success = false;
  wm::Slot success_slot = -1;
  std::int32_t success_channel = -1;
  wm::StationId winner = 0;
  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;
  std::uint64_t successes = 0;
};

/// Naive C-channel semantics: every awake station acts every slot, each
/// channel resolves on its own transmitter list, every channel-slot is
/// counted, each station hears the channel it acted on, and the first slot
/// with a solo on any channel wins — on the lowest such channel.
McReferenceResult reference_mc_run(const wp::McProtocol& protocol,
                                   const wm::WakePattern& pattern, wm::Slot budget) {
  McReferenceResult result;
  if (pattern.empty()) return result;

  std::map<wm::StationId, std::unique_ptr<wp::McStationRuntime>> runtimes;
  std::map<wm::StationId, wm::Slot> wakes;
  wm::Slot s = pattern.arrivals().front().wake;
  for (const auto& a : pattern.arrivals()) {
    s = std::min(s, a.wake);
    wakes[a.station] = a.wake;
  }

  const std::uint32_t channels = protocol.channels();
  for (wm::Slot t = s; t - s < budget; ++t) {
    std::map<wm::StationId, wm::ChannelAction> acted;
    std::vector<std::vector<wm::StationId>> on_channel(channels);
    for (const auto& [station, wake] : wakes) {
      if (wake > t) continue;
      auto it = runtimes.find(station);
      if (it == runtimes.end()) {
        it = runtimes.emplace(station, protocol.make_runtime(station, wake)).first;
      }
      const wm::ChannelAction a = it->second->act(t);
      acted[station] = a;
      if (a.transmit) on_channel.at(a.channel).push_back(station);
    }
    std::vector<wm::SlotOutcome> outcome(channels);
    for (std::uint32_t c = 0; c < channels; ++c) {
      outcome[c] = wm::resolve_slot(on_channel[c].size());
      if (outcome[c] == wm::SlotOutcome::kSilence) ++result.silences;
      if (outcome[c] == wm::SlotOutcome::kCollision) ++result.collisions;
      if (outcome[c] == wm::SlotOutcome::kSuccess) ++result.successes;
    }
    for (const auto& [station, a] : acted) {
      runtimes.at(station)->feedback(
          t, wm::feedback_for(outcome.at(a.channel), wm::FeedbackModel::kNone));
    }
    for (std::uint32_t c = 0; c < channels; ++c) {
      if (outcome[c] != wm::SlotOutcome::kSuccess) continue;
      result.success = true;
      result.success_slot = t;
      result.success_channel = static_cast<std::int32_t>(c);
      result.winner = on_channel[c].front();
      return result;
    }
  }
  return result;
}

void expect_matches_reference(const wp::McProtocol& protocol, const wm::WakePattern& pattern,
                              wm::Slot budget, const std::string& label) {
  const McReferenceResult reference = reference_mc_run(protocol, pattern, budget);
  for (const auto engine : {ws::Engine::kInterpreter, ws::Engine::kAuto}) {
    const ws::SimResult fast =
        ws::Run({.mc_protocol = &protocol,
                 .pattern = &pattern,
                 .sim = {.max_slots = budget, .engine = engine}})
            .sim;
    const std::string where = label + (engine == ws::Engine::kAuto ? " auto" : " interpreter");
    ASSERT_EQ(fast.success, reference.success) << where;
    EXPECT_EQ(fast.success_slot, reference.success_slot) << where;
    EXPECT_EQ(fast.success_channel, reference.success_channel) << where;
    EXPECT_EQ(fast.winner, reference.winner) << where;
    EXPECT_EQ(fast.silences, reference.silences) << where;
    EXPECT_EQ(fast.collisions, reference.collisions) << where;
    EXPECT_EQ(fast.successes, reference.successes) << where;
  }
}

}  // namespace

TEST(McReferenceModel, MatchesStrategiesOnEveryEngine) {
  const std::uint32_t n = 64, k = 8;
  std::vector<std::pair<std::string, wp::McProtocolPtr>> strategies;
  for (const std::uint32_t c : {1u, 3u, 4u}) {
    strategies.emplace_back("striped_rr/C=" + std::to_string(c),
                            wp::make_striped_round_robin(n, c));
  }
  for (const std::uint32_t c : {2u, 4u}) {
    strategies.emplace_back(
        "group_wag/C=" + std::to_string(c),
        wp::make_group_wait_and_go(n, k, c, wakeup::comb::FamilyKind::kRandomized, 314));
    strategies.emplace_back("random_rpd/C=" + std::to_string(c),
                            wp::make_random_channel_rpd(n, c, 314));
  }
  wp::ProtocolSpec inner;
  inner.name = "wakeup_with_k";
  inner.n = n;
  inner.k = k;
  inner.seed = 314;
  strategies.emplace_back("adapter(wakeup_with_k)/C=3",
                          wp::make_single_channel_adapter(wp::make_protocol_by_name(inner), 3));

  for (const auto kind : {wm::patterns::Kind::kSimultaneous, wm::patterns::Kind::kStaggered,
                          wm::patterns::Kind::kPoisson}) {
    wu::Rng rng(wu::hash_words({n, k, static_cast<std::uint64_t>(kind)}));
    const auto pattern = wm::patterns::generate(kind, n, k, 0, rng);
    for (const auto& [label, protocol] : strategies) {
      expect_matches_reference(*protocol, pattern, ws::auto_slot_budget(n, k),
                               label + " " + wm::patterns::kind_name(kind));
    }
  }
}

TEST(McReferenceModel, ResolvesPerChannel) {
  // Stations 0 and 1 collide on channel 0, station 2 is alone on channel 1,
  // station 3 listens on channel 2: channel 1 carries the solo.
  const wakeup::test::FixedActionProtocol protocol(
      3, {{true, 0}, {true, 0}, {true, 1}, {false, 2}});
  const wm::WakePattern pattern(4, {{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  const McReferenceResult reference = reference_mc_run(protocol, pattern, 8);
  ASSERT_TRUE(reference.success);
  EXPECT_EQ(reference.success_channel, 1);
  EXPECT_EQ(reference.winner, 2u);
  EXPECT_EQ(reference.collisions, 1u);
  EXPECT_EQ(reference.silences, 1u);
  EXPECT_EQ(reference.successes, 1u);
  expect_matches_reference(protocol, pattern, 8, "resolves_per_channel");
  // Each station hears the channel it acted on: only the solo transmitter
  // heard a success.
  EXPECT_EQ(protocol.last_heard(0), wm::ChannelFeedback::kNothing);
  EXPECT_EQ(protocol.last_heard(1), wm::ChannelFeedback::kNothing);
  EXPECT_EQ(protocol.last_heard(2), wm::ChannelFeedback::kSuccess);
  EXPECT_EQ(protocol.last_heard(3), wm::ChannelFeedback::kNothing);
}

TEST(McReferenceModel, NoSuccess) {
  // Both stations transmit on channel 0 forever: every slot collides there
  // and stays silent on channel 1 until the budget runs out.
  const wakeup::test::FixedActionProtocol protocol(2, {{true, 0}, {true, 0}});
  const wm::WakePattern pattern(2, {{0, 0}, {1, 0}});
  const McReferenceResult reference = reference_mc_run(protocol, pattern, 8);
  EXPECT_FALSE(reference.success);
  EXPECT_EQ(reference.success_channel, -1);
  EXPECT_EQ(reference.collisions, 8u);
  EXPECT_EQ(reference.silences, 8u);
  expect_matches_reference(protocol, pattern, 8, "no_success");
}
