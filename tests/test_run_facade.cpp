/// The sim::Run facade: spec validation, single-run/cell outcome shapes,
/// engine forcing, the streaming per-trial CSV sink, the adaptive warm-up
/// override (SimConfig::warmup_slots) staying bit-identical, the default
/// shared-pool dispatch, and the cell semantics (seed contract, per-trial
/// sinks, failure counting) formerly pinned through the deleted
/// run_cell/run_cell_batched wrappers.

#include "sim/run.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/rpd.hpp"
#include "sim/results_sink.hpp"
#include "util/rng.hpp"

namespace ws = wakeup::sim;
namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace wu = wakeup::util;

namespace {

ws::RunSpec basic_cell(std::uint32_t n, std::uint32_t k, std::uint64_t trials) {
  ws::RunSpec spec;
  spec.make_protocol = [n](std::uint64_t) -> wp::ProtocolPtr {
    return std::make_shared<wp::RoundRobinProtocol>(n);
  };
  spec.make_pattern = [n, k](wu::Rng& rng) { return wm::patterns::simultaneous(n, k, 0, rng); };
  spec.trials = trials;
  spec.base_seed = 42;
  return spec;
}

}  // namespace

TEST(RunFacade, RunsAllTrials) {
  const auto result = ws::Run(basic_cell(32, 4, 20)).cell;
  EXPECT_EQ(result.trials, 20u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.rounds.count, 20u);
  EXPECT_LE(result.rounds.max, 32.0);
}

TEST(RunFacade, DeterministicAcrossPoolChoices) {
  // Inline (0-worker pool), the default shared pool (pool == nullptr), and
  // an explicit multi-worker pool must agree bitwise — the seed contract
  // keys randomness by trial index, never by thread.
  wu::ThreadPool inline_pool(0);
  const auto inline_result = ws::Run(basic_cell(64, 8, 32), &inline_pool).cell;
  const auto shared_result = ws::Run(basic_cell(64, 8, 32)).cell;
  wu::ThreadPool pool4(4);
  const auto pool4_result = ws::Run(basic_cell(64, 8, 32), &pool4).cell;
  EXPECT_DOUBLE_EQ(inline_result.rounds.mean, shared_result.rounds.mean);
  EXPECT_DOUBLE_EQ(inline_result.rounds.mean, pool4_result.rounds.mean);
  EXPECT_DOUBLE_EQ(inline_result.rounds.median, shared_result.rounds.median);
  EXPECT_DOUBLE_EQ(inline_result.rounds.max, pool4_result.rounds.max);
  EXPECT_EQ(inline_result.failures, shared_result.failures);
}

TEST(RunFacade, CellTagChangesTrialStreams) {
  auto a = basic_cell(64, 8, 16);
  auto b = basic_cell(64, 8, 16);
  b.cell_tag = 1;
  const auto ra = ws::Run(a).cell;
  const auto rb = ws::Run(b).cell;
  // Different tags -> different patterns -> (almost surely) different stats.
  EXPECT_NE(ra.rounds.mean, rb.rounds.mean);
}

TEST(RunFacade, FailuresCounted) {
  auto spec = basic_cell(64, 4, 10);
  spec.sim.max_slots = 1;  // nothing succeeds in one slot unless id matches slot 0
  const auto result = ws::Run(spec).cell;
  EXPECT_EQ(result.failures + result.rounds.count, 10u);
  EXPECT_GT(result.failures, 0u);
}

TEST(RunFacade, DeterministicProtocolConstructedOncePerCell) {
  // The trial-batch seed contract: the cell-level seed derives the
  // protocol, so the factory runs exactly once however many trials run.
  std::size_t constructions = 0;
  ws::RunSpec spec;
  spec.make_protocol = [&constructions](std::uint64_t) -> wp::ProtocolPtr {
    ++constructions;
    return std::make_shared<wp::RoundRobinProtocol>(32);
  };
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(32, 4, 0, rng); };
  spec.trials = 16;
  wu::ThreadPool inline_pool(0);  // construction counting: no worker races
  const auto result = ws::Run(spec, &inline_pool).cell;
  EXPECT_EQ(result.trials, 16u);
  EXPECT_EQ(constructions, 1u);
}

TEST(RunFacade, CellSeedIsTrialIndependent) {
  // The seed handed to the factory must not depend on any trial: two cells
  // differing only in trial count get the same protocol seed.
  std::vector<std::uint64_t> seeds;
  auto run_with_trials = [&](std::uint64_t trials) {
    ws::RunSpec spec;
    spec.make_protocol = [&seeds](std::uint64_t seed) -> wp::ProtocolPtr {
      seeds.push_back(seed);
      return std::make_shared<wp::RoundRobinProtocol>(32);
    };
    spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(32, 4, 0, rng); };
    spec.trials = trials;
    wu::ThreadPool inline_pool(0);
    (void)ws::Run(spec, &inline_pool);
  };
  run_with_trials(4);
  run_with_trials(12);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], seeds[1]);
}

TEST(RunFacade, PerTrialSinkSeesEveryTrialOnce) {
  auto spec = basic_cell(64, 8, 20);
  std::vector<int> seen(20, 0);
  std::vector<ws::SimResult> results(20);
  spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
    ++seen[i];
    results[i] = r;
  };
  const auto agg = ws::Run(spec).cell;
  for (int c : seen) EXPECT_EQ(c, 1);
  std::uint64_t successes = 0;
  for (const auto& r : results) successes += r.success ? 1 : 0;
  EXPECT_EQ(successes, agg.trials - agg.failures);
}

TEST(RunFacade, RandomizedProtocolSeedsVaryPerTrial) {
  ws::RunSpec spec;
  spec.make_protocol = [](std::uint64_t seed) -> wp::ProtocolPtr {
    return wp::RpdProtocol::for_n(64, seed);
  };
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(64, 8, 0, rng); };
  spec.trials = 24;
  const auto result = ws::Run(spec).cell;
  EXPECT_EQ(result.failures, 0u);
  // With varying coins the rounds should not all be identical.
  EXPECT_GT(result.rounds.max, result.rounds.min);
}

TEST(RunFacade, NestedRunInsideAPoolWorkerStaysInline) {
  // A Run issued from inside a pool task must not queue on the same pool
  // (deadlock risk with few workers) — it detects the worker context and
  // runs inline.  One worker makes any deadlock deterministic.
  wu::ThreadPool pool(1);
  ws::CellResult inner_result;
  pool.parallel_for(0, 1, [&](std::size_t) {
    inner_result = ws::Run(basic_cell(32, 4, 8)).cell;
  });
  const auto reference = ws::Run(basic_cell(32, 4, 8)).cell;
  EXPECT_EQ(inner_result.trials, 8u);
  EXPECT_DOUBLE_EQ(inner_result.rounds.mean, reference.rounds.mean);
}

TEST(RunFacade, RejectsAmbiguousSpecs) {
  const wp::RoundRobinProtocol rr(8);
  const wm::WakePattern pattern(8, {{1, 0}});
  // No protocol source.
  EXPECT_THROW((void)ws::Run({.pattern = &pattern}), std::invalid_argument);
  // Two protocol sources.
  ws::RunSpec two;
  two.protocol = &rr;
  two.make_protocol = [](std::uint64_t) -> wp::ProtocolPtr { return nullptr; };
  two.pattern = &pattern;
  EXPECT_THROW((void)ws::Run(two), std::invalid_argument);
  // No pattern source.
  EXPECT_THROW((void)ws::Run({.protocol = &rr}), std::invalid_argument);
  // Multichannel model rejects single-channel-only features.
  const auto mc = wp::make_striped_round_robin(8, 2);
  EXPECT_THROW((void)ws::Run({.mc_protocol = mc.get(),
                              .pattern = &pattern,
                              .sim = {.full_resolution = true}}),
               std::invalid_argument);
  EXPECT_THROW((void)ws::Run({.mc_protocol = mc.get(),
                              .pattern = &pattern,
                              .sim = {.record_trace = true}}),
               std::invalid_argument);
}

TEST(RunFacade, SingleRunFillsBothSimAndCell) {
  const wp::RoundRobinProtocol rr(8);
  const wm::WakePattern pattern(8, {{2, 11}});
  const auto out = ws::Run({.protocol = &rr, .pattern = &pattern});
  ASSERT_TRUE(out.sim.success);
  EXPECT_EQ(out.sim.success_slot, 18);
  EXPECT_EQ(out.sim.success_channel, -1) << "single-channel runs name no channel";
  EXPECT_EQ(out.cell.trials, 1u);
  EXPECT_EQ(out.cell.failures, 0u);
  EXPECT_DOUBLE_EQ(out.cell.rounds.mean, static_cast<double>(out.sim.rounds));
}

TEST(RunFacade, SingleMcRunFillsSim) {
  const auto mc = wp::make_striped_round_robin(16, 4);
  const wm::WakePattern pattern(16, {{5, 0}});
  const auto out = ws::Run({.mc_protocol = mc.get(), .pattern = &pattern});
  ASSERT_TRUE(out.sim.success);
  EXPECT_EQ(out.sim.success_channel, static_cast<std::int32_t>(5 % 4));
  EXPECT_EQ(out.cell.trials, 1u);
}

TEST(RunFacade, McCellAggregatesTrials) {
  const auto mc = wp::make_group_wait_and_go(128, 16, 4,
                                             wakeup::comb::FamilyKind::kRandomized, 11);
  ws::RunSpec spec;
  spec.mc_protocol = mc.get();
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(128, 16, 0, rng); };
  spec.trials = 12;
  std::vector<int> seen(12, 0);
  spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
    ++seen[i];
    EXPECT_TRUE(r.success);
  };
  const auto out = ws::Run(spec, nullptr);
  EXPECT_EQ(out.cell.trials, 12u);
  EXPECT_EQ(out.cell.failures, 0u);
  EXPECT_EQ(out.cell.rounds.count, 12u);
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(RunFacade, McCellDeterministicAcrossThreadCounts) {
  const auto build = [] {
    ws::RunSpec spec;
    spec.make_mc_protocol = [](std::uint64_t seed) {
      return wp::make_group_wait_and_go(128, 16, 4, wakeup::comb::FamilyKind::kRandomized,
                                        seed);
    };
    spec.make_pattern = [](wu::Rng& rng) {
      return wm::patterns::simultaneous(128, 16, 0, rng);
    };
    spec.trials = 16;
    spec.base_seed = 9;
    return spec;
  };
  const auto inline_result = ws::Run(build(), nullptr).cell;
  wu::ThreadPool pool(4);
  const auto pooled = ws::Run(build(), &pool).cell;
  EXPECT_DOUBLE_EQ(inline_result.rounds.mean, pooled.rounds.mean);
  EXPECT_DOUBLE_EQ(inline_result.silences.mean, pooled.silences.mean);
  EXPECT_EQ(inline_result.failures, pooled.failures);
}

TEST(RunFacade, FixedPatternIsReusedAcrossTrials) {
  // A deterministic protocol against a fixed pattern: every trial is the
  // same run, so the aggregate has zero spread.
  const wp::RoundRobinProtocol rr(32);
  const wm::WakePattern pattern(32, {{7, 0}, {20, 0}});
  const auto out = ws::Run({.protocol = &rr, .pattern = &pattern, .trials = 6});
  EXPECT_EQ(out.cell.rounds.count, 6u);
  EXPECT_DOUBLE_EQ(out.cell.rounds.min, out.cell.rounds.max);
}

TEST(RunFacade, WarmupOverrideIsBitIdentical) {
  // SimConfig::warmup_slots moves the interpreted prefix of the kAuto
  // hybrid; results must not move with it.
  wp::ProtocolSpec pspec;
  pspec.name = "wait_and_go";
  pspec.n = 96;
  pspec.k = 8;
  pspec.seed = 20130522;
  const auto protocol = wp::make_protocol_by_name(pspec);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    wu::Rng rng(wu::hash_words({0x57524d55ULL /* "WRMU" */, trial}));
    const auto pattern = wm::patterns::uniform_window(96, 8, 3, 48, rng);
    ws::SimConfig interp;
    interp.engine = ws::Engine::kInterpreter;
    const auto reference =
        ws::Run({.protocol = protocol.get(), .pattern = &pattern, .sim = interp}).sim;
    for (const wm::Slot warmup : {0, 1, 63, 64, 65, 128, 256}) {
      ws::SimConfig hybrid;
      hybrid.warmup_slots = warmup;
      const auto got =
          ws::Run({.protocol = protocol.get(), .pattern = &pattern, .sim = hybrid}).sim;
      EXPECT_EQ(reference.success, got.success) << warmup;
      EXPECT_EQ(reference.success_slot, got.success_slot) << warmup;
      EXPECT_EQ(reference.winner, got.winner) << warmup;
      EXPECT_EQ(reference.silences, got.silences) << warmup;
      EXPECT_EQ(reference.collisions, got.collisions) << warmup;
      EXPECT_EQ(reference.successes, got.successes) << warmup;
    }
  }
}

TEST(RunFacade, StreamingTrialCsvWritesOneRowPerTrial) {
  const std::string path = ::testing::TempDir() + "run_facade_trials.csv";
  std::vector<ws::SimResult> results(40);
  {
    ws::TrialCsvSink sink(path);
    auto spec = basic_cell(64, 8, 40);
    spec.trial_csv = &sink;
    spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { results[i] = r; };
    wu::ThreadPool pool(4);
    const auto out = ws::Run(spec, &pool);
    EXPECT_EQ(out.cell.trials, 40u);
    EXPECT_EQ(sink.rows(), 40u);
  }
  // Parse back: every trial appears exactly once with its own counters.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("trial,success,", 0), 0u) << line;
  std::vector<int> seen(40, 0);
  while (std::getline(in, line)) {
    std::stringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 10u) << line;
    const auto trial = static_cast<std::size_t>(std::stoull(fields[0]));
    ASSERT_LT(trial, 40u);
    ++seen[trial];
    const auto& r = results[trial];
    EXPECT_EQ(fields[1], r.success ? "1" : "0");
    EXPECT_EQ(std::stoll(fields[4]), r.rounds);
    EXPECT_EQ(fields[6], "-1") << "single-channel rows carry channel -1";
    EXPECT_EQ(std::stoull(fields[7]), r.silences);
    EXPECT_EQ(std::stoull(fields[9]), r.successes);
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
  std::remove(path.c_str());
}

TEST(RunFacade, McStreamingCsvRecordsChannel) {
  // Native striped round-robin names each trial's winning lane; an adapter
  // (single-channel engine stack) wins on channel 0, its embedding.
  const std::vector<std::pair<const char*, wp::McProtocolPtr>> cells = {
      {"striped_rr", wp::make_striped_round_robin(64, 4)},
      {"adapter", wp::make_single_channel_adapter(std::make_shared<wp::RoundRobinProtocol>(64),
                                                  4)}};
  for (const auto& [label, mc] : cells) {
    const std::string path = ::testing::TempDir() + "run_facade_mc_trials.csv";
    {
      ws::TrialCsvSink sink(path);
      ws::RunSpec spec;
      spec.mc_protocol = mc.get();
      spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(64, 4, 0, rng); };
      spec.trials = 8;
      spec.trial_csv = &sink;
      (void)ws::Run(spec, nullptr);
      EXPECT_EQ(sink.rows(), 8u) << label;
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));  // header
    std::size_t rows = 0;
    while (std::getline(in, line)) {
      std::stringstream row(line);
      std::string field;
      std::vector<std::string> fields;
      while (std::getline(row, field, ',')) fields.push_back(field);
      ASSERT_EQ(fields.size(), 10u) << label;
      ASSERT_EQ(fields[1], "1") << label << ": " << line;
      if (std::string(label) == "adapter") {
        EXPECT_EQ(fields[6], "0") << "adapter rows win on channel 0: " << line;
      } else {
        EXPECT_NE(std::stoi(fields[6]), -1) << "mc rows carry the winning channel";
      }
      ++rows;
    }
    EXPECT_EQ(rows, 8u) << label;
    std::remove(path.c_str());
  }
}

TEST(RunFacade, McRunsAccountNoEnergy) {
  // The C-channel model accounts no energy on any engine path — the
  // energy columns of multichannel-scaling reports stay empty.
  struct Cell {
    const char* label;
    wp::McProtocolPtr protocol;
    ws::Engine engine;
    ws::TrialBatching batching;
  };
  const std::vector<Cell> cells = {
      {"adapter(round_robin) C=4",
       wp::make_single_channel_adapter(std::make_shared<wp::RoundRobinProtocol>(64), 4),
       ws::Engine::kAuto, ws::TrialBatching::kAuto},
      {"striped_rr batch", wp::make_striped_round_robin(64, 4), ws::Engine::kAuto,
       ws::TrialBatching::kForce},
      {"striped_rr interpreter", wp::make_striped_round_robin(64, 4),
       ws::Engine::kInterpreter, ws::TrialBatching::kAuto},
  };
  for (const Cell& cell : cells) {
    ws::RunSpec spec;
    spec.mc_protocol = cell.protocol.get();
    spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(64, 8, 0, rng); };
    spec.trials = 12;
    spec.sim.engine = cell.engine;
    spec.sim.energy = ws::EnergyModel::kListenAll;
    spec.batching = cell.batching;
    std::vector<std::size_t> energy_sizes(spec.trials, 1);
    spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
      energy_sizes[i] = r.station_energy.size() + r.station_transmits.size();
    };
    const auto out = ws::Run(spec, nullptr);
    EXPECT_EQ(out.cell.failures, 0u) << cell.label;
    for (const std::size_t size : energy_sizes) EXPECT_EQ(size, 0u) << cell.label;
    EXPECT_EQ(out.cell.energy_mean.count, 0u) << cell.label;
    EXPECT_EQ(out.cell.energy_max.count, 0u) << cell.label;
  }
}

TEST(RunFacade, ForcedBatchingServesTheCacheEvenForTinyCells) {
  // kForce promises the memo is populated AND served; with trials <= the
  // probe count that means shrinking the probes, not skipping the cache.
  ws::RunSpec spec;
  spec.make_protocol = [](std::uint64_t seed) {
    wp::ProtocolSpec p;
    p.name = "wait_and_go";
    p.n = 96;
    p.k = 8;
    p.seed = seed;
    return wp::make_protocol_by_name(p);
  };
  spec.make_pattern = [](wu::Rng& rng) {
    return wm::patterns::uniform_window(96, 8, 0, 48, rng);
  };
  spec.base_seed = 20130522;
  for (const std::uint64_t trials : {1u, 4u}) {
    spec.trials = trials;
    std::vector<ws::SimResult> off(trials), forced(trials);
    auto off_spec = spec;
    off_spec.batching = ws::TrialBatching::kOff;
    off_spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { off[i] = r; };
    (void)ws::Run(off_spec, nullptr);
    auto force_spec = spec;
    force_spec.batching = ws::TrialBatching::kForce;
    force_spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { forced[i] = r; };
    (void)ws::Run(force_spec, nullptr);
    for (std::uint64_t i = 0; i < trials; ++i) {
      EXPECT_EQ(off[i].success_slot, forced[i].success_slot) << trials << "/" << i;
      EXPECT_EQ(off[i].silences, forced[i].silences) << trials << "/" << i;
      EXPECT_EQ(off[i].collisions, forced[i].collisions) << trials << "/" << i;
    }
  }
}

TEST(RunFacade, RandomizedMcProtocolsRebuildPerTrial) {
  // random_rpd with a builder: per-trial coin streams, so rounds vary.
  ws::RunSpec spec;
  spec.make_mc_protocol = [](std::uint64_t seed) {
    return wp::make_random_channel_rpd(128, 4, seed);
  };
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(128, 16, 0, rng); };
  spec.trials = 16;
  // Trials rebuild on the shared pool's workers, so the count is atomic.
  std::atomic<std::size_t> builds{0};
  auto counting = spec;
  counting.make_mc_protocol = [&builds](std::uint64_t seed) {
    ++builds;
    return wp::make_random_channel_rpd(128, 4, seed);
  };
  const auto out = ws::Run(counting, nullptr);
  EXPECT_EQ(out.cell.failures, 0u);
  // One cell-level construction plus one rebuild per trial.
  EXPECT_EQ(builds.load(), 1u + 16u);
  EXPECT_GT(out.cell.rounds.max, out.cell.rounds.min);
}
