/// The sim::Run facade: spec validation, single-run/cell outcome shapes,
/// engine forcing, the streaming per-trial CSV sink, the adaptive warm-up
/// override (SimConfig::warmup_slots) staying bit-identical, the default
/// shared-pool dispatch, and the cell semantics (seed contract, per-trial
/// sinks, failure counting) formerly pinned through the deleted
/// run_cell/run_cell_batched wrappers.

#include "sim/run.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/aggregator.hpp"
#include "obs/metrics.hpp"
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
namespace obs = wakeup::obs;

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
  const auto result = ws::Run(basic_cell(32, 4, 20)).cell();
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
  const auto inline_result = ws::Run(basic_cell(64, 8, 32), &inline_pool).cell();
  const auto shared_result = ws::Run(basic_cell(64, 8, 32)).cell();
  wu::ThreadPool pool4(4);
  const auto pool4_result = ws::Run(basic_cell(64, 8, 32), &pool4).cell();
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
  const auto ra = ws::Run(a).cell();
  const auto rb = ws::Run(b).cell();
  // Different tags -> different patterns -> (almost surely) different stats.
  EXPECT_NE(ra.rounds.mean, rb.rounds.mean);
}

TEST(RunFacade, FailuresCounted) {
  auto spec = basic_cell(64, 4, 10);
  spec.sim.max_slots = 1;  // nothing succeeds in one slot unless id matches slot 0
  const auto result = ws::Run(spec).cell();
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
  const auto result = ws::Run(spec, &inline_pool).cell();
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
  const auto agg = ws::Run(spec).cell();
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
  const auto result = ws::Run(spec).cell();
  EXPECT_EQ(result.failures, 0u);
  // With varying coins the rounds should not all be identical.
  EXPECT_GT(result.rounds.max, result.rounds.min);
}

TEST(RunFacade, NestedRunOnTheSamePoolCompletes) {
  // A Run issued from inside a pool task dispatches on that same pool.
  // Each trial sleeps 200 us in its pattern builder, so the timed trial 0
  // pays for a wake-up and the nested Run fans the other trials out.  With
  // one worker, a nested call that waited for its own queue would
  // deadlock, so completion proves it cannot; the result must still equal
  // the inline reference.
  ws::RunSpec slow = basic_cell(32, 4, 8);
  slow.make_pattern = [inner = slow.make_pattern](wu::Rng& rng) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return inner(rng);
  };
  wu::ThreadPool pool(1);
  ws::CellStats inner_result;
  obs::reset();
  obs::set_enabled(true);
  pool.parallel_for(0, 2, [&](std::size_t i) {
    if (i == 1) inner_result = ws::Run(slow, &pool).cell();
  }, /*chunk=*/1);
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::snapshot();
  obs::reset();
  wu::ThreadPool inline_pool(0);
  const auto reference = ws::Run(basic_cell(32, 4, 8), &inline_pool).cell();
  EXPECT_EQ(inner_result.trials, 8u);
  EXPECT_DOUBLE_EQ(inner_result.rounds.mean, reference.rounds.mean);
  EXPECT_DOUBLE_EQ(inner_result.rounds.max, reference.rounds.max);
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(snap, "sim.runs_fanned"), 1u);
    EXPECT_EQ(obs::snapshot_value(snap, "sim.runs_inline"), 0u);
  }
}

TEST(RunFacade, FinalizeTimeLandsInThePhaseHistogramOnlyWhileObserving) {
  // RunOutcome::cell times its finalize into "phase.finalize_us" only
  // while obs is active, and the statistics are the same either way.
  const auto out = ws::Run(basic_cell(32, 4, 12));
  const auto finalizes = [] {
    const obs::Snapshot snap = obs::snapshot();
    const auto it = snap.find("phase.finalize_us");
    return it == snap.end() ? std::uint64_t{0} : it->second.count;
  };
  obs::reset();
  const ws::CellStats off = out.cell(200);
  EXPECT_EQ(finalizes(), 0u);
  obs::set_enabled(true);
  const ws::CellStats on = out.cell(200);
  obs::set_enabled(false);
  EXPECT_EQ(finalizes(), obs::kCompiled ? 1u : 0u);
  obs::reset();
  EXPECT_EQ(on.mean_ci.lo, off.mean_ci.lo);
  EXPECT_EQ(on.mean_ci.hi, off.mean_ci.hi);
  EXPECT_EQ(on.median_ci.lo, off.median_ci.lo);
  EXPECT_EQ(on.median_ci.hi, off.median_ci.hi);
  EXPECT_EQ(on.energy_mean_ci.lo, off.energy_mean_ci.lo);
  EXPECT_EQ(on.energy_mean_ci.hi, off.energy_mean_ci.hi);
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
  const auto cell = out.cell();
  EXPECT_EQ(cell.trials, 1u);
  EXPECT_EQ(cell.failures, 0u);
  EXPECT_DOUBLE_EQ(cell.rounds.mean, static_cast<double>(out.sim.rounds));
}

TEST(RunFacade, SingleMcRunFillsSim) {
  const auto mc = wp::make_striped_round_robin(16, 4);
  const wm::WakePattern pattern(16, {{5, 0}});
  const auto out = ws::Run({.mc_protocol = mc.get(), .pattern = &pattern});
  ASSERT_TRUE(out.sim.success);
  EXPECT_EQ(out.sim.success_channel, static_cast<std::int32_t>(5 % 4));
  EXPECT_EQ(out.cell().trials, 1u);
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
  const auto cell = out.cell();
  EXPECT_EQ(cell.trials, 12u);
  EXPECT_EQ(cell.failures, 0u);
  EXPECT_EQ(cell.rounds.count, 12u);
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
  const auto inline_result = ws::Run(build(), nullptr).cell();
  wu::ThreadPool pool(4);
  const auto pooled = ws::Run(build(), &pool).cell();
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
  const auto cell = out.cell();
  EXPECT_EQ(cell.rounds.count, 6u);
  EXPECT_DOUBLE_EQ(cell.rounds.min, cell.rounds.max);
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
    EXPECT_EQ(out.cell().trials, 40u);
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
  };
  const std::vector<Cell> cells = {
      {"adapter(round_robin) C=4",
       wp::make_single_channel_adapter(std::make_shared<wp::RoundRobinProtocol>(64), 4),
       ws::Engine::kAuto},
      {"striped_rr batch", wp::make_striped_round_robin(64, 4), ws::Engine::kAuto},
      {"striped_rr interpreter", wp::make_striped_round_robin(64, 4),
       ws::Engine::kInterpreter},
  };
  for (const Cell& cell : cells) {
    ws::RunSpec spec;
    spec.mc_protocol = cell.protocol.get();
    spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(64, 8, 0, rng); };
    spec.trials = 12;
    spec.sim.engine = cell.engine;
    spec.sim.energy = ws::EnergyModel::kListenAll;
    std::vector<std::size_t> energy_sizes(spec.trials, 1);
    spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
      energy_sizes[i] = r.station_energy.size() + r.station_transmits.size();
    };
    const auto out = ws::Run(spec, nullptr);
    const auto stats = out.cell();
    EXPECT_EQ(stats.failures, 0u) << cell.label;
    for (const std::size_t size : energy_sizes) EXPECT_EQ(size, 0u) << cell.label;
    EXPECT_EQ(stats.energy_mean.count, 0u) << cell.label;
    EXPECT_EQ(stats.energy_max.count, 0u) << cell.label;
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
  const auto cell = out.cell();
  EXPECT_EQ(cell.failures, 0u);
  // One cell-level construction plus one rebuild per trial.
  EXPECT_EQ(builds.load(), 1u + 16u);
  EXPECT_GT(cell.rounds.max, cell.rounds.min);
}

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const wu::Summary& a, const wu::Summary& b, const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(bits(a.mean), bits(b.mean)) << what;
  EXPECT_EQ(bits(a.stddev), bits(b.stddev)) << what;
  EXPECT_EQ(bits(a.min), bits(b.min)) << what;
  EXPECT_EQ(bits(a.median), bits(b.median)) << what;
  EXPECT_EQ(bits(a.p95), bits(b.p95)) << what;
  EXPECT_EQ(bits(a.p99), bits(b.p99)) << what;
  EXPECT_EQ(bits(a.max), bits(b.max)) << what;
}

void expect_same(const wu::BootstrapCI& a, const wu::BootstrapCI& b, const std::string& what) {
  EXPECT_EQ(bits(a.mean), bits(b.mean)) << what;
  EXPECT_EQ(bits(a.lo), bits(b.lo)) << what;
  EXPECT_EQ(bits(a.hi), bits(b.hi)) << what;
  EXPECT_EQ(bits(a.level), bits(b.level)) << what;
}

void expect_same(const ws::CellStats& a, const ws::CellStats& b, const std::string& label) {
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.failures, b.failures) << label;
  EXPECT_EQ(bits(a.success_rate), bits(b.success_rate)) << label;
  expect_same(a.rounds, b.rounds, label + " rounds");
  expect_same(a.collisions, b.collisions, label + " collisions");
  expect_same(a.silences, b.silences, label + " silences");
  expect_same(a.completion, b.completion, label + " completion");
  expect_same(a.mean_ci, b.mean_ci, label + " mean_ci");
  expect_same(a.median_ci, b.median_ci, label + " median_ci");
  expect_same(a.throughput, b.throughput, label + " throughput");
  expect_same(a.jain, b.jain, label + " jain");
  expect_same(a.latency, b.latency, label + " latency");
  EXPECT_EQ(a.packet_arrivals, b.packet_arrivals) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.backlog, b.backlog) << label;
  expect_same(a.energy_mean, b.energy_mean, label + " energy_mean");
  expect_same(a.energy_max, b.energy_max, label + " energy_max");
  expect_same(a.energy_mean_ci, b.energy_mean_ci, label + " energy_mean_ci");
}

/// Runs `spec` on `pool` twice: once finalized through `Run(...).cell(200)`,
/// once through an exp::Aggregator fed by the per-trial sinks (per_trial_mc
/// for C-channel specs, the spelling the frozen benchmark replay uses) and
/// finalized with the cell's seed-contract CI stream.
void expect_cell_matches_sink_aggregator(ws::RunSpec spec, wu::ThreadPool& pool,
                                         const std::string& label) {
  constexpr std::uint64_t kResamples = 200;
  const ws::CellStats facade = ws::Run(spec, &pool).cell(kResamples);

  wakeup::exp::Aggregator aggregator(spec.trials, spec.horizon > 0);
  if (spec.horizon > 0) {
    spec.per_trial_dynamic = [&](std::uint64_t i, const ws::DynamicResult& r) {
      aggregator.add(i, r);
    };
  } else if (spec.make_mc_protocol) {
    spec.per_trial_mc = [&](std::uint64_t i, const ws::SimResult& r) { aggregator.add(i, r); };
  } else {
    spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { aggregator.add(i, r); };
  }
  (void)ws::Run(spec, &pool);
  const wakeup::exp::CellStats sinks =
      aggregator.finalize(kResamples, ws::ci_seed(spec.base_seed, spec.cell_tag));
  expect_same(facade, sinks, label);
}

}  // namespace

TEST(RunFacade, CellEqualsAggregatorFedThroughSinks) {
  // Run(...).cell(R) is the sweep's statistics: the same bits as an
  // Aggregator fed through the per-trial sinks and finalized on
  // ci_seed(base_seed, cell_tag) — for each traffic model and worker count.
  ws::RunSpec single = basic_cell(64, 8, 24);
  single.cell_tag = 3;
  single.sim.max_slots = 4;  // most trials fail: failures and success_rate move
  single.sim.energy = ws::EnergyModel::kListenAll;

  ws::RunSpec multi;
  multi.make_mc_protocol = [](std::uint64_t seed) {
    return wp::make_group_wait_and_go(128, 16, 4, wakeup::comb::FamilyKind::kRandomized, seed);
  };
  multi.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(128, 16, 0, rng); };
  multi.trials = 20;
  multi.base_seed = 5;
  multi.cell_tag = 17;

  ws::RunSpec dynamic;
  dynamic.make_protocol = [](std::uint64_t seed) {
    return wp::make_protocol_by_name({.name = "round_robin", .n = 64, .k = 8, .seed = seed});
  };
  dynamic.horizon = 512;
  dynamic.arrival = wm::ArrivalSpec::parse("poisson:0.3");
  dynamic.dynamic_n = 64;
  dynamic.dynamic_k = 8;
  dynamic.trials = 12;
  dynamic.base_seed = 11;
  dynamic.cell_tag = 29;
  dynamic.sim.energy = ws::EnergyModel::kListenAll;

  for (const std::size_t workers : {0u, 4u}) {
    wu::ThreadPool pool(workers);
    const std::string on = " on " + std::to_string(workers) + " workers";
    expect_cell_matches_sink_aggregator(single, pool, "single channel" + on);
    expect_cell_matches_sink_aggregator(multi, pool, "C channels" + on);
    expect_cell_matches_sink_aggregator(dynamic, pool, "dynamic" + on);
  }
}

TEST(RunFacade, FullResolutionCellSummarizesCompletion) {
  // completion summarizes full-resolution rounds over the successful
  // trials, which the per-trial results pin one by one.
  ws::RunSpec spec = basic_cell(64, 8, 16);
  spec.sim.full_resolution = true;
  wu::Sample completion;
  std::vector<ws::SimResult> trials(spec.trials);
  spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { trials[i] = r; };
  wu::ThreadPool pool(4);
  const ws::CellStats cell = ws::Run(spec, &pool).cell();
  for (const ws::SimResult& r : trials) {
    ASSERT_TRUE(r.success);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.completion_rounds, r.rounds);
    completion.push(static_cast<double>(r.completion_rounds));
  }
  expect_same(cell.completion, wu::Summary::of(completion), "completion");
  EXPECT_EQ(cell.completion.count, spec.trials);

  // Without full resolution the summary stays empty.
  spec.sim.full_resolution = false;
  EXPECT_EQ(ws::Run(spec, &pool).cell().completion.count, 0u);
}
