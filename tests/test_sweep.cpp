/// Sweep orchestration subsystem (src/exp/): grid expansion determinism,
/// axis grammar, validation messages, streaming aggregation vs a naive
/// reference, manifest round-trips (incl. torn tails), resume-equals-fresh
/// byte identity, cells and their trials nested on one pool, and a
/// concurrent TrialCsvSink stress.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/manifest.hpp"
#include "exp/presets.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "obs/metrics.hpp"
#include "sim/results_sink.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace we = wakeup::exp;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;
namespace obs = wakeup::obs;

namespace {

/// Small grid that still exercises several protocols/patterns: 2 x 2 x 2
/// x 1 x 1 = 8 cells, seconds-scale.
we::SweepSpec small_spec() {
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k"};
  spec.ns = {64, 128};
  spec.ks = {2, 4};
  spec.patterns = {we::PatternKind::kUniform};
  spec.trials = 6;
  spec.base_seed = 11;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("wakeup_sweep_test_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Manifest record lines (header dropped), sorted — completion order is
/// scheduling-dependent, the *set* of records is not.
std::vector<std::string> sorted_manifest_records(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

ws::SimResult trial_result(bool success, std::int64_t rounds, std::uint64_t collisions,
                           std::uint64_t silences) {
  ws::SimResult r;
  r.success = success;
  r.rounds = rounds;
  r.collisions = collisions;
  r.silences = silences;
  return r;
}

}  // namespace

// ------------------------------------------------------- grid expansion --

TEST(SweepSpec, ExpansionIsDeterministicAndStablyOrdered) {
  const auto a = we::expand(small_spec());
  const auto b = we::expand(small_spec());
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].tag_hash, b[i].tag_hash);
    EXPECT_EQ(a[i].index, i);
  }
  // Protocol-major order, then n, then k.
  EXPECT_EQ(a[0].protocol, "round_robin");
  EXPECT_EQ(a[0].n, 64u);
  EXPECT_EQ(a[0].k, 2u);
  EXPECT_EQ(a[1].k, 4u);
  EXPECT_EQ(a[2].n, 128u);
  EXPECT_EQ(a[4].protocol, "wakeup_with_k");
}

TEST(SweepSpec, CellIdentityIsIndependentOfTheRestOfTheGrid) {
  // The reproducibility contract: a cell's tag/seed depend only on its own
  // coordinates, so any subset of cells (a resumed run, a single re-run
  // cell) reproduces the full sweep bit-identically.
  auto spec = small_spec();
  const auto full = we::expand(spec);
  spec.protocols = {"wakeup_with_k"};
  spec.ns = {128};
  spec.ks = {4};
  const auto solo = we::expand(spec);
  ASSERT_EQ(solo.size(), 1u);
  const auto match = std::find_if(full.begin(), full.end(), [&](const we::Cell& cell) {
    return cell.tag == solo[0].tag;
  });
  ASSERT_NE(match, full.end());
  EXPECT_EQ(match->tag_hash, solo[0].tag_hash);
  // And the trial seeds derived from it agree with the facade's contract.
  EXPECT_EQ(ws::trial_seed(spec.base_seed, match->tag_hash, 3),
            ws::trial_seed(spec.base_seed, solo[0].tag_hash, 3));
}

TEST(SweepSpec, InfeasibleKCellsAreDropped) {
  auto spec = small_spec();
  spec.ns = {4, 64};
  spec.ks = {2, 32};
  const auto cells = we::expand(spec);
  for (const auto& cell : cells) EXPECT_LE(cell.k, cell.n);
  // 2 protocols x {(4,2),(64,2),(64,32)}.
  EXPECT_EQ(cells.size(), 6u);
}

TEST(SweepSpec, UnknownProtocolGetsAFriendlyError) {
  auto spec = small_spec();
  spec.protocols = {"round_robbin"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("round_robbin"), std::string::npos);
    EXPECT_NE(what.find("round_robin"), std::string::npos);  // the registry listing
    EXPECT_NE(what.find("wakeup_cli list"), std::string::npos);
  }
}

TEST(SweepSpec, BatchEngineOnNonObliviousProtocolRejectedUpFront) {
  auto spec = small_spec();
  spec.protocols = {"slotted_aloha"};
  spec.sim.engine = ws::Engine::kBatch;
  EXPECT_THROW((void)we::expand(spec), std::invalid_argument);
}

TEST(SweepSpec, AdversarialPatternIsSingleChannelOnly) {
  auto spec = small_spec();
  spec.patterns = {we::PatternKind::kAdversarial};
  spec.channels = {1, 4};
  EXPECT_THROW((void)we::expand(spec), std::invalid_argument);
}

TEST(SweepSpec, ImpairmentAxisMultipliesCellsAndTagsOnlyImpairedOnes) {
  auto spec = small_spec();
  spec.impairments = {"none", "noise:iid:0.05", "jam:budget:16:random"};
  const auto cells = we::expand(spec);
  ASSERT_EQ(cells.size(), 24u);  // 8 base cells x 3 impairment values
  std::size_t clean = 0, tagged = 0;
  for (const auto& cell : cells) {
    if (cell.impairment.clean()) {
      ++clean;
      // Clean cells keep the pre-impairment tag text, so their seeds (and
      // resumed manifests) are unchanged by the axis existing.
      EXPECT_EQ(cell.tag.find("impairment="), std::string::npos) << cell.tag;
    } else {
      ++tagged;
      EXPECT_NE(cell.tag.find(",impairment=" + cell.impairment.name()),
                std::string::npos)
          << cell.tag;
    }
  }
  EXPECT_EQ(clean, 8u);
  EXPECT_EQ(tagged, 16u);
  // The clean slice is tag-identical to a grid with no impairment axis.
  const auto base = we::expand(small_spec());
  for (const auto& cell : base) {
    EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                            [&](const we::Cell& c) { return c.tag == cell.tag; }))
        << cell.tag;
  }
}

TEST(SweepSpec, FaultClausesOnStaticGridNameTheOffendingValue) {
  auto spec = small_spec();
  spec.impairments = {"noise:iid:0.05", "crash:0.25+byzantine:0.1"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("crash:0.25+byzantine:0.1"), std::string::npos) << what;
    EXPECT_NE(what.find("dynamic"), std::string::npos) << what;
  }
}

TEST(SweepSpec, AdversarialJamOnDynamicGridNamesTheOffendingValue) {
  we::SweepSpec spec;
  spec.protocols = {"round_robin"};
  spec.ns = {64};
  spec.ks = {4};
  spec.trials = 4;
  spec.arrivals = {wakeup::mac::ArrivalSpec::parse("poisson:0.2")};
  spec.horizon = 256;
  spec.impairments = {"jam:budget:8:adversarial"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("jam:budget:8:adversarial"), std::string::npos) << what;
    EXPECT_NE(what.find("front/spread/random"), std::string::npos) << what;
  }
}

TEST(SweepSpec, AdversarialJamOnMultichannelGridNamesTheOffendingValue) {
  auto spec = small_spec();
  spec.channels = {4};
  spec.impairments = {"jam:budget:8:adversarial"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("jam:budget:8:adversarial"), std::string::npos) << what;
    EXPECT_NE(what.find("single-channel"), std::string::npos) << what;
  }
}

TEST(SweepSpec, StaticOnlyProtocolOnArrivalAxisNamesTheValues) {
  we::SweepSpec spec;
  spec.protocols = {"select_among_the_first"};
  spec.ns = {64};
  spec.ks = {4};
  spec.trials = 4;
  spec.arrivals = {wakeup::mac::ArrivalSpec::parse("poisson:0.2"),
                   wakeup::mac::ArrivalSpec::parse("bursty:0.5:0.05")};
  spec.horizon = 256;
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("select_among_the_first"), std::string::npos) << what;
    // The message must name the axis *values* forcing dynamic mode, not
    // just say "the arrival axis".
    EXPECT_NE(what.find("poisson:0.2"), std::string::npos) << what;
    EXPECT_NE(what.find("bursty:0.5:0.05"), std::string::npos) << what;
  }
}

TEST(SweepSpec, AxisGrammar) {
  EXPECT_EQ(we::parse_axis_u32("2^10..2^13"),
            (std::vector<std::uint32_t>{1024, 2048, 4096, 8192}));
  EXPECT_EQ(we::parse_axis_u32("1,8,64"), (std::vector<std::uint32_t>{1, 8, 64}));
  EXPECT_EQ(we::parse_axis_u32("2^5"), (std::vector<std::uint32_t>{32}));
  EXPECT_EQ(we::parse_axis_u32("3..24"), (std::vector<std::uint32_t>{3, 6, 12, 24}));
  EXPECT_EQ(we::parse_axis_u32("16, 2^6..2^7"), (std::vector<std::uint32_t>{16, 64, 128}));
  EXPECT_THROW((void)we::parse_axis_u32(""), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("abc"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("3^4"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("8..2"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("0"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("2^33"), std::invalid_argument);
  // Spaces are trimmed at item ends only: an inner space or an empty item
  // is an error naming the item, never a silently joined or dropped value.
  EXPECT_EQ(we::parse_axis_u32(" 2 , 4 "), (std::vector<std::uint32_t>{2, 4}));
  for (const char* text : {"2 4", "2,,4", "2,", ",2", " ", "2, ,4"}) {
    EXPECT_THROW((void)we::parse_axis_u32(text), std::invalid_argument) << text;
  }
  try {
    (void)we::parse_axis_u32("2 4");
    ADD_FAILURE() << "'2 4' parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'2 4'"), std::string::npos) << e.what();
  }
  try {
    (void)we::split_list("round robin,wait_and_go");
    ADD_FAILURE() << "'round robin' split";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'round robin'"), std::string::npos) << e.what();
  }
  EXPECT_EQ(we::split_list("round_robin, wait_and_go"),
            (std::vector<std::string>{"round_robin", "wait_and_go"}));
}

TEST(SweepSpec, GridFingerprintPinsSpecAndSeed) {
  const auto cells = we::expand(small_spec());
  EXPECT_EQ(we::grid_fingerprint(cells, 11), we::grid_fingerprint(cells, 11));
  EXPECT_NE(we::grid_fingerprint(cells, 11), we::grid_fingerprint(cells, 12));
  auto bigger = small_spec();
  bigger.ks = {2, 4, 8};
  EXPECT_NE(we::grid_fingerprint(we::expand(bigger), 11), we::grid_fingerprint(cells, 11));
}

TEST(SweepSpec, EngineIsNotPartOfACellsIdentity) {
  // The engine is how a sweep runs, not what a cell is: every engine yields
  // the same tags (with the frozen "engine=auto" text), so the same seeds
  // and grid fingerprint, and --resume works across --engine values.
  auto spec = small_spec();
  spec.impairments = {"none", "noise:iid:0.05"};
  const auto reference = we::expand(spec);
  for (const ws::Engine engine :
       {ws::Engine::kAuto, ws::Engine::kInterpreter, ws::Engine::kBatch}) {
    spec.sim.engine = engine;
    const auto cells = we::expand(spec);
    ASSERT_EQ(cells.size(), reference.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].tag, reference[i].tag);
      EXPECT_EQ(cells[i].tag_hash, reference[i].tag_hash);
      EXPECT_NE(cells[i].tag.find(",engine=auto,"), std::string::npos) << cells[i].tag;
    }
    EXPECT_EQ(we::grid_fingerprint(cells, spec.base_seed),
              we::grid_fingerprint(reference, spec.base_seed));
  }
}

// ----------------------------------------------------------- aggregator --

TEST(Aggregator, MatchesNaiveReferenceAndIgnoresAddOrder) {
  // Known samples: successes {10, 20, 30, 40} + one failure.
  const std::vector<ws::SimResult> trials = {
      trial_result(true, 10, 1, 100), trial_result(true, 20, 2, 200),
      trial_result(false, -1, 9, 900), trial_result(true, 30, 3, 300),
      trial_result(true, 40, 4, 400),
  };
  we::Aggregator forward(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) forward.add(i, trials[i]);
  we::Aggregator backward(trials.size());
  for (std::size_t i = trials.size(); i-- > 0;) backward.add(i, trials[i]);

  const we::CellStats stats = forward.finalize(500, 42);
  EXPECT_EQ(stats.trials, 5u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.8);
  EXPECT_EQ(stats.rounds.count, 4u);
  EXPECT_DOUBLE_EQ(stats.rounds.mean, 25.0);
  EXPECT_DOUBLE_EQ(stats.rounds.median, 25.0);
  EXPECT_DOUBLE_EQ(stats.rounds.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.rounds.max, 40.0);
  EXPECT_DOUBLE_EQ(stats.rounds.p95, 38.5);  // linear interpolation
  EXPECT_DOUBLE_EQ(stats.collisions.mean, 2.5);
  EXPECT_DOUBLE_EQ(stats.silences.mean, 250.0);
  EXPECT_LE(stats.mean_ci.lo, stats.rounds.mean);
  EXPECT_GE(stats.mean_ci.hi, stats.rounds.mean);
  EXPECT_LE(stats.median_ci.lo, stats.rounds.median);
  EXPECT_GE(stats.median_ci.hi, stats.rounds.median);

  // Trial-indexed storage: completion order cannot move any statistic
  // (this is what makes sweep reports thread-count-independent).
  const we::CellStats reversed = backward.finalize(500, 42);
  EXPECT_DOUBLE_EQ(reversed.mean_ci.lo, stats.mean_ci.lo);
  EXPECT_DOUBLE_EQ(reversed.mean_ci.hi, stats.mean_ci.hi);
  EXPECT_DOUBLE_EQ(reversed.median_ci.lo, stats.median_ci.lo);
  EXPECT_DOUBLE_EQ(reversed.median_ci.hi, stats.median_ci.hi);
}

TEST(Aggregator, ZeroResamplesDegeneratesCIs) {
  we::Aggregator agg(2);
  agg.add(0, trial_result(true, 10, 0, 0));
  agg.add(1, trial_result(true, 30, 0, 0));
  const we::CellStats stats = agg.finalize(0, 1);
  EXPECT_DOUBLE_EQ(stats.mean_ci.lo, 20.0);
  EXPECT_DOUBLE_EQ(stats.mean_ci.hi, 20.0);
}

// -------------------------------------------------------------- manifest --

TEST(Manifest, RecordRoundTrips) {
  const auto cells = we::expand(small_spec());
  we::CellRecord record;
  record.cell = cells[3];
  record.stats.trials = 6;
  record.stats.failures = 1;
  record.stats.success_rate = 5.0 / 6.0;
  record.stats.rounds.count = 5;
  record.stats.rounds.mean = 12.3456789012345678;
  record.stats.rounds.median = 11.5;
  record.stats.rounds.p95 = 19.25;
  record.stats.rounds.max = 21.0;
  record.stats.mean_ci = {12.34, 10.0, 15.0, 0.95};
  record.stats.median_ci = {11.5, 9.0, 14.0, 0.95};
  record.bound = 36.0;
  record.normalized_mean = record.stats.rounds.mean / record.bound;

  const we::CellRecord parsed = we::parse_manifest_line(we::manifest_line(record));
  EXPECT_EQ(parsed.cell.tag, record.cell.tag);
  EXPECT_EQ(parsed.cell.tag_hash, record.cell.tag_hash);
  EXPECT_EQ(parsed.cell.protocol, record.cell.protocol);
  EXPECT_EQ(parsed.cell.n, record.cell.n);
  EXPECT_EQ(parsed.cell.k, record.cell.k);
  EXPECT_EQ(parsed.cell.index, record.cell.index);
  EXPECT_EQ(parsed.stats.failures, record.stats.failures);
  // %.17g round-trips doubles exactly — the keystone of resume identity.
  EXPECT_EQ(parsed.stats.rounds.mean, record.stats.rounds.mean);
  EXPECT_EQ(parsed.stats.success_rate, record.stats.success_rate);
  EXPECT_EQ(parsed.stats.mean_ci.lo, record.stats.mean_ci.lo);
  EXPECT_EQ(parsed.stats.median_ci.hi, record.stats.median_ci.hi);
  EXPECT_EQ(parsed.bound, record.bound);
  EXPECT_EQ(parsed.normalized_mean, record.normalized_mean);
}

TEST(Manifest, JsonDoubleWritesPrintfBytes) {
  // json_double formats with std::to_chars(general, 17), which the
  // standard defines as printf's "%.17g": the report and manifest bytes
  // must not move.  The corpus covers integers, both zeros, subnormals,
  // extreme exponents, the edge of exact integers and k/48 fractions.
  std::vector<double> corpus = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                4096.0,
                                123456789.0,
                                -987654321.0,
                                4.9406564584124654e-324,
                                -4.9406564584124654e-324,
                                2.2250738585072009e-308,
                                2.2250738585072014e-308,
                                1e300,
                                -1e300,
                                1e-300,
                                -1e-300,
                                1.7976931348623157e308,
                                9007199254740991.0,
                                9007199254740992.0,
                                9007199254740993.0,
                                0.1,
                                1.0 / 3.0,
                                1e16,
                                1e17,
                                1e-5};
  for (int k = -480; k <= 480; ++k) corpus.push_back(static_cast<double>(k) / 48.0);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = wu::hash_words({0x4a534f4eULL, static_cast<std::uint64_t>(i)});
    corpus.push_back(static_cast<double>(bits >> 11) * 0x1.0p-40);
  }
  for (const double v : corpus) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", v);
    EXPECT_EQ(we::json_double(v), std::string(want)) << want;
  }
  EXPECT_EQ(we::json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(we::json_double(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Manifest, TornTailIsDroppedMidFileDamageThrows) {
  const auto cells = we::expand(small_spec());
  we::CellRecord record;
  record.cell = cells[0];
  record.stats.trials = 6;

  const std::string dir = fresh_dir("torn");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/manifest.jsonl";
  {
    we::ManifestHeader header;
    header.base_seed = 11;
    header.grid_hash = we::grid_fingerprint(cells, 11);
    header.cells = cells.size();
    we::ManifestWriter writer(path, header, /*append=*/false);
    writer.append(record);
  }
  {  // tear the tail: a kill mid-append
    std::ofstream out(path, std::ios::app);
    out << "{\"tag\":\"protocol=trunc";
  }
  const we::ManifestData data = we::load_manifest(path);
  EXPECT_EQ(data.by_tag.size(), 1u);
  EXPECT_EQ(data.dropped_lines, 1u);
  EXPECT_EQ(data.header.cells, cells.size());

  {  // damage BEFORE the last line is corruption, not a torn tail
    std::ofstream out(path, std::ios::app);
    out << "\n" << we::manifest_line(record) << "\n";
  }
  EXPECT_THROW((void)we::load_manifest(path), std::runtime_error);
}

// ------------------------------------------------------------ run_sweep --

TEST(SweepRunner, ResumeEqualsFreshByteIdentically) {
  auto spec = small_spec();
  we::SweepOptions fresh;
  fresh.out_dir = fresh_dir("fresh");
  fresh.ci_resamples = 200;
  const auto full = we::run_sweep(spec, fresh);
  ASSERT_TRUE(full.completed);
  EXPECT_EQ(full.cells_run, 8u);

  // The engine is no part of a cell's identity, so a run capped under the
  // slot interpreter resumes under the default engine just the same.
  for (const ws::Engine capped_engine : {ws::Engine::kAuto, ws::Engine::kInterpreter}) {
    we::SweepOptions interrupted;
    interrupted.out_dir =
        fresh_dir("resumed_" + std::to_string(static_cast<int>(capped_engine)));
    interrupted.ci_resamples = 200;
    interrupted.max_cells = 3;  // simulated mid-grid kill
    spec.sim.engine = capped_engine;
    const auto partial = we::run_sweep(spec, interrupted);
    EXPECT_FALSE(partial.completed);
    EXPECT_EQ(partial.cells_run, 3u);
    EXPECT_EQ(partial.cells_remaining, 5u);

    interrupted.max_cells = 0;
    interrupted.resume = true;
    spec.sim.engine = ws::Engine::kAuto;
    const auto resumed = we::run_sweep(spec, interrupted);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cells_resumed, 3u);
    EXPECT_EQ(resumed.cells_run, 5u);

    EXPECT_EQ(slurp(full.csv_path), slurp(resumed.csv_path));
    EXPECT_EQ(slurp(full.json_path), slurp(resumed.json_path));
    EXPECT_EQ(sorted_manifest_records(full.manifest_path),
              sorted_manifest_records(resumed.manifest_path));
  }
}

TEST(SweepRunner, ResumeRepairsATornManifestTail) {
  // A real kill can land mid-append, leaving a partial trailing line.  The
  // resumed writer must not glue its first record onto the fragment: the
  // torn cell re-runs, the manifest stays parseable line by line, and the
  // final report is still byte-identical to a fresh run.
  const auto spec = small_spec();
  we::SweepOptions fresh;
  fresh.out_dir = fresh_dir("torn_fresh");
  fresh.ci_resamples = 100;
  const auto full = we::run_sweep(spec, fresh);
  ASSERT_TRUE(full.completed);

  we::SweepOptions torn;
  torn.out_dir = fresh_dir("torn_resume");
  torn.ci_resamples = 100;
  torn.max_cells = 4;
  (void)we::run_sweep(spec, torn);
  {  // tear the tail mid-record, no trailing newline
    std::ofstream out(torn.out_dir + "/manifest.jsonl", std::ios::app);
    out << "{\"tag\":\"protocol=round_ro";
  }
  torn.max_cells = 0;
  torn.resume = true;
  const auto resumed = we::run_sweep(spec, torn);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.cells_resumed, 4u);
  EXPECT_EQ(slurp(full.csv_path), slurp(resumed.csv_path));
  EXPECT_EQ(slurp(full.json_path), slurp(resumed.json_path));
  // Every manifest line parses — no glued/torn lines survived — and a
  // THIRD pass (e.g. another kill later) still resumes cleanly.
  const auto data = we::load_manifest(resumed.manifest_path);
  EXPECT_EQ(data.by_tag.size(), 8u);
  EXPECT_EQ(data.dropped_lines, 0u);
}

TEST(SweepRunner, ResumeRefusesAForeignManifest) {
  auto spec = small_spec();
  we::SweepOptions options;
  options.out_dir = fresh_dir("foreign");
  options.ci_resamples = 50;
  (void)we::run_sweep(spec, options);
  spec.base_seed = 999;  // different seed => different grid fingerprint seeding
  options.resume = true;
  EXPECT_THROW((void)we::run_sweep(spec, options), std::runtime_error);
}

TEST(SweepRunner, NestedRunsShareTheSweepPool) {
  // Cells are chunks of one parallel_for on the sweep's pool, and every
  // cell's sim::Run fans its trials onto that same pool.  With ONE worker a
  // nested dispatch that waited on its own queue would deadlock, so
  // completion is the proof; the reports must be bitwise identical for 0,
  // 1 and 4 workers.  The grid mixes microsecond cells with one Scenario C
  // cell (wakeup_matrix, n=4096, k=256) whose trials take about a
  // millisecond each, so its timed trial 0 sends the rest onto the pool.
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_matrix"};
  spec.ns = {64, 4096};
  spec.ks = {2, 256};
  spec.patterns = {we::PatternKind::kSimultaneous};
  spec.trials = 6;
  spec.base_seed = 11;
  const std::size_t cells = we::expand(spec).size();
  ASSERT_EQ(cells, 6u);

  const auto run_on = [&](std::size_t workers) {
    wu::ThreadPool pool(workers);
    we::SweepOptions options;
    options.out_dir = fresh_dir("nested_" + std::to_string(workers));
    options.ci_resamples = 100;
    options.pool = &pool;
    const auto outcome = we::run_sweep(spec, options);
    EXPECT_TRUE(outcome.completed);
    return outcome;
  };
  const auto inline_outcome = run_on(0);
  const auto one_outcome = run_on(1);
  obs::reset();
  obs::set_enabled(true);
  const auto many_outcome = run_on(4);
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::snapshot();
  obs::reset();

  EXPECT_EQ(slurp(inline_outcome.csv_path), slurp(one_outcome.csv_path));
  EXPECT_EQ(slurp(inline_outcome.json_path), slurp(one_outcome.json_path));
  EXPECT_EQ(slurp(inline_outcome.csv_path), slurp(many_outcome.csv_path));
  EXPECT_EQ(slurp(inline_outcome.json_path), slurp(many_outcome.json_path));
  if (obs::kCompiled) {
    // One trial-0 decision per multi-trial cell; the long cell fans out.
    const std::uint64_t fanned = obs::snapshot_value(snap, "sim.runs_fanned");
    EXPECT_EQ(fanned + obs::snapshot_value(snap, "sim.runs_inline"), cells);
    EXPECT_GE(fanned, 1u);
    EXPECT_GE(obs::snapshot_value(snap, "pool.helpers"), 1u);
  }
}

TEST(SweepRunner, ConcurrentTrialCsvSinkStressNoTornRows) {
  // Many cells stream into ONE per-trial sink from pool workers; every row
  // must arrive whole (the sink serializes writers).
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k", "wait_and_go"};
  spec.ns = {64, 128};
  spec.ks = {2, 4};
  spec.patterns = {we::PatternKind::kStaggered};
  spec.trials = 16;
  spec.base_seed = 3;
  const auto cells = we::expand(spec);
  ASSERT_EQ(cells.size(), 12u);

  const std::string dir = fresh_dir("csv_stress");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string csv_path = dir + "/trials.csv";
  {
    ws::TrialCsvSink sink(csv_path);
    we::SweepOptions options;
    options.out_dir = dir;
    options.ci_resamples = 0;
    options.trial_csv = &sink;
    wu::ThreadPool pool(4);
    options.pool = &pool;
    const auto outcome = we::run_sweep(spec, options);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(sink.rows(), cells.size() * spec.trials);
  }  // close the sink so every buffered row reaches the file

  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  const auto field_count = [](const std::string& row) {
    return 1 + std::count(row.begin(), row.end(), ',');
  };
  const auto expected_fields = field_count(line);
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ASSERT_EQ(field_count(line), expected_fields) << "torn row: " << line;
    ++rows;
  }
  EXPECT_EQ(rows, cells.size() * spec.trials);
}

TEST(SweepRunner, MultichannelAndAdversarialCellsRun) {
  we::SweepSpec spec;
  spec.protocols = {"striped_rr", "round_robin"};
  spec.ns = {64};
  spec.ks = {4};
  spec.channels = {2};
  spec.patterns = {we::PatternKind::kUniform};
  spec.trials = 4;
  we::SweepOptions options;
  options.out_dir = fresh_dir("mc");
  options.ci_resamples = 0;
  const auto outcome = we::run_sweep(spec, options);
  ASSERT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.records.size(), 2u);
  for (const auto& record : outcome.records) {
    EXPECT_EQ(record.stats.failures, 0u) << record.cell.tag;
    EXPECT_GT(record.bound, 0.0);
  }

  we::SweepSpec adv;
  adv.protocols = {"round_robin"};
  adv.ns = {32};
  adv.ks = {3};
  adv.patterns = {we::PatternKind::kAdversarial};
  adv.trials = 3;
  we::SweepOptions adv_options;
  adv_options.out_dir = fresh_dir("adv");
  adv_options.ci_resamples = 0;
  const auto adv_outcome = we::run_sweep(adv, adv_options);
  ASSERT_TRUE(adv_outcome.completed);
  EXPECT_EQ(adv_outcome.records[0].stats.failures, 0u);
  // Round-robin against ITS hardest k=3 pattern should cost more rounds
  // than the average staggered run — sanity, not a tight claim.
  EXPECT_GE(adv_outcome.records[0].stats.rounds.mean, 3.0);
}

// --------------------------------------------------------------- presets --

TEST(Presets, AllNamedGridsExpand) {
  for (const auto& name : we::preset_names()) {
    const auto spec = we::make_preset(name);
    const auto cells = we::expand(spec);
    EXPECT_FALSE(cells.empty()) << name;
  }
  EXPECT_THROW((void)we::make_preset("figure-scenario-z"), std::invalid_argument);
  // The acceptance grid: 4 protocols x 6 n x 4 k.
  EXPECT_EQ(we::expand(we::make_preset("figure-scenario-b")).size(), 96u);
  EXPECT_LE(we::expand(we::make_preset("smoke")).size(), 16u);
}

// ------------------------------------------------------- dynamic traffic --

namespace {

/// Tiny dynamic grid: 2 protocols x 2 arrival kinds, seconds-scale.
we::SweepSpec dynamic_spec() {
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "adaptive_cw"};
  spec.ns = {64};
  spec.ks = {4};
  spec.arrivals = we::parse_arrival_axis("poisson:0.2,bursty:0.4:0.1");
  spec.horizon = 256;
  spec.trials = 5;
  spec.base_seed = 17;
  return spec;
}

}  // namespace

TEST(Manifest, DynamicRecordRoundTrips) {
  const auto cells = we::expand(dynamic_spec());
  ASSERT_EQ(cells.size(), 4u);
  we::CellRecord record;
  record.cell = cells[1];
  ASSERT_TRUE(record.cell.dynamic);
  record.stats.trials = 5;
  record.stats.success_rate = 1.0;
  record.stats.throughput.count = 5;
  record.stats.throughput.mean = 0.19921875;
  record.stats.throughput.median = 0.201171875;
  record.stats.jain.count = 5;
  record.stats.jain.mean = 0.87654321987654321;
  record.stats.latency.count = 250;
  record.stats.latency.median = 12.5;
  record.stats.latency.p95 = 40.25;
  record.stats.latency.p99 = 61.125;
  record.stats.latency.max = 88.0;
  record.stats.packet_arrivals = 257;
  record.stats.delivered = 251;
  record.stats.backlog = 6;

  const we::CellRecord parsed = we::parse_manifest_line(we::manifest_line(record));
  EXPECT_TRUE(parsed.cell.dynamic);
  EXPECT_EQ(parsed.cell.arrival, record.cell.arrival);
  EXPECT_EQ(parsed.cell.horizon, record.cell.horizon);
  EXPECT_EQ(parsed.cell.tag, record.cell.tag);
  EXPECT_EQ(parsed.stats.throughput.mean, record.stats.throughput.mean);
  EXPECT_EQ(parsed.stats.jain.mean, record.stats.jain.mean);
  EXPECT_EQ(parsed.stats.latency.p99, record.stats.latency.p99);
  EXPECT_EQ(parsed.stats.packet_arrivals, record.stats.packet_arrivals);
  EXPECT_EQ(parsed.stats.delivered, record.stats.delivered);
  EXPECT_EQ(parsed.stats.backlog, record.stats.backlog);
}

TEST(Manifest, RejectsPreDynamicVersionWithFriendlyError) {
  const std::string dir = fresh_dir("v1");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/manifest.jsonl";
  {
    std::ofstream out(path);
    out << "{\"manifest\":\"wakeup-sweep\",\"version\":1,\"base_seed\":11,"
           "\"grid_hash\":123,\"cells\":8}\n";
  }
  try {
    (void)we::load_manifest(path);
    FAIL() << "v1 manifest must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("re-run the sweep fresh"), std::string::npos) << what;
  }
}

TEST(SweepRunner, ResumeOverAnOlderManifestThrowsTheFriendlyError) {
  // v4 manifests hold 2000-resample median CIs and v5 lines carry an
  // `engine` field; resuming either would mix two record layouts in one
  // report.
  for (const int version : {4, 5}) {
    const std::string v = std::to_string(version);
    we::SweepOptions options;
    options.out_dir = fresh_dir("resume_v" + v);
    options.ci_resamples = 50;
    options.max_cells = 2;
    ASSERT_FALSE(we::run_sweep(small_spec(), options).completed);
    const std::string path = options.out_dir + "/manifest.jsonl";
    std::string text = slurp(path);
    const std::string current = "\"version\":" + std::to_string(we::kManifestVersion) + ",";
    const auto at = text.find(current);
    ASSERT_NE(at, std::string::npos) << text.substr(0, text.find('\n'));
    text.replace(at, current.size(), "\"version\":" + v + ",");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    options.resume = true;
    options.max_cells = 0;
    try {
      (void)we::run_sweep(small_spec(), options);
      FAIL() << "a v" << v << " manifest must be refused on resume";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + v), std::string::npos) << what;
      EXPECT_NE(what.find("v5 made the median CI exact"), std::string::npos) << what;
      EXPECT_NE(what.find("v6 dropped the engine field"), std::string::npos) << what;
      EXPECT_NE(what.find("re-run the sweep fresh"), std::string::npos) << what;
    }
  }
}

TEST(SweepRunner, DynamicSweepResumeEqualsFreshByteIdentically) {
  const auto spec = dynamic_spec();
  we::SweepOptions fresh;
  fresh.out_dir = fresh_dir("dyn_fresh");
  fresh.ci_resamples = 100;
  const auto full = we::run_sweep(spec, fresh);
  ASSERT_TRUE(full.completed);
  ASSERT_EQ(full.records.size(), 4u);
  for (const auto& record : full.records) {
    // Dynamic trials never exhaust a budget — the horizon IS the budget.
    EXPECT_EQ(record.stats.failures, 0u) << record.cell.tag;
    EXPECT_GT(record.stats.throughput.mean, 0.0) << record.cell.tag;
    EXPECT_GT(record.stats.jain.mean, 0.0) << record.cell.tag;
    EXPECT_LE(record.stats.jain.mean, 1.0) << record.cell.tag;
    EXPECT_GE(record.stats.latency.p99, record.stats.latency.median) << record.cell.tag;
    EXPECT_EQ(record.stats.packet_arrivals,
              record.stats.delivered + record.stats.backlog)
        << record.cell.tag;
  }
  // The report carries the dynamic columns.
  const std::string json = slurp(full.json_path);
  EXPECT_NE(json.find("\"throughput_mean\""), std::string::npos);
  EXPECT_NE(json.find("\"jain_mean\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_p99\""), std::string::npos);

  we::SweepOptions interrupted;
  interrupted.out_dir = fresh_dir("dyn_resumed");
  interrupted.ci_resamples = 100;
  interrupted.max_cells = 2;  // simulated mid-grid kill
  const auto partial = we::run_sweep(spec, interrupted);
  EXPECT_FALSE(partial.completed);
  interrupted.max_cells = 0;
  interrupted.resume = true;
  const auto resumed = we::run_sweep(spec, interrupted);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.cells_resumed, 2u);
  EXPECT_EQ(slurp(full.csv_path), slurp(resumed.csv_path));
  EXPECT_EQ(slurp(full.json_path), slurp(resumed.json_path));
  EXPECT_EQ(sorted_manifest_records(full.manifest_path),
            sorted_manifest_records(resumed.manifest_path));
}

TEST(SweepRunner, ReportsAreIdenticalUnderEveryEngine) {
  // Engines are bit-identical trial for trial, and the engine is no part
  // of a cell's identity, so forcing the slot interpreter writes the same
  // report bytes as the default hybrid — on static, impaired and dynamic
  // cells alike.
  auto impaired = small_spec();
  impaired.impairments = {"none", "noise:iid:0.05", "jam:budget:8:adversarial"};
  const we::SweepSpec grids[] = {impaired, dynamic_spec()};
  for (std::size_t g = 0; g < std::size(grids); ++g) {
    std::vector<we::SweepOutcome> outcomes;
    for (const ws::Engine engine : {ws::Engine::kInterpreter, ws::Engine::kAuto}) {
      we::SweepSpec spec = grids[g];
      spec.sim.engine = engine;
      we::SweepOptions options;
      options.out_dir = fresh_dir("engine_" + std::to_string(g) + "_" +
                                  std::to_string(static_cast<int>(engine)));
      options.ci_resamples = 100;
      outcomes.push_back(we::run_sweep(spec, options));
      ASSERT_TRUE(outcomes.back().completed);
    }
    EXPECT_EQ(slurp(outcomes[0].csv_path), slurp(outcomes[1].csv_path)) << "grid " << g;
    EXPECT_EQ(slurp(outcomes[0].json_path), slurp(outcomes[1].json_path)) << "grid " << g;
  }
}

TEST(SweepRunner, DynamicGridRejectsPerTrialCsv) {
  const std::string dir = fresh_dir("dyn_csv");
  ASSERT_TRUE(wu::ensure_directory(dir));
  ws::TrialCsvSink sink(dir + "/trials.csv");
  we::SweepOptions options;
  options.out_dir = dir;
  options.ci_resamples = 0;
  options.trial_csv = &sink;
  try {
    (void)we::run_sweep(dynamic_spec(), options);
    FAIL() << "a dynamic grid with a per-trial CSV ran";
  } catch (const std::invalid_argument& e) {
    // The message names the CLI flag to drop.
    EXPECT_NE(std::string(e.what()).find("--per-trial-csv"), std::string::npos) << e.what();
  }
}

TEST(SweepRunner, HeartbeatFiresEveryNCellsAndIsOffByDefault) {
  EXPECT_EQ(we::SweepOptions{}.heartbeat_cells, 0u);  // CI logs stay clean

  const auto spec = small_spec();  // 8 cells
  wu::ThreadPool inline_pool(0);   // sequential, so beat order is exact
  we::SweepOptions options;
  options.out_dir = fresh_dir("heartbeat");
  options.ci_resamples = 0;
  options.pool = &inline_pool;
  options.heartbeat_cells = 3;
  std::vector<we::SweepHeartbeat> beats;
  options.heartbeat = [&beats](const we::SweepHeartbeat& hb) { beats.push_back(hb); };
  const auto outcome = we::run_sweep(spec, options);
  ASSERT_TRUE(outcome.completed);

  ASSERT_EQ(beats.size(), 2u);  // after cells 3 and 6 of 8
  EXPECT_EQ(beats[0].completed, 3u);
  EXPECT_EQ(beats[1].completed, 6u);
  for (const auto& hb : beats) {
    EXPECT_EQ(hb.worker_id, -1);  // single-process mode
    EXPECT_EQ(hb.total, 8u);
    EXPECT_GT(hb.cells_per_sec, 0.0);
    EXPECT_GE(hb.eta_sec, 0.0);
  }

  // Resumed cells count toward `completed`, so a restarted sweep reports
  // whole-grid progress rather than this invocation's.
  auto resumed = options;
  resumed.resume = true;
  resumed.max_cells = 0;
  std::vector<we::SweepHeartbeat> resumed_beats;
  resumed.heartbeat = [&resumed_beats](const we::SweepHeartbeat& hb) {
    resumed_beats.push_back(hb);
  };
  options.max_cells = 5;
  auto partial_dir = fresh_dir("heartbeat_resume");
  options.out_dir = partial_dir;
  resumed.out_dir = partial_dir;
  (void)we::run_sweep(spec, options);
  const auto finished = we::run_sweep(spec, resumed);
  ASSERT_TRUE(finished.completed);
  ASSERT_EQ(resumed_beats.size(), 1u);  // 5 resumed + 3 run -> one beat at 8
  EXPECT_EQ(resumed_beats[0].completed, 8u);
  EXPECT_EQ(resumed_beats[0].total, 8u);
}

// ---------------------------------------------------------- report bytes --

TEST(SweepRunner, ReportBytesArePinned) {
  // The byte-identity contract for reports, pinned across releases: the
  // smoke preset (static cells with rounds and energy CIs) and a two-cell
  // arrival-axis grid (throughput CIs) at seed 7 and the default 2000
  // bootstrap resamples, hashed with FNV-1a.  A change that moves these
  // bytes on purpose updates the constants and says so in CHANGES.md.
  struct Pinned {
    std::string name;
    we::SweepSpec spec;
    std::uint64_t csv_hash;
    std::uint64_t json_hash;
  };
  we::SweepSpec smoke = we::make_preset("smoke");
  smoke.base_seed = 7;
  we::SweepSpec arrivals;
  arrivals.protocols = {"adaptive_cw"};
  arrivals.ns = {64};
  arrivals.ks = {4};
  arrivals.arrivals = we::parse_arrival_axis("poisson:0.2,bursty:0.4:0.1");
  arrivals.horizon = 256;
  arrivals.trials = 8;
  arrivals.base_seed = 7;
  const Pinned pinned[] = {
      {"smoke", smoke, 0x5994d9d7b1c6007bULL, 0xa03e39f5a699e31dULL},
      {"arrivals", arrivals, 0x02cfd6e80663d96eULL, 0x28fb2a28ff058d27ULL},
  };
  for (const Pinned& p : pinned) {
    we::SweepOptions options;
    options.out_dir = fresh_dir("pinned_" + p.name);
    ASSERT_EQ(options.ci_resamples, 2000u);
    const auto outcome = we::run_sweep(p.spec, options);
    ASSERT_TRUE(outcome.completed) << p.name;
    EXPECT_EQ(we::tag_hash(slurp(outcome.csv_path)), p.csv_hash) << p.name;
    EXPECT_EQ(we::tag_hash(slurp(outcome.json_path)), p.json_hash) << p.name;
  }
}
