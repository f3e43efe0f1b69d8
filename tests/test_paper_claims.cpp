/// The paper's claims as asserted checks on small fixed grids.
///
/// Every grid runs at base seed 20130522 through the sweep pipeline
/// (exp::run_sweep, no bootstrap CIs) or, for full resolution, through
/// sim::Run directly, so the checked numbers are what a preset report
/// would print.  Each band is an upper bound: the largest value measured
/// at that seed plus a 25% margin, rounded up to the next 0.05.  The Θ
/// bounds are worst cases over wake patterns and random patterns are
/// easier (normalized means span 0.006-1.92 across the Scenario A/B grid),
/// so the bands cap the cost and do not claim it is flat in k.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "mac/wake_pattern.hpp"
#include "protocols/registry.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"

namespace we = wakeup::exp;
namespace wm = wakeup::mac;
namespace wp = wakeup::proto;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

namespace {

constexpr std::uint64_t kSeed = 20130522;

/// Runs a grid through the sweep pipeline and returns its records in grid
/// order.  CIs are off: no claim reads them.  Every claim also needs every
/// trial to wake up within its slot budget.
std::vector<we::CellRecord> run_grid(const std::string& name, we::SweepSpec spec) {
  spec.base_seed = kSeed;
  we::SweepOptions options;
  options.out_dir =
      (std::filesystem::temp_directory_path() / ("wakeup_paper_claims_" + name)).string();
  options.ci_resamples = 0;
  std::filesystem::remove_all(options.out_dir);
  we::SweepOutcome outcome = we::run_sweep(spec, options);
  std::filesystem::remove_all(options.out_dir);
  EXPECT_TRUE(outcome.completed) << name;
  for (const auto& r : outcome.records) EXPECT_EQ(r.stats.failures, 0u) << r.cell.tag;
  return std::move(outcome.records);
}

/// Mean rounds of the one record matching (protocol, k).
double mean_rounds(const std::vector<we::CellRecord>& records, const std::string& protocol,
                   std::uint32_t k) {
  const auto it = std::find_if(records.begin(), records.end(), [&](const we::CellRecord& r) {
    return r.cell.protocol == protocol && r.cell.k == k;
  });
  EXPECT_NE(it, records.end()) << protocol << " k=" << k;
  return it == records.end() ? 0.0 : it->stats.rounds.mean;
}

}  // namespace

// §3/§4: wakeup_with_s (s known) and wakeup_with_k (k known) wake up in
// Θ(k log(n/k) + 1) rounds.
TEST(PaperClaims, ScenariosAAndBStayUnderTheirBound) {
  // Measured max 1.92: wakeup_with_k, n=4096, k=16, simultaneous.
  constexpr double kBand = 2.40;
  we::SweepSpec with_s;
  with_s.protocols = {"wakeup_with_s"};
  with_s.ns = {256, 1024, 4096};
  with_s.ks = {2, 4, 8, 16, 32, 64};
  with_s.patterns = {we::PatternKind::kSimultaneous, we::PatternKind::kUniform};
  with_s.trials = 24;
  we::SweepSpec with_k = with_s;
  with_k.protocols = {"wakeup_with_k"};
  with_k.patterns = {we::PatternKind::kSimultaneous, we::PatternKind::kStaggered,
                     we::PatternKind::kBatched, we::PatternKind::kPoisson};
  for (const auto& spec : {with_s, with_k}) {
    for (const auto& r : run_grid(spec.protocols[0], spec)) {
      EXPECT_LE(r.normalized_mean, kBand) << r.cell.tag;
    }
  }
}

// Theorem 5.3: with neither s nor k known, wakeup_matrix wakes up in
// O(k log n log log n) rounds.  Contended patterns only: spread-out
// arrivals let an early lone station win in O(1).
TEST(PaperClaims, ScenarioCStaysUnderItsBound) {
  // Measured max 0.0945: n=256, k=128, simultaneous.
  constexpr double kBand = 0.12;
  we::SweepSpec spec;
  spec.protocols = {"wakeup_matrix"};
  spec.ns = {256, 1024, 4096};
  spec.ks = {1, 4, 16, 64, 128};
  spec.patterns = {we::PatternKind::kSimultaneous, we::PatternKind::kBatched};
  spec.trials = 16;
  for (const auto& r : run_grid("scenario_c", spec)) {
    EXPECT_LE(r.normalized_mean, kBand) << r.cell.tag;
  }
}

// Corollary 2.1 and the interleaving argument of §3: round-robin
// (n - k + 1 rounds) wins for large k, the selective family for small k,
// and wakeup_with_s pays at most twice the better of the two.  Each cell
// draws its own patterns, so the interleaving check allows a few rounds
// of slack on the means.
TEST(PaperClaims, RoundRobinCrossover) {
  // Measured max of with_s - 2 min(rr, satf): 4.17 rounds, at k=64.
  constexpr double kInterleaveSlack = 5.25;
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "select_among_the_first", "wakeup_with_s"};
  spec.ns = {1024};
  spec.ks = {2, 8, 32, 64, 128, 256, 512, 1008};
  spec.patterns = {we::PatternKind::kSimultaneous};
  spec.trials = 12;
  const auto records = run_grid("crossover", spec);
  EXPECT_LT(mean_rounds(records, "select_among_the_first", 2),
            mean_rounds(records, "round_robin", 2));
  for (const std::uint32_t k : spec.ks) {
    const double rr = mean_rounds(records, "round_robin", k);
    const double satf = mean_rounds(records, "select_among_the_first", k);
    if (k >= 32) {
      EXPECT_LT(rr, satf) << "k=" << k;
    }
    EXPECT_LE(mean_rounds(records, "wakeup_with_s", k), 2 * std::min(rr, satf) + kInterleaveSlack)
        << "k=" << k;
  }
}

// §6: RPD wakes up in O(log n) expected rounds, and in the optimal
// O(log k) when k is known.
TEST(PaperClaims, RandomizedRpdIsLogarithmic) {
  // Measured max rounds / log2 n: 1.26 (rpd_n); rounds / log2 k: 1.63 (rpd_k).
  constexpr double kRpdNBand = 1.60;
  constexpr double kRpdKBand = 2.05;
  we::SweepSpec spec;
  spec.protocols = {"rpd_n", "rpd_k"};
  spec.ns = {256, 1024, 4096, 16384};
  spec.ks = {2, 8, 32, 128};
  spec.patterns = {we::PatternKind::kSimultaneous};
  spec.trials = 48;
  for (const auto& r : run_grid("rpd", spec)) {
    if (r.cell.protocol == "rpd_n") {
      EXPECT_LE(r.stats.rounds.mean / std::log2(r.cell.n), kRpdNBand) << r.cell.tag;
    } else {
      EXPECT_LE(r.stats.rounds.mean / std::log2(r.cell.k), kRpdKBand) << r.cell.tag;
    }
  }
}

// The comparison with the locally-synchronized baseline [9]: under real
// contention the global-clock waking matrix beats the local-clock doubling
// schedule (measured local/matrix: 3.4x at k=256 up to 21.7x at k=16).
TEST(PaperClaims, GlobalClockBeatsLocalClock) {
  we::SweepSpec spec;
  spec.protocols = {"wakeup_matrix", "local_doubling"};
  spec.ns = {1024};
  spec.ks = {16, 64, 128, 256};
  spec.patterns = {we::PatternKind::kSimultaneous};
  spec.trials = 12;
  const auto records = run_grid("clocks", spec);
  for (const std::uint32_t k : spec.ks) {
    EXPECT_LT(mean_rounds(records, "wakeup_matrix", k), mean_rounds(records, "local_doubling", k))
        << "k=" << k;
  }
}

// Full conflict resolution (every awake station transmits alone once):
// round-robin finishes within n slots in every trial; tree splitting with
// collision detection in O(k).
TEST(PaperClaims, FullResolution) {
  // Measured max completion / k: 2.82 (tree splitting).
  constexpr double kTreeSplittingBand = 3.55;
  constexpr std::uint32_t n = 512;
  for (const std::string name : {"round_robin", "tree_splitting"}) {
    for (const std::uint32_t k : {4u, 16u, 64u}) {
      ws::RunSpec cell;
      cell.make_protocol = [&name, k](std::uint64_t seed) {
        wp::ProtocolSpec spec;
        spec.name = name;
        spec.n = n;
        spec.k = k;
        spec.seed = seed;
        return wp::make_protocol_by_name(spec);
      };
      cell.make_pattern = [k](wu::Rng& rng) { return wm::patterns::simultaneous(n, k, 0, rng); };
      cell.trials = 12;
      cell.base_seed = kSeed;
      cell.cell_tag = wu::hash_words({n, k});
      cell.sim.full_resolution = true;
      cell.sim.max_slots = static_cast<wm::Slot>(n) * k * 64 + 4096;
      if (name == "tree_splitting") cell.sim.feedback = wm::FeedbackModel::kCollisionDetection;
      const ws::CellStats result = ws::Run(cell).cell();
      EXPECT_EQ(result.failures, 0u) << name << " k=" << k;
      if (name == "round_robin") {
        EXPECT_LE(result.completion.max, n) << "k=" << k;
      } else {
        EXPECT_LE(result.completion.mean / k, kTreeSplittingBand) << "k=" << k;
      }
    }
  }
}
