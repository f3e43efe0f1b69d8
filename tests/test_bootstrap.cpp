#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/aggregator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace obs = wakeup::obs;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

namespace {

// The sort-based mean bootstrap the library shipped before its selection-
// based interval pick, kept verbatim as the bit-identity oracle.

wu::BootstrapCI reference_of_mean(const wu::Sample& sample, double level,
                                  std::uint64_t resamples, std::uint64_t seed) {
  wu::BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.mean();
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  wu::Rng rng(wu::hash_words({seed, 0x424f4f54ULL /* "BOOT" */}));
  std::vector<double> means;
  means.reserve(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += values[rng.uniform(values.size())];
    }
    means.push_back(acc / static_cast<double>(values.size()));
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(means.size() - 1);
    return means[static_cast<std::size_t>(pos)];
  };
  ci.lo = at(alpha);
  ci.hi = at(1.0 - alpha);
  return ci;
}

// The 2000-resample Monte-Carlo quantile interval the library shipped
// before the exact one (rank-histogram form, bit-identical to sorting each
// resample), kept to check the exact interval against its spread.
wu::BootstrapCI monte_carlo_of_quantile(const wu::Sample& sample, double p, double level,
                                        std::uint64_t resamples, std::uint64_t seed) {
  wu::BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.quantile(p);
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  wu::Rng rng(wu::hash_words({seed, 0x51424f4f54ULL /* "QBOOT" */}));
  const std::size_t n = values.size();
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(n - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const std::size_t hi_rank = std::min(lo_rank + 1, n - 1);
  const double frac = pos - static_cast<double>(lo_rank);
  std::vector<double> distinct(values);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<std::uint32_t> rank_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank_of[i] = static_cast<std::uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), values[i]) - distinct.begin());
  }
  std::vector<std::uint32_t> counts(distinct.size());
  std::vector<double> quantiles(resamples);
  for (double& quantile : quantiles) {
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[rank_of[rng.uniform(n)]];
    std::size_t r = 0;
    std::size_t upto = counts[0];
    while (upto <= lo_rank) upto += counts[++r];
    const double lo_value = distinct[r];
    while (upto <= hi_rank) upto += counts[++r];
    quantile = lo_value * (1.0 - frac) + distinct[r] * frac;
  }
  std::sort(quantiles.begin(), quantiles.end());
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto at = [&](double q) {
    return quantiles[static_cast<std::size_t>(q * static_cast<double>(resamples - 1))];
  };
  ci.lo = at(alpha);
  ci.hi = at(1.0 - alpha);
  return ci;
}

/// The resampled p-quantile's law by brute force: every one of the n^n
/// equally likely resamples, counted per value it takes (n <= 6).
std::map<double, std::uint64_t> enumerate_quantile_law(const wu::Sample& sample, double p) {
  const auto& values = sample.values();
  const std::size_t n = values.size();
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(n - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const std::size_t hi_rank = std::min(lo_rank + 1, n - 1);
  const double frac = pos - static_cast<double>(lo_rank);
  std::map<double, std::uint64_t> law;
  std::vector<std::size_t> index(n, 0);
  std::vector<double> draw(n);
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) draw[i] = values[index[i]];
    std::sort(draw.begin(), draw.end());
    ++law[draw[lo_rank] * (1.0 - frac) + draw[hi_rank] * frac];
    std::size_t digit = 0;
    while (digit < n && ++index[digit] == n) index[digit++] = 0;
    if (digit == n) return law;
  }
}

/// The least value whose resample count reaches share q of all n^n
/// resamples, compared in integers scaled exactly as the >= rule reads.
double least_value_reaching(const std::map<double, std::uint64_t>& law, double q) {
  std::uint64_t total = 0;
  for (const auto& [value, count] : law) total += count;
  std::uint64_t upto = 0;
  for (const auto& [value, count] : law) {
    upto += count;
    if (static_cast<double>(upto) >= q * static_cast<double>(total)) return value;
  }
  return law.rbegin()->first;
}

/// An n-value sample of one of the aggregator's shapes: all tied (0), few
/// distinct integers (1, rounds) or continuous (2, energy means).
wu::Sample shaped_sample(std::size_t n, int shape, wu::Rng& rng) {
  wu::Sample sample;
  for (std::size_t i = 0; i < n; ++i) {
    if (shape == 0) sample.push(17.0);
    if (shape == 1) sample.push(static_cast<double>(8 + rng.uniform(6)));
    if (shape == 2) sample.push(rng.uniform01() * 300.0 - 100.0);
  }
  return sample;
}

void expect_bit_equal(const wu::BootstrapCI& got, const wu::BootstrapCI& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean), std::bit_cast<std::uint64_t>(want.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lo), std::bit_cast<std::uint64_t>(want.lo));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hi), std::bit_cast<std::uint64_t>(want.hi));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.level), std::bit_cast<std::uint64_t>(want.level));
}

}  // namespace

TEST(BootstrapCI, ContainsTrueMeanForTightSample) {
  wu::Sample s;
  for (int i = 0; i < 200; ++i) s.push(10.0 + (i % 5));  // mean 12
  const auto ci = wu::BootstrapCI::of_mean(s, 0.95, 1000, 1);
  EXPECT_NEAR(ci.mean, 12.0, 1e-9);
  EXPECT_LE(ci.lo, 12.0);
  EXPECT_GE(ci.hi, 12.0);
  EXPECT_LT(ci.hi - ci.lo, 1.0);  // tight for low variance
}

TEST(BootstrapCI, WidensWithVariance) {
  wu::Sample tight, wide;
  for (int i = 0; i < 100; ++i) {
    tight.push(50.0 + (i % 3));
    wide.push(50.0 + 40.0 * ((i % 7) - 3));
  }
  const auto ci_tight = wu::BootstrapCI::of_mean(tight, 0.95, 1000, 2);
  const auto ci_wide = wu::BootstrapCI::of_mean(wide, 0.95, 1000, 2);
  EXPECT_LT(ci_tight.hi - ci_tight.lo, ci_wide.hi - ci_wide.lo);
}

TEST(BootstrapCI, DegenerateSamples) {
  wu::Sample empty;
  const auto ci_empty = wu::BootstrapCI::of_mean(empty, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(ci_empty.lo, ci_empty.hi);
  wu::Sample one;
  one.push(5.0);
  const auto ci_one = wu::BootstrapCI::of_mean(one, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(ci_one.lo, 5.0);
  EXPECT_DOUBLE_EQ(ci_one.hi, 5.0);
}

TEST(BootstrapCI, DeterministicForSeed) {
  wu::Sample s;
  for (int i = 0; i < 50; ++i) s.push(i);
  const auto a = wu::BootstrapCI::of_mean(s, 0.95, 500, 9);
  const auto b = wu::BootstrapCI::of_mean(s, 0.95, 500, 9);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapCI, LevelClamped) {
  wu::Sample s;
  for (int i = 0; i < 20; ++i) s.push(i);
  const auto ci = wu::BootstrapCI::of_mean(s, 2.0, 200, 1);
  EXPECT_LE(ci.level, 0.999);
  const auto lo = wu::BootstrapCI::of_mean(s, 0.1, 200, 1);
  EXPECT_GE(lo.level, 0.5);
}

TEST(BootstrapCI, QuantileCIBracketsTheEstimate) {
  wu::Sample s;
  for (int i = 0; i < 200; ++i) s.push(i % 40);
  const auto ci = wu::BootstrapCI::of_quantile(s, 0.5, 0.95);
  EXPECT_NEAR(ci.mean, s.median(), 1e-12);
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  EXPECT_LT(ci.lo, ci.hi);

  wu::Sample one;
  one.push(7.0);
  const auto degenerate = wu::BootstrapCI::of_quantile(one, 0.5, 0.95);
  EXPECT_DOUBLE_EQ(degenerate.lo, 7.0);
  EXPECT_DOUBLE_EQ(degenerate.hi, 7.0);
}

TEST(BootstrapCI, NarrowsWithSampleSize) {
  wu::Sample small_sample, big;
  for (int i = 0; i < 10; ++i) small_sample.push((i * 13) % 20);
  for (int i = 0; i < 1000; ++i) big.push((i * 13) % 20);
  const auto ci_small = wu::BootstrapCI::of_mean(small_sample, 0.95, 800, 3);
  const auto ci_big = wu::BootstrapCI::of_mean(big, 0.95, 800, 3);
  EXPECT_LT(ci_big.hi - ci_big.lo, ci_small.hi - ci_small.lo);
}

TEST(BootstrapCI, BitIdenticalToTheSortBasedReference) {
  // Sample shapes the aggregator produces: all-tied cells, rounds (few
  // distinct integers) and energy means (continuous).  No NaN (the
  // documented precondition).
  wu::Rng corpus(20130522);
  std::vector<std::size_t> sizes = {2, 3, 5, 48};
  for (int i = 0; i < 2; ++i) sizes.push_back(2 + corpus.uniform(999));
  for (const std::size_t n : sizes) {
    for (int shape = 0; shape < 3; ++shape) {
      const wu::Sample sample = shaped_sample(n, shape, corpus);
      for (const std::uint64_t resamples : {1ULL, 2ULL, 3ULL, 2000ULL}) {
        for (const double level : {0.5, 0.9, 0.95, 0.999}) {
          const std::uint64_t seed = corpus.next_u64();
          SCOPED_TRACE(testing::Message() << "n=" << n << " shape=" << shape
                                          << " resamples=" << resamples << " level=" << level);
          expect_bit_equal(wu::BootstrapCI::of_mean(sample, level, resamples, seed),
                           reference_of_mean(sample, level, resamples, seed));
        }
      }
    }
  }
}

namespace {

/// `of_means` against the reference on each stream, and its draw count.
void expect_means_match_reference(const wu::Sample& first, const wu::Sample& second,
                                  double level, std::uint64_t resamples, std::uint64_t seed,
                                  std::uint64_t draws) {
  const wu::MeanCIPair pair = wu::BootstrapCI::of_means(first, second, level, resamples, seed);
  expect_bit_equal(pair.first, reference_of_mean(first, level, resamples, seed));
  expect_bit_equal(pair.second, reference_of_mean(second, level, resamples, seed));
  EXPECT_EQ(pair.draws, draws);
}

}  // namespace

TEST(BootstrapCI, SharedDrawPassIsBitIdenticalToTheReferenceOnEachStream) {
  // Equal sizes share one pass of R * n draws; each stream's interval must
  // still be the one its own of_mean call gives, to the bit.
  wu::Rng corpus(20130522);
  for (const std::size_t n : {2u, 3u, 48u, 1000u}) {
    for (const auto& [first_shape, second_shape] :
         {std::pair{1, 2}, std::pair{2, 2}, std::pair{0, 1}, std::pair{1, 1}}) {
      const wu::Sample first = shaped_sample(n, first_shape, corpus);
      const wu::Sample second = shaped_sample(n, second_shape, corpus);
      for (const std::uint64_t resamples : {1ULL, 3ULL, 2000ULL}) {
        for (const double level : {0.5, 0.9, 0.95, 0.999}) {
          const std::uint64_t seed = corpus.next_u64();
          SCOPED_TRACE(testing::Message() << "n=" << n << " shapes=" << first_shape << "/"
                                          << second_shape << " resamples=" << resamples
                                          << " level=" << level);
          expect_means_match_reference(first, second, level, resamples, seed, resamples * n);
        }
      }
    }
  }
}

TEST(BootstrapCI, SharedDrawPassFallsBackToOneStreamEach) {
  // Unequal sizes, a sample below two values, and zero resamples cannot
  // share a pass; each stream then draws (or skips) on its own.
  wu::Rng corpus(7);
  struct Case {
    std::size_t first_n;
    std::size_t second_n;
    std::uint64_t resamples;
    std::uint64_t draws;
  };
  const Case cases[] = {
      {48, 47, 2000, 2000 * 95}, {47, 48, 2000, 2000 * 95}, {48, 0, 2000, 2000 * 48},
      {0, 48, 2000, 2000 * 48},  {1, 1, 2000, 0},           {1, 48, 500, 500 * 48},
      {0, 0, 2000, 0},           {48, 48, 0, 0},            {3, 2, 1, 5},
  };
  for (const Case& c : cases) {
    for (const double level : {0.5, 0.95}) {
      SCOPED_TRACE(testing::Message() << "sizes=" << c.first_n << "/" << c.second_n
                                      << " resamples=" << c.resamples << " level=" << level);
      const wu::Sample first = shaped_sample(c.first_n, 1, corpus);
      const wu::Sample second = shaped_sample(c.second_n, 2, corpus);
      expect_means_match_reference(first, second, level, c.resamples, corpus.next_u64(),
                                   c.draws);
    }
  }
}

TEST(BootstrapCI, AggregatorMeanCIsEqualSeparateOfMeanCalls) {
  // A failed trial leaves rounds one value short of energy (failed trials
  // pay energy too), so the cell's mean CIs take the fallback; with every
  // trial successful they share a pass.  Either way each equals its own
  // of_mean call, and ci.mean_draws counts the draws made.
  for (const bool with_failure : {true, false}) {
    SCOPED_TRACE(with_failure ? "one failed trial" : "all trials succeed");
    wu::Rng rng(31);
    const std::size_t trials = 24;
    ws::Aggregator aggregator(trials);
    wu::Sample rounds, energy;
    for (std::size_t t = 0; t < trials; ++t) {
      ws::SimResult result;
      result.success = !(with_failure && t == 5);
      result.rounds = static_cast<std::int64_t>(1 + rng.uniform(40));
      result.station_energy = {1 + rng.uniform(9), 1 + rng.uniform(9), 1 + rng.uniform(9)};
      aggregator.add(t, result);
      if (result.success) rounds.push(static_cast<double>(result.rounds));
      const auto& e = result.station_energy;
      energy.push(static_cast<double>(e[0] + e[1] + e[2]) / 3.0);
    }
    ASSERT_EQ(rounds.size(), with_failure ? trials - 1 : trials);
    const std::uint64_t resamples = 700;
    const std::uint64_t seed = 0xfeed;
    obs::reset();
    obs::set_enabled(true);
    const ws::CellStats stats = aggregator.finalize(resamples, seed, 0.9);
    obs::set_enabled(false);
    const std::uint64_t draws = obs::snapshot_value(obs::snapshot(), "ci.mean_draws");
    obs::reset();
    expect_bit_equal(stats.mean_ci, wu::BootstrapCI::of_mean(rounds, 0.9, resamples, seed));
    expect_bit_equal(stats.energy_mean_ci,
                     wu::BootstrapCI::of_mean(energy, 0.9, resamples, seed));
    if (obs::kCompiled) {
      EXPECT_EQ(draws, resamples * (with_failure ? 2 * trials - 1 : trials));
    }
  }
}

namespace {

/// n <= 6 samples of the aggregator's shapes: all tied, few distinct
/// integers (rounds), continuous (energy means, throughput).
std::vector<wu::Sample> small_corpus(std::size_t n, wu::Rng& rng) {
  std::vector<wu::Sample> corpus;
  for (int shape = 0; shape < 3; ++shape) {
    for (int copy = 0; copy < (shape == 0 ? 1 : 4); ++copy) {
      wu::Sample sample;
      for (std::size_t i = 0; i < n; ++i) {
        if (shape == 0) sample.push(17.0);
        if (shape == 1) sample.push(static_cast<double>(8 + rng.uniform(3)));
        if (shape == 2) sample.push(rng.uniform01() * 300.0 - 100.0);
      }
      corpus.push_back(sample);
    }
  }
  return corpus;
}

}  // namespace

TEST(BootstrapCI, QuantileMatchesBruteForceEnumeration) {
  // The exact interval against all n^n resamples, counted in integers:
  // both ends and the estimate must match to the bit.
  wu::Rng rng(20130522);
  for (std::size_t n = 2; n <= 6; ++n) {
    for (const wu::Sample& sample : small_corpus(n, rng)) {
      for (const double p : {0.0, 0.5, 0.95, 1.0}) {
        const auto law = enumerate_quantile_law(sample, p);
        for (const double level : {0.5, 0.8, 0.9, 0.95, 0.99, 0.999}) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << p << " level=" << level
                                          << " first=" << sample.values()[0]);
          const double alpha = (1.0 - level) / 2.0;
          const auto ci = wu::BootstrapCI::of_quantile(sample, p, level);
          expect_bit_equal(ci, {sample.quantile(p), least_value_reaching(law, alpha),
                                least_value_reaching(law, 1.0 - alpha), level});
        }
      }
    }
  }
}

TEST(BootstrapCI, QuantileTakesTheValueWhereTheLawHitsAlphaExactly) {
  // At level .5 (alpha = .25) a value's cumulative count can equal exactly
  // n^n / 4 or 3 n^n / 4.  The >= rule then takes that value as the
  // interval end, not the next one above it: a tie goes to the lower side.
  // No n = 4 sample does this (every tie pattern was searched at each p:
  // no count reaches 64 or 192 of 256), nor any n = 6 sample over four
  // values; every untied n = 2 sample does, at both ends (counts 1, 2, 1).
  wu::Rng rng(20130522);
  int hits = 0;
  for (std::size_t n = 2; n <= 6; ++n) {
    for (const wu::Sample& sample : small_corpus(n, rng)) {
      const auto law = enumerate_quantile_law(sample, 0.5);
      const auto ci = wu::BootstrapCI::of_quantile(sample, 0.5, 0.5);
      std::uint64_t total = 0;
      for (const auto& [value, count] : law) total += count;
      std::uint64_t upto = 0;
      for (const auto& [value, count] : law) {
        upto += count;
        if (4 * upto != total && 4 * upto != 3 * total) continue;
        SCOPED_TRACE(testing::Message() << "n=" << n << " value=" << value);
        ++hits;
        ASSERT_NE(law.upper_bound(value), law.end());
        EXPECT_EQ(4 * upto == total ? ci.lo : ci.hi, value);
      }
    }
  }
  EXPECT_GE(hits, 2) << "no corpus sample whose median law reaches alpha exactly";
}

TEST(BootstrapCI, QuantileAtFourThousandTrialsFallsInsideTheMonteCarloSpread) {
  // d = n = 4096 (continuous) and d = 6 (few distinct), the sizes of a
  // throughput cell at --trials=4096.  The exact ends must lie within the
  // range the 2000-resample estimate gives over 50 seeds.
  wu::Rng rng(7);
  for (int shape = 0; shape < 2; ++shape) {
    wu::Sample sample;
    for (int i = 0; i < 4096; ++i) {
      sample.push(shape == 0 ? rng.uniform01() * 300.0 - 100.0
                             : static_cast<double>(8 + rng.uniform(6)));
    }
    const auto ci = wu::BootstrapCI::of_quantile(sample, 0.5, 0.95);
    SCOPED_TRACE(testing::Message() << "shape=" << shape << " lo=" << ci.lo << " hi=" << ci.hi);
    EXPECT_TRUE(std::isfinite(ci.lo));
    EXPECT_TRUE(std::isfinite(ci.hi));
    EXPECT_LE(ci.lo, ci.mean);
    EXPECT_LE(ci.mean, ci.hi);
    double lo_min = INFINITY, lo_max = -INFINITY, hi_min = INFINITY, hi_max = -INFINITY;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const auto mc = monte_carlo_of_quantile(sample, 0.5, 0.95, 2000, seed);
      lo_min = std::min(lo_min, mc.lo);
      lo_max = std::max(lo_max, mc.lo);
      hi_min = std::min(hi_min, mc.hi);
      hi_max = std::max(hi_max, mc.hi);
    }
    EXPECT_LE(lo_min, ci.lo);
    EXPECT_LE(ci.lo, lo_max);
    EXPECT_LE(hi_min, ci.hi);
    EXPECT_LE(ci.hi, hi_max);
  }
}

TEST(BootstrapCI, QuantileIntervalNestsAsTheLevelRises) {
  wu::Rng rng(11);
  for (const std::size_t n : {2u, 7u, 48u, 1000u}) {
    for (int shape = 0; shape < 2; ++shape) {
      wu::Sample sample;
      for (std::size_t i = 0; i < n; ++i) {
        sample.push(shape == 0 ? rng.uniform01() : static_cast<double>(rng.uniform(5)));
      }
      for (const double p : {0.0, 0.5, 0.95, 1.0}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " shape=" << shape << " p=" << p);
        wu::BootstrapCI outer = wu::BootstrapCI::of_quantile(sample, p, 0.5);
        for (const double level : {0.6, 0.8, 0.9, 0.95, 0.99, 0.999}) {
          const auto ci = wu::BootstrapCI::of_quantile(sample, p, level);
          EXPECT_LE(ci.lo, outer.lo) << "level=" << level;
          EXPECT_GE(ci.hi, outer.hi) << "level=" << level;
          outer = ci;
        }
      }
    }
  }
}
