#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace wu = wakeup::util;

TEST(Rng, SameSeedSameStream) {
  wu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  wu::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformRespectsBound) {
  wu::Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformGoldenValues) {
  // First draws of one seed per bound.  Every consumer's draw sequence
  // (bootstrap resampling, randomized protocols, pattern generators), and
  // so every report byte, depends on them.  2^63+1 rejects often,
  // exercising the rejection loop.
  const struct {
    std::uint64_t bound;
    std::uint64_t draws[8];
  } golden[] = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0}},
      {2, {0, 0, 0, 1, 0, 1, 1, 1}},
      {48, {19, 22, 22, 44, 22, 24, 42, 37}},
      {(1ULL << 32) + 1,
       {1727457386ULL, 2035779954ULL, 2006082723ULL, 3950956410ULL, 2043104369ULL,
        2175949677ULL, 3822535310ULL, 3379008236ULL}},
      {(1ULL << 63) + 1,
       {8484614283163732579ULL, 4387533224057129912ULL, 8208832070553421338ULL,
        6892240006986193769ULL, 1130181048255027327ULL, 9016127144050021545ULL,
        437346071877647417ULL, 1706573736811904823ULL}},
  };
  for (const auto& row : golden) {
    wu::Rng rng(20130522);
    for (const std::uint64_t want : row.draws) EXPECT_EQ(rng.uniform(row.bound), want) << row.bound;
  }
}

TEST(Rng, UniformZeroBoundReturnsZero) {
  wu::Rng rng(7);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformCoversAllResidues) {
  wu::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  wu::Rng rng(13);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], trials / 10, trials / 50) << "residue " << v;
  }
}

TEST(Rng, UniformRangeInclusive) {
  wu::Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRangeDegenerate) {
  wu::Rng rng(17);
  EXPECT_EQ(rng.uniform_range(5, 5), 5);
  EXPECT_EQ(rng.uniform_range(5, 4), 5);  // inverted: returns lo
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  wu::Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  wu::Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  wu::Rng rng(29);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, trials / 4, trials / 50);
}

TEST(Rng, BernoulliPow2Extremes) {
  wu::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.bernoulli_pow2(0));   // probability 1
    EXPECT_FALSE(rng.bernoulli_pow2(64)); // probability < 2^-63
    EXPECT_FALSE(rng.bernoulli_pow2(100));
  }
}

TEST(Rng, BernoulliPow2Frequency) {
  wu::Rng rng(37);
  const int trials = 200000;
  for (unsigned e : {1u, 2u, 4u}) {
    int hits = 0;
    for (int i = 0; i < trials; ++i) hits += rng.bernoulli_pow2(e) ? 1 : 0;
    const double expected = trials / static_cast<double>(1ULL << e);
    EXPECT_NEAR(hits, expected, 6.0 * std::sqrt(expected)) << "e=" << e;
  }
}

TEST(Rng, SplitIsIndependentOfParentPosition) {
  wu::Rng a(99);
  const wu::Rng split_before = a.split(5);
  (void)a.next_u64();
  const wu::Rng split_after = a.split(5);
  wu::Rng x = split_before, y = split_after;
  // split() is a pure function of (seed, tag): consuming the parent stream
  // must not change the derived stream.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(x.next_u64(), y.next_u64());
}

TEST(Rng, SplitTagsProduceDistinctStreams) {
  wu::Rng a(99);
  wu::Rng s1 = a.split(1), s2 = a.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.next_u64() == s2.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, CoinRunCapped) {
  wu::Rng rng(41);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(rng.coin_run(3), 3u);
}

TEST(Mix, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(wu::mix64(12345), wu::mix64(12345));
  EXPECT_NE(wu::mix64(1), wu::mix64(2));
  // Consecutive inputs should differ in many bits (avalanche, loose check).
  const std::uint64_t d = wu::mix64(1000) ^ wu::mix64(1001);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += static_cast<int>((d >> i) & 1);
  EXPECT_GT(bits, 10);
}

TEST(Mix, HashWordsOrderSensitive) {
  EXPECT_NE(wu::hash_words({1, 2}), wu::hash_words({2, 1}));
  EXPECT_EQ(wu::hash_words({1, 2, 3}), wu::hash_words({1, 2, 3}));
  EXPECT_NE(wu::hash_words({1, 2, 3}), wu::hash_words({1, 2, 4}));
}

TEST(Mix, HashWordsLengthSensitive) {
  EXPECT_NE(wu::hash_words({1}), wu::hash_words({1, 0}));
}

TEST(Mix, HashWordsFromContinuesTheFold) {
  EXPECT_EQ(wu::hash_words_from(wu::hash_words({7, 8, 9}), {10, 11}),
            wu::hash_words({7, 8, 9, 10, 11}));
  EXPECT_EQ(wu::hash_words_from(wu::hash_words({7}), {}), wu::hash_words({7}));
  static_assert(wu::hash_words_from(wu::hash_words({}), {1, 2}) == wu::hash_words({1, 2}));
}

TEST(Xoshiro, KnownNonZeroOutput) {
  wu::Xoshiro256ss gen(0);  // even seed 0 must produce a usable stream
  bool nonzero = false;
  for (int i = 0; i < 8; ++i) nonzero = nonzero || gen.next() != 0;
  EXPECT_TRUE(nonzero);
}
