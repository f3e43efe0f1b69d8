#include "combinatorics/doubling_schedule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

namespace wc = wakeup::comb;

namespace {

wc::DoublingSchedule::Config config_for(std::uint32_t n, std::uint32_t k_max) {
  wc::DoublingSchedule::Config c;
  c.n = n;
  c.k_max = k_max;
  c.kind = wc::FamilyKind::kRandomized;
  c.seed = 7;
  c.c = 4.0;
  return c;
}

}  // namespace

TEST(DoublingSchedule, FamilyLevels) {
  const wc::DoublingSchedule sched(config_for(256, 16));
  // k_max = 16 -> families for 2^1..2^4.
  EXPECT_EQ(sched.family_count(), 4u);
  EXPECT_EQ(sched.family(0).params().k, 2u);
  EXPECT_EQ(sched.family(1).params().k, 4u);
  EXPECT_EQ(sched.family(2).params().k, 8u);
  EXPECT_EQ(sched.family(3).params().k, 16u);
}

TEST(DoublingSchedule, NonPowerOfTwoKmaxRoundsUp) {
  const wc::DoublingSchedule sched(config_for(256, 9));
  EXPECT_EQ(sched.family_count(), 4u);  // ceil(log2 9) = 4 -> up to k=16
  EXPECT_EQ(sched.family(3).params().k, 16u);
}

TEST(DoublingSchedule, AtLeastOneFamily) {
  const wc::DoublingSchedule sched(config_for(16, 1));
  EXPECT_GE(sched.family_count(), 1u);
}

TEST(DoublingSchedule, FamilyKClampedToN) {
  const wc::DoublingSchedule sched(config_for(8, 32));
  for (std::size_t i = 0; i < sched.family_count(); ++i) {
    EXPECT_LE(sched.family(i).params().k, 8u);
  }
}

TEST(DoublingSchedule, PeriodIsSumOfLengths) {
  const wc::DoublingSchedule sched(config_for(128, 8));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sched.family_count(); ++i) total += sched.family(i).length();
  EXPECT_EQ(sched.period(), total);
}

TEST(DoublingSchedule, StartsArePrefixSums) {
  const wc::DoublingSchedule sched(config_for(128, 8));
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < sched.family_count(); ++i) {
    EXPECT_EQ(sched.family_start(i), expected);
    expected += sched.family(i).length();
  }
}

TEST(DoublingSchedule, TransmitsMatchesUnderlyingFamilies) {
  const wc::DoublingSchedule sched(config_for(64, 8));
  for (std::uint64_t idx = 0; idx < sched.period(); ++idx) {
    const auto pos = sched.position(idx);
    const auto& fam = sched.family(pos.family_index);
    for (wc::Station u = 0; u < 64; u += 7) {
      EXPECT_EQ(sched.transmits(u, idx), fam.transmits(u, static_cast<std::size_t>(pos.step)));
    }
  }
}

TEST(DoublingSchedule, TransmitsWrapsModPeriod) {
  const wc::DoublingSchedule sched(config_for(64, 4));
  const std::uint64_t z = sched.period();
  for (std::uint64_t idx = 0; idx < 50; ++idx) {
    for (wc::Station u = 0; u < 64; u += 11) {
      EXPECT_EQ(sched.transmits(u, idx), sched.transmits(u, idx + z));
      EXPECT_EQ(sched.transmits(u, idx), sched.transmits(u, idx + 3 * z));
    }
  }
}

TEST(DoublingSchedule, IsFamilyStart) {
  const wc::DoublingSchedule sched(config_for(64, 8));
  std::size_t starts_seen = 0;
  for (std::uint64_t idx = 0; idx < sched.period(); ++idx) {
    if (sched.is_family_start(idx)) ++starts_seen;
  }
  EXPECT_EQ(starts_seen, sched.family_count());
  EXPECT_TRUE(sched.is_family_start(0));
  EXPECT_TRUE(sched.is_family_start(sched.period()));  // wraps
}

TEST(DoublingSchedule, NextFamilyStartProperties) {
  const wc::DoublingSchedule sched(config_for(64, 8));
  const std::uint64_t z = sched.period();
  for (std::uint64_t t = 0; t < 2 * z; t += 13) {
    const std::uint64_t sigma = sched.next_family_start(t);
    EXPECT_GE(sigma, t);
    EXPECT_TRUE(sched.is_family_start(sigma)) << "t=" << t;
    // Minimality: no family start strictly between t and sigma.
    for (std::uint64_t j = t; j < sigma; ++j) {
      EXPECT_FALSE(sched.is_family_start(j)) << "t=" << t << " j=" << j;
    }
  }
}

TEST(DoublingSchedule, NextFamilyStartAtStartIsIdentity) {
  const wc::DoublingSchedule sched(config_for(64, 8));
  for (std::size_t i = 0; i < sched.family_count(); ++i) {
    const std::uint64_t start = sched.family_start(i);
    EXPECT_EQ(sched.next_family_start(start), start);
  }
}

TEST(DoublingSchedule, PrefixCapTruncatesLadder) {
  auto config = config_for(256, 256);
  const wc::DoublingSchedule full(config);
  config.prefix_cap = 200;
  const wc::DoublingSchedule capped(config);
  ASSERT_LT(capped.family_count(), full.family_count());
  EXPECT_GE(capped.period(), 200u);  // the crossing family is kept whole
  // The truncation is a pure prefix: identical bits up to the capped period.
  for (std::uint64_t idx = 0; idx < capped.period(); ++idx) {
    for (wc::Station u = 0; u < 256; u += 31) {
      EXPECT_EQ(capped.transmits(u, idx), full.transmits(u, idx)) << "idx=" << idx;
    }
  }
}

TEST(DoublingSchedule, PrefixCapKeepsAtLeastOneFamily) {
  auto config = config_for(64, 32);
  config.prefix_cap = 1;  // below the first family's length
  const wc::DoublingSchedule sched(config);
  EXPECT_EQ(sched.family_count(), 1u);
  EXPECT_GT(sched.period(), 1u);
}

TEST(DoublingSchedule, ScheduleWordMatchesTransmits) {
  for (const auto kind : {wc::FamilyKind::kRandomized, wc::FamilyKind::kModPrime,
                          wc::FamilyKind::kKautzSingleton, wc::FamilyKind::kBitSplitter}) {
    auto config = config_for(64, kind == wc::FamilyKind::kBitSplitter ? 2 : 8);
    config.kind = kind;
    const wc::DoublingSchedule sched(config);
    const std::uint64_t z = sched.period();
    for (wc::Station u = 0; u < 64; u += 9) {
      // Unaligned starts included: wakeup_with_s asks for words at d/2.
      for (std::uint64_t from = 0; from < 2 * z + 64; from += 37) {
        std::uint64_t word = 0;
        sched.schedule_words({&u, 1}, from, {&word, 1});
        for (unsigned j = 0; j < 64; ++j) {
          ASSERT_EQ((word >> j) & 1u, sched.transmits(u, from + j) ? 1u : 0u)
              << "kind=" << wc::family_kind_name(kind) << " u=" << u << " from=" << from
              << " j=" << j;
        }
      }
    }
  }
}

TEST(DoublingSchedule, ScheduleWordsMatchTransmitsAcrossBoundaries) {
  // One schedule_words call for many stations must give each station its
  // own bits, alone or in company, for blocks straddling every family
  // boundary and the period wrap (where words come from several families).
  for (const auto kind : {wc::FamilyKind::kRandomized, wc::FamilyKind::kModPrime}) {
    auto config = config_for(64, 16);
    config.kind = kind;
    const wc::DoublingSchedule sched(config);
    ASSERT_GE(sched.family_count(), 3u);
    std::vector<wc::Station> stations;
    // More than 64 stations, so calls run in several chunks; ids past 63
    // are out of the universe.
    for (wc::Station u = 0; u < 150; ++u) stations.push_back(u);
    std::vector<std::uint64_t> froms;
    for (std::size_t f = 0; f < sched.family_count(); ++f) {
      const std::uint64_t start = sched.family_start(f) + sched.period();
      for (const std::uint64_t back : {1u, 10u, 63u}) froms.push_back(start - back);
    }
    for (const std::uint64_t back : {1u, 30u, 63u}) froms.push_back(sched.period() - back);
    std::uint64_t ones = 0;
    for (const std::uint64_t from : froms) {
      std::vector<std::uint64_t> words(stations.size());
      sched.schedule_words(stations, from, words);
      for (std::size_t i = 0; i < stations.size(); ++i) {
        std::uint64_t single = 0;
        sched.schedule_words({&stations[i], 1}, from, {&single, 1});
        ASSERT_EQ(words[i], single) << "kind=" << wc::family_kind_name(kind)
                                    << " from=" << from << " u=" << stations[i];
        for (unsigned j = 0; j < 64; ++j) {
          ASSERT_EQ((words[i] >> j) & 1u, sched.transmits(stations[i], from + j) ? 1u : 0u)
              << "kind=" << wc::family_kind_name(kind) << " from=" << from
              << " u=" << stations[i] << " j=" << j;
        }
        ones += static_cast<std::uint64_t>(std::popcount(single));
      }
    }
    EXPECT_GT(ones, 0u);
    // An empty call writes nothing.
    std::uint64_t sentinel = 7;
    sched.schedule_words({}, 0, {&sentinel, 1});
    EXPECT_EQ(sentinel, 7u);
  }
}

TEST(DoublingSchedule, DeterministicForSeed) {
  const wc::DoublingSchedule a(config_for(64, 8));
  const wc::DoublingSchedule b(config_for(64, 8));
  EXPECT_EQ(a.period(), b.period());
  for (std::uint64_t idx = 0; idx < a.period(); idx += 5) {
    for (wc::Station u = 0; u < 64; u += 9) {
      EXPECT_EQ(a.transmits(u, idx), b.transmits(u, idx));
    }
  }
}
