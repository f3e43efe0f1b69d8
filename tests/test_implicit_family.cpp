#include "combinatorics/implicit_family.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "combinatorics/doubling_schedule.hpp"
#include "combinatorics/verifier.hpp"
#include "util/rng.hpp"

namespace wc = wakeup::comb;
namespace wu = wakeup::util;

namespace {

struct GridPoint {
  std::uint32_t n;
  std::uint32_t k;
};

const std::vector<GridPoint>& grid() {
  static const std::vector<GridPoint> points = {
      {1, 1}, {2, 2}, {7, 2},  {16, 2},  {16, 5},  {31, 4},
      {64, 2}, {64, 8}, {100, 3}, {128, 16}, {200, 7}, {256, 64},
  };
  return points;
}

const std::vector<wc::FamilyKind>& kinds() {
  static const std::vector<wc::FamilyKind> all = {
      wc::FamilyKind::kRandomized,
      wc::FamilyKind::kBitSplitter,  // k > 2 points exercise the fallback
      wc::FamilyKind::kModPrime,
      wc::FamilyKind::kKautzSingleton,
  };
  return all;
}

}  // namespace

// The core tentpole contract: for every builder kind over the sampled
// (n,k) grid, the implicit family and the materialized builder agree on
// every (set, station) bit — via contains, membership_word, and
// materialize().
TEST(ImplicitFamily, BitIdenticalToMaterializedBuilders) {
  for (const wc::FamilyKind kind : kinds()) {
    for (const auto& [n, k] : grid()) {
      const std::uint64_t seed = wu::hash_words({n, k, 99});
      const auto implicit = wc::make_implicit_family(kind, n, k, seed);
      const auto built = wc::build_family(kind, n, k, seed);
      ASSERT_EQ(implicit->length(), built.length())
          << wc::family_kind_name(kind) << " n=" << n << " k=" << k;
      ASSERT_EQ(implicit->params().n, built.params().n);
      ASSERT_EQ(implicit->params().k, built.params().k);
      EXPECT_EQ(implicit->origin(), built.origin());
      for (std::size_t j = 0; j < built.length(); ++j) {
        for (wc::Station u = 0; u < n; ++u) {
          ASSERT_EQ(implicit->contains(j, u), built.transmits(u, j))
              << wc::family_kind_name(kind) << " n=" << n << " k=" << k << " j=" << j
              << " u=" << u;
        }
      }
    }
  }
}

TEST(ImplicitFamily, MembershipWordMatchesContains) {
  for (const wc::FamilyKind kind : kinds()) {
    for (const auto& [n, k] : grid()) {
      const std::uint64_t seed = wu::hash_words({n, k, 7});
      const auto implicit = wc::make_implicit_family(kind, n, k, seed);
      const std::size_t length = implicit->length();
      for (wc::Station u = 0; u < n; u += (n > 16 ? 13 : 1)) {
        for (std::size_t from = 0; from < length; from += 17) {
          const std::uint64_t word = implicit->membership_word(u, from);
          const std::size_t end = std::min<std::size_t>(length - from, 64);
          for (std::size_t j = 0; j < end; ++j) {
            ASSERT_EQ((word >> j) & 1u, implicit->contains(from + j, u) ? 1u : 0u)
                << wc::family_kind_name(kind) << " n=" << n << " k=" << k
                << " from=" << from << " u=" << u << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(ImplicitFamily, MembershipWordsMatchMembershipWord) {
  // One membership_words call for many stations gives each its own
  // membership_word over the family's sets, whatever the other stations.
  for (const wc::FamilyKind kind : kinds()) {
    for (const auto& [n, k] : grid()) {
      const auto implicit = wc::make_implicit_family(kind, n, k, wu::hash_words({n, k, 9}));
      const std::size_t length = implicit->length();
      std::vector<wc::Station> stations;
      for (wc::Station u = 0; u < n + 3; u += (n > 16 ? 7 : 1)) stations.push_back(u);
      std::vector<std::uint64_t> words(stations.size());
      for (std::size_t from = 0; from < length; from += 23) {
        implicit->membership_words(stations, from, words);
        const std::size_t end = std::min<std::size_t>(length - from, 64);
        const std::uint64_t valid = end == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << end) - 1;
        for (std::size_t i = 0; i < stations.size(); ++i) {
          ASSERT_EQ(words[i] & valid, implicit->membership_word(stations[i], from) & valid)
              << wc::family_kind_name(kind) << " n=" << n << " k=" << k << " from=" << from
              << " u=" << stations[i];
        }
      }
    }
  }
}

TEST(ImplicitFamily, MaterializeRoundTrips) {
  for (const wc::FamilyKind kind : kinds()) {
    const auto implicit = wc::make_implicit_family(kind, 64, 8, 5);
    const auto materialized = implicit->materialize();
    const auto built = wc::build_family(kind, 64, 8, 5);
    ASSERT_EQ(materialized.length(), built.length());
    for (std::size_t j = 0; j < built.length(); ++j) {
      for (wc::Station u = 0; u < 64; ++u) {
        ASSERT_EQ(materialized.transmits(u, j), built.transmits(u, j));
      }
    }
  }
}

// The proven constructions stay proven through the implicit path: the
// verifier accepts their materializations.
TEST(ImplicitFamily, VerifierPassesOnImplicitModPrime) {
  const auto family = wc::make_implicit_family(wc::FamilyKind::kModPrime, 24, 3, 1);
  const auto report = wc::verify_exhaustive(family->materialize());
  EXPECT_TRUE(report.ok) << "subsets checked: " << report.subsets_checked;
}

TEST(ImplicitFamily, VerifierPassesOnImplicitKautzSingleton) {
  const auto family = wc::make_implicit_family(wc::FamilyKind::kKautzSingleton, 24, 3, 1);
  const auto report = wc::verify_exhaustive(family->materialize());
  EXPECT_TRUE(report.ok) << "subsets checked: " << report.subsets_checked;
}

TEST(ImplicitFamily, GreedyWrapsMaterialized) {
  const auto implicit = wc::make_implicit_family(wc::FamilyKind::kGreedy, 10, 3, 2);
  const auto built = wc::build_greedy(10, 3, 2);
  ASSERT_EQ(implicit->length(), built.length());
  for (std::size_t j = 0; j < built.length(); ++j) {
    for (wc::Station u = 0; u < 10; ++u) {
      ASSERT_EQ(implicit->contains(j, u), built.transmits(u, j));
    }
  }
}

// build_randomized draws membership from the counter RNG, so any single
// bit is random-accessible: spot-check that a fresh implicit family over
// the same (seed, n, k) re-derives the exact realized sets.
TEST(ImplicitFamily, RandomizedBuilderIsCounterBased) {
  const auto built = wc::build_randomized(96, 6, 4.0, 42);
  const auto implicit = wc::make_implicit_family(wc::FamilyKind::kRandomized, 96, 6, 42, 4.0);
  ASSERT_EQ(implicit->length(), built.length());
  for (std::size_t j = 0; j < built.length(); ++j) {
    for (wc::Station u = 0; u < 96; ++u) {
      ASSERT_EQ(implicit->contains(j, u), built.transmits(u, j)) << "j=" << j << " u=" << u;
    }
  }
}

// DoublingSchedule serves the same bits through the implicit backend as
// the lazily materialized families.
TEST(ImplicitFamily, DoublingScheduleMatchesMaterializedFamilies) {
  for (const wc::FamilyKind kind : kinds()) {
    wc::DoublingSchedule::Config config;
    config.n = 64;
    config.k_max = 8;
    config.kind = kind;
    config.seed = 3;
    const wc::DoublingSchedule sched(config);
    for (std::uint64_t idx = 0; idx < sched.period(); ++idx) {
      const auto pos = sched.position(idx);
      const auto& fam = sched.family(pos.family_index);
      for (wc::Station u = 0; u < 64; u += 5) {
        ASSERT_EQ(sched.transmits(u, idx), fam.transmits(u, static_cast<std::size_t>(pos.step)))
            << wc::family_kind_name(kind) << " idx=" << idx << " u=" << u;
      }
    }
  }
}
