/// util/simd kernel suite: the runtime-dispatched table (AVX2/NEON when
/// built and supported, scalar otherwise) must match a naive reference —
/// and the scalar table — bit for bit on randomized inputs, so engine
/// results never depend on the host ISA.  Also pins the force-scalar
/// override and the first_set_below edge cases the engines rely on.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace simd = wakeup::util::simd;
namespace wu = wakeup::util;

namespace {

/// Restores the dispatch table after a test that pins the scalar one.
struct KernelGuard {
  ~KernelGuard() { simd::set_force_scalar(false); }
};

struct Reduced {
  std::vector<std::uint64_t> any;
  std::vector<std::uint64_t> multi;
};

Reduced reference_reduce(const std::vector<std::uint64_t>& matrix, std::size_t rows,
                         std::size_t stride, std::size_t words) {
  Reduced out;
  out.any.assign(words, 0);
  out.multi.assign(words, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t v = matrix[r * stride + w];
      out.multi[w] |= out.any[w] & v;
      out.any[w] |= v;
    }
  }
  return out;
}

std::vector<std::uint64_t> random_words(wu::Rng& rng, std::size_t count, int density_shift) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) {
    w = rng.next_u64();
    // Sparser bits exercise the any/multi distinction, not just saturation.
    for (int d = 0; d < density_shift; ++d) w &= rng.next_u64();
  }
  return words;
}

}  // namespace

TEST(SimdKernels, OrReduceMatchesReferenceAcrossShapes) {
  // The engines' reduction: or_accumulate folded row by row down a
  // station-major matrix, over every row count and partial tile width.
  KernelGuard guard;
  wu::Rng rng(20130522);
  for (const bool force_scalar : {false, true}) {
    simd::set_force_scalar(force_scalar);
    for (std::size_t rows = 0; rows <= 33; ++rows) {
      for (std::size_t words = 1; words <= 8; ++words) {
        const std::size_t stride = 8;
        const auto matrix = random_words(rng, std::max<std::size_t>(rows, 1) * stride, 1);
        const Reduced want = reference_reduce(matrix, rows, stride, words);
        std::vector<std::uint64_t> any(words, 0);
        std::vector<std::uint64_t> multi(words, 0);
        for (std::size_t r = 0; r < rows; ++r) {
          simd::active().or_accumulate(any.data(), multi.data(), matrix.data() + r * stride,
                                       words);
        }
        EXPECT_EQ(any, want.any) << "rows=" << rows << " words=" << words
                                 << " scalar=" << force_scalar;
        EXPECT_EQ(multi, want.multi) << "rows=" << rows << " words=" << words
                                     << " scalar=" << force_scalar;
      }
    }
  }
}

TEST(SimdKernels, OrAccumulateIsIncremental) {
  // Folding rows one at a time through or_accumulate must equal the
  // whole-matrix reference reduction — the engines' mid-tile re-resolve
  // depends on it.
  KernelGuard guard;
  wu::Rng rng(7);
  for (const bool force_scalar : {false, true}) {
    simd::set_force_scalar(force_scalar);
    const std::size_t rows = 9, words = 8;
    const auto matrix = random_words(rng, rows * words, 2);
    std::vector<std::uint64_t> any(words, 0);
    std::vector<std::uint64_t> multi(words, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      simd::active().or_accumulate(any.data(), multi.data(), matrix.data() + r * words, words);
    }
    const Reduced want = reference_reduce(matrix, rows, words, words);
    EXPECT_EQ(any, want.any) << force_scalar;
    EXPECT_EQ(multi, want.multi) << force_scalar;
  }
}

TEST(SimdKernels, MaskedPopcountPairMatchesReference) {
  KernelGuard guard;
  wu::Rng rng(99);
  for (const bool force_scalar : {false, true}) {
    simd::set_force_scalar(force_scalar);
    for (const std::size_t words : {1u, 2u, 4u, 5u, 8u, 16u, 31u}) {
      const auto any = random_words(rng, words, 1);
      const auto multi = random_words(rng, words, 2);
      const auto mask = random_words(rng, words, 0);
      std::uint64_t want_sil = 0, want_col = 0;
      for (std::size_t w = 0; w < words; ++w) {
        want_sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
        want_col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
      }
      // Accumulating: the kernel adds to pre-existing totals.
      std::uint64_t sil = 5, col = 11;
      simd::active().masked_popcount_pair(any.data(), multi.data(), mask.data(), words, &sil,
                                          &col);
      EXPECT_EQ(sil, want_sil + 5) << "words=" << words << " scalar=" << force_scalar;
      EXPECT_EQ(col, want_col + 11) << "words=" << words << " scalar=" << force_scalar;
    }
  }
}

TEST(SimdKernels, FirstSetBelowEdges) {
  const std::uint64_t none[4] = {0, 0, 0, 0};
  EXPECT_EQ(simd::first_set_below(none, 4, 256), simd::kNoBit);
  EXPECT_EQ(simd::first_set_below(none, 0, 64), simd::kNoBit);

  std::uint64_t words[4] = {0, 0, 1ull << 5, 1ull};
  EXPECT_EQ(simd::first_set_below(words, 4, 256), 128u + 5u);
  // The qualifying bit sits exactly at the limit: excluded.
  EXPECT_EQ(simd::first_set_below(words, 4, 133), simd::kNoBit);
  EXPECT_EQ(simd::first_set_below(words, 4, 134), 133u);
  // Limit inside an earlier word: later words must not be scanned past it.
  EXPECT_EQ(simd::first_set_below(words, 4, 64), simd::kNoBit);
  // n_words clips before the limit does.
  EXPECT_EQ(simd::first_set_below(words, 2, 256), simd::kNoBit);

  words[0] = 1ull << 63;
  EXPECT_EQ(simd::first_set_below(words, 4, 256), 63u);
  EXPECT_EQ(simd::first_set_below(words, 4, 63), simd::kNoBit);
}

TEST(SimdKernels, ForceScalarPinsTheScalarTable) {
  KernelGuard guard;
  simd::set_force_scalar(true);
  EXPECT_STREQ(simd::active_name(), "scalar");
  simd::set_force_scalar(false);
  // Whatever the build/CPU supports — never empty, and stable across calls.
  EXPECT_STRNE(simd::active_name(), "");
  EXPECT_STREQ(simd::active_name(), simd::active().name);
}
