#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>

// ISA gating: WAKEUP_SIMD (CMake option) compiles the vector tables in;
// which one runs is still a runtime decision (cpuid on x86-64, always-on
// NEON on arm64).  Without the option only the scalar table exists and
// every query resolves to it.
#if defined(WAKEUP_SIMD)
#if (defined(__x86_64__) || defined(__amd64__)) && (defined(__GNUC__) || defined(__clang__))
#define WAKEUP_SIMD_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)  // A64 only: the kernels use vaddvq_u8 (no AArch32 equivalent)
#define WAKEUP_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace wakeup::util::simd {

namespace {

// ------------------------------------------------------------- scalar --

void or_accumulate_scalar(std::uint64_t* any, std::uint64_t* multi, const std::uint64_t* row,
                          std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    multi[w] |= any[w] & row[w];
    any[w] |= row[w];
  }
}

void masked_popcount_pair_scalar(const std::uint64_t* any, const std::uint64_t* multi,
                                 const std::uint64_t* mask, std::size_t words,
                                 std::uint64_t* silences, std::uint64_t* collisions) {
  std::uint64_t sil = 0;
  std::uint64_t col = 0;
  for (std::size_t w = 0; w < words; ++w) {
    sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
    col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
  }
  *silences += sil;
  *collisions += col;
}

constexpr Kernels kScalar{or_accumulate_scalar, masked_popcount_pair_scalar, "scalar"};

// --------------------------------------------------------------- AVX2 --

#if defined(WAKEUP_SIMD_AVX2)

__attribute__((target("avx2"))) void or_accumulate_avx2(std::uint64_t* any,
                                                        std::uint64_t* multi,
                                                        const std::uint64_t* row,
                                                        std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(any + w));
    const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(multi + w));
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(multi + w),
                        _mm256_or_si256(m, _mm256_and_si256(a, r)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(any + w), _mm256_or_si256(a, r));
  }
  for (; w < words; ++w) {
    multi[w] |= any[w] & row[w];
    any[w] |= row[w];
  }
}

/// Per-byte popcount of a 256-bit lane via the nibble LUT (vpshufb), then
/// horizontal 64-bit sums with vpsadbw.
__attribute__((target("avx2"))) inline __m256i popcount_bytes_avx2(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low_mask));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void masked_popcount_pair_avx2(
    const std::uint64_t* any, const std::uint64_t* multi, const std::uint64_t* mask,
    std::size_t words, std::uint64_t* silences, std::uint64_t* collisions) {
  std::size_t w = 0;
  __m256i sil_acc = _mm256_setzero_si256();
  __m256i col_acc = _mm256_setzero_si256();
  for (; w + 4 <= words; w += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(any + w));
    const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(multi + w));
    const __m256i k = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    sil_acc = _mm256_add_epi64(sil_acc, popcount_bytes_avx2(_mm256_andnot_si256(a, k)));
    col_acc = _mm256_add_epi64(col_acc, popcount_bytes_avx2(_mm256_and_si256(m, k)));
  }
  std::uint64_t sil = 0;
  std::uint64_t col = 0;
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sil_acc);
  sil += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), col_acc);
  col += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < words; ++w) {
    sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
    col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
  }
  *silences += sil;
  *collisions += col;
}

constexpr Kernels kAvx2{or_accumulate_avx2, masked_popcount_pair_avx2, "avx2"};

#endif  // WAKEUP_SIMD_AVX2

// --------------------------------------------------------------- NEON --

#if defined(WAKEUP_SIMD_NEON)

void or_accumulate_neon(std::uint64_t* any, std::uint64_t* multi, const std::uint64_t* row,
                        std::size_t words) {
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t a = vld1q_u64(any + w);
    const uint64x2_t m = vld1q_u64(multi + w);
    const uint64x2_t r = vld1q_u64(row + w);
    vst1q_u64(multi + w, vorrq_u64(m, vandq_u64(a, r)));
    vst1q_u64(any + w, vorrq_u64(a, r));
  }
  for (; w < words; ++w) {
    multi[w] |= any[w] & row[w];
    any[w] |= row[w];
  }
}

void masked_popcount_pair_neon(const std::uint64_t* any, const std::uint64_t* multi,
                               const std::uint64_t* mask, std::size_t words,
                               std::uint64_t* silences, std::uint64_t* collisions) {
  std::uint64_t sil = 0;
  std::uint64_t col = 0;
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t a = vld1q_u64(any + w);
    const uint64x2_t m = vld1q_u64(multi + w);
    const uint64x2_t k = vld1q_u64(mask + w);
    const uint8x16_t sil_bytes = vcntq_u8(
        vreinterpretq_u8_u64(vandq_u64(vreinterpretq_u64_u8(vmvnq_u8(vreinterpretq_u8_u64(a))),
                                       k)));
    const uint8x16_t col_bytes = vcntq_u8(vreinterpretq_u8_u64(vandq_u64(m, k)));
    sil += vaddvq_u8(sil_bytes);
    col += vaddvq_u8(col_bytes);
  }
  for (; w < words; ++w) {
    sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
    col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
  }
  *silences += sil;
  *collisions += col;
}

constexpr Kernels kNeon{or_accumulate_neon, masked_popcount_pair_neon, "neon"};

#endif  // WAKEUP_SIMD_NEON

// ----------------------------------------------------------- dispatch --

const Kernels& best_supported() noexcept {
#if defined(WAKEUP_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) return kAvx2;
#endif
#if defined(WAKEUP_SIMD_NEON)
  return kNeon;
#endif
  return kScalar;
}

std::atomic<const Kernels*>& table() noexcept {
  static std::atomic<const Kernels*> active = [] {
    const char* env = std::getenv("WAKEUP_FORCE_SCALAR");
    const bool forced = env != nullptr && env[0] != '\0' && env[0] != '0';
    return forced ? &kScalar : &best_supported();
  }();
  return active;
}

}  // namespace

const Kernels& active() noexcept { return *table().load(std::memory_order_relaxed); }

const char* active_name() noexcept { return active().name; }

void set_force_scalar(bool force) noexcept {
  table().store(force ? &kScalar : &best_supported(), std::memory_order_relaxed);
}

std::size_t first_set_below(const std::uint64_t* words, std::size_t n_words,
                            std::size_t limit_bits) noexcept {
  const std::size_t scan = n_words < (limit_bits + 63) / 64 ? n_words : (limit_bits + 63) / 64;
  for (std::size_t w = 0; w < scan; ++w) {
    if (words[w] == 0) continue;
    const std::size_t bit = 64 * w + static_cast<std::size_t>(std::countr_zero(words[w]));
    return bit < limit_bits ? bit : kNoBit;
  }
  return kNoBit;
}

}  // namespace wakeup::util::simd
