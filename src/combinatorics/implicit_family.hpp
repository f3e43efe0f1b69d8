#pragma once

/// \file implicit_family.hpp
/// Implicit (lazily evaluated) selective families.
///
/// `SelectiveFamily` materializes every transmission set as a bitset over
/// [n] — Θ(length · n / 8) bytes.  That is fine for a single family at
/// n = 2^14, but the doubling concatenations the protocols build (one family
/// per k = 2, 4, 8, ...) blow past any memory budget long before the
/// n = 2^20 frontier.  The constructions in tree do not need the storage:
///
///  * mod-prime       — u ∈ F_{p,r}  iff  u ≡ r (mod p): one modulo.
///  * Kautz–Singleton — u ∈ F_{a,v}  iff  f_u(a) = v over GF(q): one
///                      Horner evaluation of u's base-q digit polynomial.
///  * randomized      — membership is re-derived from (seed, set, u) via the
///                      stateless counter RNG (`util::hash_words`).
///  * bit splitter    — u ∈ set 1+2b+side  iff  bit b of u equals side.
///
/// `ImplicitFamily` exposes exactly that: an O(1)-state `contains(j, u)`
/// query plus a 64-slot `membership_word(u, from)` emitter, so schedule
/// words are *computed* in the hot path instead of loaded.  `materialize()`
/// recovers the equivalent `SelectiveFamily` bit-for-bit (tests and the
/// verifier go through it); `make_implicit_family` mirrors `build_family`'s
/// dispatch so the two stay interchangeable.
///
/// The closed-form helpers shared with the materialized builders live in
/// `detail` — both paths call the same arithmetic, which is what makes the
/// bit-identity guarantee a construction property rather than a test hope.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "combinatorics/builders.hpp"
#include "combinatorics/selective_family.hpp"
#include "util/rng.hpp"

namespace wakeup::comb {

namespace detail {

/// Substream tag for randomized families ("RANDFM").
inline constexpr std::uint64_t kRandomFamilyTag = 0x52414e44464dULL;

/// Clamps k to [1, n] — every builder applies this before anything else.
[[nodiscard]] std::uint32_t clamp_family_k(std::uint32_t n, std::uint32_t k) noexcept;

/// ceil(c * k * max(1, log2(n/k))) with k already clamped — the
/// probabilistic-method family length.
[[nodiscard]] std::size_t randomized_length(std::uint32_t n, std::uint32_t k, double c);

/// Per-(n,k) stream seed for randomized families (k already clamped).
[[nodiscard]] std::uint64_t randomized_stream_seed(std::uint64_t seed, std::uint32_t n,
                                                   std::uint32_t k) noexcept;

/// Counter-RNG membership draw: station u belongs to set j with
/// probability p, as a pure function of (stream_seed, j, u).
[[nodiscard]] bool randomized_member(std::uint64_t stream_seed, std::uint64_t j,
                                     std::uint64_t u, double p) noexcept;

/// The station-independent part of set j's membership hash,
/// hash_words({stream_seed, j}): every station tested against set j
/// shares it.
[[nodiscard]] inline std::uint64_t randomized_set_key(std::uint64_t stream_seed,
                                                      std::uint64_t j) noexcept {
  return util::hash_words({stream_seed, j});
}

/// randomized_member from set j's key and the station's util::mix64(u):
/// randomized_member(s, j, u, p) ==
/// randomized_member_keyed(randomized_set_key(s, j), mix64(u), p).
[[nodiscard]] inline bool randomized_member_keyed(std::uint64_t key, std::uint64_t mixed_u,
                                                  double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  // One counter-RNG draw per (set, station) coordinate — same 53-bit
  // uniform-in-[0,1) construction as util::Rng::uniform01, but as a pure
  // function of the coordinates so membership is random-accessible:
  // hash_words({stream_seed, j, u}), continued from the set's key.
  const double draw = static_cast<double>(util::hash_combine(key, mixed_u) >> 11) * 0x1.0p-53;
  return draw < p;
}

/// Primes used by the mod-prime construction for (n, k already clamped):
/// the first (k-1)*max(1, floor(log2 n)) + 1 primes.
[[nodiscard]] std::vector<std::uint64_t> mod_prime_primes(std::uint32_t n, std::uint32_t k);

/// Number of base-q digits needed to address n ids (at least 1).
[[nodiscard]] unsigned gf_digits_needed(std::uint64_t n, std::uint64_t q) noexcept;

/// Evaluates the polynomial whose coefficients are u's base-q digits at
/// point a over GF(q) (Horner, digits high-to-low).
[[nodiscard]] std::uint64_t gf_poly_eval(std::uint64_t u, std::uint64_t q, unsigned digits,
                                         std::uint64_t a) noexcept;

/// The Kautz–Singleton field size: smallest prime q >= max(2, k) with
/// q > (k-1)(L-1) for L = digits_needed(n, q)  (k already clamped).
[[nodiscard]] std::uint64_t kautz_singleton_q(std::uint32_t n, std::uint32_t k) noexcept;

}  // namespace detail

/// A selective family whose membership is computed, not stored.
///
/// Contract mirrors `SelectiveFamily`: sets are indexed 0..length()-1 and
/// `contains(j, u)` answers whether station u transmits at step j.  Station
/// indices must be < params().n; set indices must be < length().
class ImplicitFamily {
 public:
  virtual ~ImplicitFamily() = default;

  [[nodiscard]] const FamilyParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t length() const noexcept { return length_; }
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }

  /// Does station u belong to set `set_index`?  O(1) state, O(1)-ish work.
  [[nodiscard]] virtual bool contains(std::size_t set_index, Station u) const noexcept = 0;

  /// 64 consecutive membership bits for station u starting at set `from`:
  /// bit j of the result is contains(from + j, u).  Bits at or past
  /// length() are unspecified — callers mask, exactly as with
  /// `ObliviousSchedule::schedule_word`.  The default loops `contains`;
  /// implementations override with run-structured arithmetic.
  [[nodiscard]] virtual std::uint64_t membership_word(Station u, std::size_t from) const;

  /// The same 64 sets for many stations: out[i] =
  /// membership_word(stations[i], from), bit for bit.  Requires out.size()
  /// >= stations.size().  The default loops membership_word; the
  /// randomized family overrides it to hash each set key once per call.
  virtual void membership_words(std::span<const Station> stations, std::size_t from,
                                std::span<std::uint64_t> out) const;

  /// Materializes the equivalent `SelectiveFamily`, bit-for-bit identical
  /// to the corresponding `build_*` output.  Cold path: tests, the
  /// verifier, and small-n setup only.
  [[nodiscard]] virtual SelectiveFamily materialize() const;

 protected:
  ImplicitFamily(FamilyParams params, std::size_t length, std::string origin)
      : params_(params), length_(length), origin_(std::move(origin)) {}

 private:
  FamilyParams params_{};
  std::size_t length_ = 0;
  std::string origin_;
};

using ImplicitFamilyPtr = std::shared_ptr<const ImplicitFamily>;

/// Implicit counterpart of `build_family`: same dispatch, same fallbacks
/// (bit splitter with k > 2 falls back to randomized), same realized bits.
/// Builders with no closed form (greedy) materialize eagerly behind the
/// interface via `wrap_materialized`.
[[nodiscard]] ImplicitFamilyPtr make_implicit_family(FamilyKind kind, std::uint32_t n,
                                                     std::uint32_t k, std::uint64_t seed,
                                                     double c = kDefaultRandomFamilyC);

/// Adapts an already-materialized family to the implicit interface.
[[nodiscard]] ImplicitFamilyPtr wrap_materialized(SelectiveFamily family);

}  // namespace wakeup::comb
