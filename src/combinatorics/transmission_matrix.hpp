#pragma once

/// \file transmission_matrix.hpp
/// The Scenario C transmission matrix (paper §5.1–5.3).
///
/// A (log n × ℓ) matrix M of transmission sets with ℓ = 2c·n·log n·log log n.
/// Row i is scanned for m_i = c·2^i·log n·log log n slots; a station woken at
/// σ becomes operative at µ(σ) (the next multiple of log log n) and walks the
/// rows top to bottom; columns correspond to global time mod ℓ.  The random
/// construction (§5.3) puts u ∈ M_{i,j} independently with probability
/// 2^{-(i + ρ(j))}, ρ(j) = j mod log log n.
///
/// The paper proves such a matrix is a *waking matrix* (isolates a station
/// by the first well-balanced round) with positive probability and
/// derandomizes existentially.  This implementation instantiates the random
/// object from a seed and evaluates membership lazily — a pure function of
/// (seed, row, column, station) — so the full ℓ-column matrix never needs to
/// be materialized.  A dense materialization is provided for small-n
/// verification.

#include <cstdint>
#include <optional>
#include <vector>

#include "combinatorics/transmission_set.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::comb {

/// All derived quantities of the §5 construction for a given (n, c).
struct MatrixParams {
  std::uint32_t n = 0;
  unsigned c = 2;        ///< the "sufficiently large constant" of §5.1
  unsigned rows = 1;     ///< log n (clamped >= 1)
  unsigned window = 1;   ///< log log n (clamped >= 1) — W in Definition 5.1
  std::uint64_t ell = 0; ///< matrix length ℓ = 2c·n·rows·window

  [[nodiscard]] static MatrixParams make(std::uint32_t n, unsigned c);

  /// m_i = c·2^i·log n·log log n — slots a station spends on row i (1-based).
  [[nodiscard]] std::uint64_t m(unsigned i) const noexcept {
    return static_cast<std::uint64_t>(c) * util::ipow(2, i) * rows * window;
  }

  /// Σ_{i=1..rows} m_i — one full top-to-bottom scan.
  [[nodiscard]] std::uint64_t total_scan() const noexcept;

  /// ρ(j) = j mod window.
  [[nodiscard]] unsigned rho(std::uint64_t col) const noexcept {
    return static_cast<unsigned>(col % window);
  }

  /// µ(σ) = min { l >= σ : l ≡ 0 mod window } — operative slot of a station
  /// woken at σ.
  [[nodiscard]] std::int64_t mu(std::int64_t sigma) const noexcept {
    const auto w = static_cast<std::int64_t>(window);
    const std::int64_t r = sigma % w;
    return r == 0 ? sigma : sigma + (w - r);
  }

  /// The row (1-based) whose sets a station woken at `sigma` obeys at slot
  /// `t`, or nullopt while it is still waiting (t < µ(σ)).  After one full
  /// scan the protocol wraps and restarts from row 1 (the paper's guarantee
  /// fires well before that; wrapping keeps the runtime total).
  [[nodiscard]] std::optional<unsigned> row_at(std::int64_t sigma, std::int64_t t) const noexcept;
};

/// Membership oracle for the seeded random matrix.  Stateless and cheap:
/// one 64-bit hash per query.
///
/// The hash is hash_words({seed, "MATRIX", row, j, u}), whose
/// (seed, "MATRIX", row) prefix is constant along a row and whose
/// (seed, "MATRIX", row, j) prefix — the `set_key` of M_{row, j} — is
/// shared by every station tested against that set.  The runtime computes
/// `row_prefix` once per row and queries `contains_prefixed` per slot; the
/// protocol's schedule_words hashes each set key once per call and tests
/// every station with `contains_keyed`.  All of them are `contains_keyed`
/// underneath, so membership has a single definition.
class LazyTransmissionMatrix {
 public:
  LazyTransmissionMatrix(MatrixParams params, std::uint64_t seed) noexcept
      : params_(params), seed_(seed) {}

  [[nodiscard]] const MatrixParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// The row-constant prefix of the membership hash.
  [[nodiscard]] std::uint64_t row_prefix(unsigned row) const noexcept {
    return util::hash_words({seed_, 0x4d4154524958ULL /* "MATRIX" */, row});
  }

  /// The station-independent part of the membership hash of M_{row, j}:
  /// `prefix` is row_prefix(row), `j` < ℓ the reduced column.
  [[nodiscard]] static std::uint64_t set_key(std::uint64_t prefix, std::uint64_t j) noexcept {
    return util::hash_words_from(prefix, {j});
  }

  /// Is the station with util::mix64(u) == `mixed_u` in the set whose
  /// set_key is `key`?  `e` = row + ρ(j) is the exponent of the membership
  /// probability 2^-e.
  [[nodiscard]] static bool contains_keyed(std::uint64_t key, unsigned e,
                                           std::uint64_t mixed_u) noexcept {
    if (e >= 64) return false;  // probability below 2^-63 — never fires
    return (util::hash_combine(key, mixed_u) >> (64 - e)) == 0;
  }

  /// Is u ∈ M_{row, j}?  `prefix` is row_prefix(row), `j` < ℓ the reduced
  /// column and `e` = row + ρ(j).
  [[nodiscard]] static bool contains_prefixed(std::uint64_t prefix, unsigned e, std::uint64_t j,
                                              Station u) noexcept {
    return contains_keyed(set_key(prefix, j), e, util::mix64(u));
  }

  /// Is u ∈ M_{row, col mod ℓ}?  row is 1-based (1..rows).
  [[nodiscard]] bool contains(unsigned row, std::uint64_t col, Station u) const noexcept {
    const std::uint64_t j = col % params_.ell;
    return contains_prefixed(row_prefix(row), row + params_.rho(j), j, u);
  }

  /// Membership probability of row/column (for tests of the construction).
  [[nodiscard]] double probability(unsigned row, std::uint64_t col) const noexcept {
    const unsigned e = row + params_.rho(col % params_.ell);
    return e >= 64 ? 0.0 : 1.0 / static_cast<double>(std::uint64_t{1} << e);
  }

 private:
  MatrixParams params_;
  std::uint64_t seed_;
};

/// Fully materialized matrix for small n: rows × ℓ transmission sets.
/// Memory is O(rows · ℓ · n / 8) — use only in tests and structure benches.
class DenseTransmissionMatrix {
 public:
  [[nodiscard]] static DenseTransmissionMatrix materialize(const LazyTransmissionMatrix& lazy);

  [[nodiscard]] const MatrixParams& params() const noexcept { return params_; }
  [[nodiscard]] bool contains(unsigned row, std::uint64_t col, Station u) const noexcept {
    return cell(row, col).contains(u);
  }
  /// row is 1-based, col taken mod ℓ.
  [[nodiscard]] const TransmissionSet& cell(unsigned row, std::uint64_t col) const noexcept {
    return cells_[(row - 1) * params_.ell + (col % params_.ell)];
  }

 private:
  MatrixParams params_;
  std::vector<TransmissionSet> cells_;
};

}  // namespace wakeup::comb
