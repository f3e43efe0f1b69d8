#pragma once

/// \file wakeup_matrix.hpp
/// Protocol `wakeup(u, σ)` (paper §5.1) — the Scenario C algorithm, driven
/// by a waking matrix.
///
/// A station woken at σ waits until µ(σ) (next multiple of log log n), then
/// scans the matrix rows top to bottom: row i for m_i = c·2^i·log n·log log n
/// slots, transmitting at slot t iff it belongs to M_{i, t mod ℓ}.
/// Completes wake-up in O(k log n log log n) slots (Theorem 5.3).
///
/// The matrix is the seeded random construction of §5.3 (membership
/// probability 2^{-(i+ρ(j))}), evaluated lazily; see
/// combinatorics/transmission_matrix.hpp for the faithfulness argument.

#include "combinatorics/transmission_matrix.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

class WakeupMatrixProtocol final : public Protocol, public ObliviousSchedule {
 public:
  /// `c` is the §5.1 constant (schedule pacing and matrix length); `seed`
  /// instantiates the random matrix.
  WakeupMatrixProtocol(std::uint32_t n, unsigned c, std::uint64_t seed)
      : matrix_(comb::MatrixParams::make(n, c),
                util::hash_words({seed, 0x574b4d4154ULL /* "WKMAT" */, n, c})) {}

  explicit WakeupMatrixProtocol(comb::LazyTransmissionMatrix matrix) : matrix_(matrix) {}

  [[nodiscard]] std::string name() const override { return "wakeup_matrix"; }
  [[nodiscard]] Requirements requirements() const override { return {}; }  // knows only n
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  [[nodiscard]] std::uint64_t schedule_word(StationId u, Slot wake, Slot from) const override {
    return single_station_word(u, wake, from);
  }
  /// Columns follow global time, so every station on row i at slot t
  /// tests itself against the same set M_{i, t mod ℓ}: each call hashes
  /// one 64-key block per row some station is on, then one mix per bit.
  void schedule_words(std::span<const StationWake> stations, Slot from,
                      std::span<std::uint64_t> out) const override;

  [[nodiscard]] const comb::LazyTransmissionMatrix& matrix() const noexcept { return matrix_; }

 private:
  comb::LazyTransmissionMatrix matrix_;
};

}  // namespace wakeup::proto
