#include "protocols/wakeup_matrix.hpp"

#include <algorithm>

namespace wakeup::proto {
namespace {

/// Tracks the row scan incrementally (transmits() is called with strictly
/// increasing t, so no per-slot row search is needed) and keeps the row's
/// hash prefix with it.  Equivalence with the declarative
/// MatrixParams::row_at is asserted in tests.
class WakeupMatrixRuntime final : public StationRuntime {
 public:
  WakeupMatrixRuntime(StationId u, Slot wake, const comb::LazyTransmissionMatrix& matrix)
      : u_(u), matrix_(matrix) {
    const auto& p = matrix_.params();
    operative_ = p.mu(wake);
    row_ = 1;
    row_end_ = operative_ + static_cast<Slot>(p.m(1));
    prefix_ = matrix_.row_prefix(row_);
  }

  [[nodiscard]] bool transmits(Slot t) override {
    const auto& p = matrix_.params();
    if (t < operative_) return false;  // waiting for the window boundary
    if (t >= row_end_) {
      while (t >= row_end_) {
        if (row_ < p.rows) {
          ++row_;
        } else {
          row_ = 1;  // wrap: restart the scan (§5.1 guarantee fires earlier)
        }
        row_end_ += static_cast<Slot>(p.m(row_));
      }
      prefix_ = matrix_.row_prefix(row_);
    }
    const std::uint64_t j = static_cast<std::uint64_t>(t) % p.ell;
    return comb::LazyTransmissionMatrix::contains_prefixed(prefix_, row_ + p.rho(j), j, u_);
  }

 private:
  StationId u_;
  const comb::LazyTransmissionMatrix& matrix_;
  Slot operative_ = 0;
  unsigned row_ = 1;
  Slot row_end_ = 0;
  std::uint64_t prefix_ = 0;
};

}  // namespace

std::unique_ptr<StationRuntime> WakeupMatrixProtocol::make_runtime(StationId u, Slot wake) const {
  return std::make_unique<WakeupMatrixRuntime>(u, wake, matrix_);
}

std::uint64_t WakeupMatrixProtocol::schedule_word(StationId u, Slot wake, Slot from) const {
  const auto& p = matrix_.params();
  const Slot operative = p.mu(wake);
  const Slot end = from + 64;
  Slot t = std::max(from, operative);  // silent until the window boundary
  if (t >= end) return 0;

  // Row state at t: the runtime's scan walks rows 1..rows cyclically with
  // durations m(i) starting at `operative`.  Whole scans carry no row-state
  // change, so skip them and replay the partial one.
  unsigned row = 1;
  Slot row_end = operative + static_cast<Slot>(p.m(1));
  const auto scan = static_cast<Slot>(p.total_scan());
  if (scan > 0) row_end += ((t - operative) / scan) * scan;
  const auto advance_row = [&] {
    while (t >= row_end) {
      row = row < p.rows ? row + 1 : 1;  // wrap: restart the scan
      row_end += static_cast<Slot>(p.m(row));
    }
  };
  advance_row();

  // Per slot, only the column j = t mod ℓ and ρ(j) move: both step by one
  // and wrap, and the hash prefix changes with the row only.  Bits gather
  // branch-free in a register (low rows transmit with probability up to
  // 1/2, which no branch predictor can follow).
  std::uint64_t prefix = matrix_.row_prefix(row);
  const std::uint64_t ell = p.ell;
  const unsigned window = p.window;
  std::uint64_t j = static_cast<std::uint64_t>(t) % ell;
  unsigned rho = p.rho(j);
  std::uint64_t word = 0;
  for (; t < end; ++t) {
    if (t >= row_end) {
      advance_row();
      prefix = matrix_.row_prefix(row);
    }
    const bool member =
        comb::LazyTransmissionMatrix::contains_prefixed(prefix, row + rho, j, u);
    word |= static_cast<std::uint64_t>(member) << (t - from);
    if (++j == ell) {
      j = 0;
      rho = 0;
    } else if (++rho == window) {
      rho = 0;
    }
  }
  return word;
}

}  // namespace wakeup::proto
