#include "protocols/wakeup_matrix.hpp"

#include <algorithm>
#include <array>

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

void WakeupMatrixProtocol::schedule_words(std::span<const StationWake> stations, Slot from,
                                          std::span<std::uint64_t> out) const {
  const auto& p = matrix_.params();
  const Slot end = from + 64;
  const auto scan = static_cast<Slot>(p.total_scan());

  // The set keys of this block, per row: keys[row][b] is the set_key of
  // M_{row, (from + b) mod ℓ} and exps[row][b] its exponent row + ρ.  Each
  // row's block is filled on demand, downwards from 64: slots
  // [lo[row], 64) are filled, and no other entry is read, so the 25 KB of
  // tables are left uninitialized (a one-station call touches one row).
  // rows = ceil(log2 n) <= 32 for 32-bit n.
  constexpr unsigned kMaxRows = 32;
  std::array<std::array<std::uint64_t, 64>, kMaxRows + 1> keys;
  std::array<std::array<unsigned, 64>, kMaxRows + 1> exps;
  std::array<unsigned, kMaxRows + 1> lo;
  lo.fill(64);
  const auto fill_keys = [&](unsigned row, unsigned a) {
    if (a >= lo[row]) return;
    // Per slot, only the column j = t mod ℓ and ρ(j) move: both step by
    // one and wrap (ℓ is a multiple of the window).
    const std::uint64_t prefix = matrix_.row_prefix(row);
    std::uint64_t j = static_cast<std::uint64_t>(from + a) % p.ell;
    unsigned rho = p.rho(j);
    for (unsigned b = a; b < lo[row]; ++b) {
      keys[row][b] = comb::LazyTransmissionMatrix::set_key(prefix, j);
      exps[row][b] = row + rho;
      if (++j == p.ell) {
        j = 0;
        rho = 0;
      } else if (++rho == p.window) {
        rho = 0;
      }
    }
    lo[row] = a;
  };

  for (std::size_t i = 0; i < stations.size(); ++i) {
    const Slot operative = p.mu(stations[i].wake);
    Slot t = std::max(from, operative);  // silent until the window boundary
    if (t >= end) {
      out[i] = 0;
      continue;
    }
    // Row state at t: the runtime's scan walks rows 1..rows cyclically with
    // durations m(i) starting at `operative`.  Whole scans carry no row-state
    // change, so skip them and replay the partial one.
    unsigned row = 1;
    Slot row_end = operative + static_cast<Slot>(p.m(1));
    if (scan > 0) row_end += ((t - operative) / scan) * scan;
    const auto advance_row = [&] {
      while (t >= row_end) {
        row = row < p.rows ? row + 1 : 1;  // wrap: restart the scan
        row_end += static_cast<Slot>(p.m(row));
      }
    };
    advance_row();

    // One mix per bit, gathered branch-free in a register (low rows
    // transmit with probability up to 1/2, which no branch predictor can
    // follow).
    const std::uint64_t mixed_u = util::mix64(stations[i].u);
    std::uint64_t word = 0;
    while (true) {
      const auto a = static_cast<unsigned>(t - from);
      const auto b = static_cast<unsigned>(std::min(row_end, end) - from);
      fill_keys(row, a);
      for (unsigned bit = a; bit < b; ++bit) {
        const bool member = comb::LazyTransmissionMatrix::contains_keyed(
            keys[row][bit], exps[row][bit], mixed_u);
        word |= static_cast<std::uint64_t>(member) << bit;
      }
      t = from + b;
      if (t == end) break;
      advance_row();
    }
    out[i] = word;
  }
}

}  // namespace wakeup::proto
