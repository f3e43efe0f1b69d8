#pragma once

/// \file local_doubling.hpp
/// Local-clock doubling baseline.
///
/// Each station runs the concatenated doubling selective-family schedule
/// *from its own wake time* — no global alignment whatsoever.  This is the
/// canonical deterministic protocol for the locally-synchronized model the
/// paper compares against (Chlebus–Gąsieniec–Kowalski–Radzik [9],
/// O(k log² n)); see DESIGN.md for the inspired-by caveat.  With a
/// simultaneous wake pattern it degenerates to the synchronized
/// Komlós–Greenberg setting, which is how the paper-claims test compares
/// it against wakeup_matrix.

#include "combinatorics/doubling_schedule.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

class LocalDoublingProtocol final : public Protocol {
 public:
  explicit LocalDoublingProtocol(comb::DoublingSchedulePtr schedule)
      : schedule_(std::move(schedule)) {}

  [[nodiscard]] std::string name() const override { return "local_doubling"; }
  [[nodiscard]] Requirements requirements() const override {
    Requirements r;
    r.needs_global_clock = false;  // only local ages are used
    return r;
  }
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;

  [[nodiscard]] const comb::DoublingSchedule& schedule() const noexcept { return *schedule_; }

 private:
  comb::DoublingSchedulePtr schedule_;
};

[[nodiscard]] ProtocolPtr make_local_doubling(std::uint32_t n, std::uint32_t k_max,
                                              comb::FamilyKind kind, std::uint64_t seed,
                                              double family_c = comb::kDefaultRandomFamilyC);

}  // namespace wakeup::proto
