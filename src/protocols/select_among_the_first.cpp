#include "protocols/select_among_the_first.hpp"

namespace wakeup::proto {
namespace {

class SatfRuntime final : public StationRuntime {
 public:
  SatfRuntime(StationId u, bool participates, Slot s, comb::DoublingSchedulePtr schedule)
      : u_(u), participates_(participates), s_(s), schedule_(std::move(schedule)) {}

  [[nodiscard]] bool transmits(Slot t) override {
    if (!participates_ || t < s_) return false;
    return schedule_->transmits(u_, static_cast<std::uint64_t>(t - s_));
  }

 private:
  StationId u_;
  bool participates_;
  Slot s_;
  comb::DoublingSchedulePtr schedule_;
};

}  // namespace

std::unique_ptr<StationRuntime> SelectAmongTheFirstProtocol::make_runtime(StationId u,
                                                                          Slot wake) const {
  // A station can locally decide participation by comparing its wake time
  // with the known s.
  return std::make_unique<SatfRuntime>(u, wake == s_, s_, schedule_);
}

std::uint64_t SelectAmongTheFirstProtocol::schedule_word(StationId u, Slot wake,
                                                          Slot from) const {
  if (wake != s_) return 0;  // non-participants stay silent forever
  // A word straddling s is the word at s, shifted up to its offset.
  if (from < s_) return s_ - from >= 64 ? 0 : schedule_word(u, wake, s_) << (s_ - from);
  return schedule_->schedule_word(u, static_cast<std::uint64_t>(from - s_));
}

}  // namespace wakeup::proto
