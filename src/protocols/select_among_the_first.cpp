#include "protocols/select_among_the_first.hpp"

#include <algorithm>
#include <array>

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

void SelectAmongTheFirstProtocol::schedule_words(std::span<const StationWake> stations,
                                                 Slot from, std::span<std::uint64_t> out) const {
  // A word straddling s is the word at s, shifted up to its offset.
  if (from < s_) {
    if (s_ - from >= 64) {
      std::fill_n(out.begin(), stations.size(), std::uint64_t{0});
      return;
    }
    schedule_words(stations, s_, out);
    for (std::size_t i = 0; i < stations.size(); ++i) out[i] <<= s_ - from;
    return;
  }
  // Non-participants stay silent forever; participants share one
  // schedule_words call per 64 stations.
  const auto index = static_cast<std::uint64_t>(from - s_);
  // Stack buffers, written before read (see ObliviousSchedule::schedule_words).
  std::array<comb::Station, 64> ids;
  std::array<std::size_t, 64> at;
  std::array<std::uint64_t, 64> words;
  for (std::size_t c = 0; c < stations.size(); c += ids.size()) {
    const std::size_t m = std::min(ids.size(), stations.size() - c);
    std::size_t live = 0;
    for (std::size_t i = c; i < c + m; ++i) {
      out[i] = 0;
      if (stations[i].wake != s_) continue;
      ids[live] = stations[i].u;
      at[live++] = i;
    }
    schedule_->schedule_words(std::span(ids).first(live), index, words);
    for (std::size_t q = 0; q < live; ++q) out[at[q]] = words[q];
  }
}

}  // namespace wakeup::proto
