#include "protocols/wait_and_go.hpp"

#include <algorithm>
#include <array>

namespace wakeup::proto {
namespace {

class WaitAndGoRuntime final : public StationRuntime {
 public:
  WaitAndGoRuntime(StationId u, Slot wake, comb::DoublingSchedulePtr schedule)
      : u_(u), schedule_(std::move(schedule)) {
    const auto j = static_cast<std::uint64_t>(wake < 0 ? 0 : wake);
    go_ = schedule_->next_family_start(j);
  }

  [[nodiscard]] bool transmits(Slot t) override {
    const auto ut = static_cast<std::uint64_t>(t);
    if (t < 0 || ut < go_) return false;  // still waiting for a family boundary
    return schedule_->transmits(u_, ut);
  }

 private:
  StationId u_;
  comb::DoublingSchedulePtr schedule_;
  std::uint64_t go_ = 0;
};

}  // namespace

std::unique_ptr<StationRuntime> WaitAndGoProtocol::make_runtime(StationId u, Slot wake) const {
  return std::make_unique<WaitAndGoRuntime>(u, wake, schedule_);
}

void WaitAndGoProtocol::schedule_words(std::span<const StationWake> stations, Slot from,
                                       std::span<std::uint64_t> out) const {
  // Stations still waiting for a family boundary through the whole block
  // are silent; the rest share one schedule_words call per 64 stations.
  const auto ufrom = static_cast<std::uint64_t>(from);
  // Stack buffers, written before read (see ObliviousSchedule::schedule_words).
  std::array<comb::Station, 64> ids;
  std::array<std::uint64_t, 64> go;
  std::array<std::size_t, 64> at;
  std::array<std::uint64_t, 64> words;
  for (std::size_t c = 0; c < stations.size(); c += ids.size()) {
    const std::size_t m = std::min(ids.size(), stations.size() - c);
    std::size_t live = 0;
    for (std::size_t i = c; i < c + m; ++i) {
      const std::uint64_t g =
          schedule_->next_family_start(static_cast<std::uint64_t>(stations[i].wake));
      if (ufrom + 64 <= g) {
        out[i] = 0;
        continue;
      }
      ids[live] = stations[i].u;
      go[live] = g;
      at[live++] = i;
    }
    schedule_->schedule_words(std::span(ids).first(live), ufrom, words);
    for (std::size_t q = 0; q < live; ++q) {
      std::uint64_t word = words[q];
      if (ufrom < go[q]) word &= ~std::uint64_t{0} << (go[q] - ufrom);
      out[at[q]] = word;
    }
  }
}

ProtocolPtr make_wait_and_go(std::uint32_t n, std::uint32_t k, comb::FamilyKind kind,
                             std::uint64_t seed, double family_c) {
  comb::DoublingSchedule::Config config;
  config.n = n;
  config.k_max = k < 2 ? 2 : k;
  config.kind = kind;
  config.seed = seed;
  config.c = family_c;
  return std::make_shared<WaitAndGoProtocol>(comb::make_doubling_schedule(config));
}

}  // namespace wakeup::proto
