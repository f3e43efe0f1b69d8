#include "protocols/wait_and_go.hpp"

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

std::uint64_t WaitAndGoProtocol::schedule_word(StationId u, Slot wake, Slot from) const {
  const std::uint64_t go = schedule_->next_family_start(static_cast<std::uint64_t>(wake));
  const auto ufrom = static_cast<std::uint64_t>(from);
  if (ufrom + 64 <= go) return 0;  // still waiting for a family boundary
  std::uint64_t word = schedule_->schedule_word(u, ufrom);
  if (ufrom < go) word &= ~std::uint64_t{0} << (go - ufrom);
  return word;
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
