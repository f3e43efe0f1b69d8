#include "protocols/round_robin.hpp"

namespace wakeup::proto {
namespace {

class RoundRobinRuntime final : public StationRuntime {
 public:
  RoundRobinRuntime(StationId u, std::uint32_t n) : u_(u), n_(n) {}

  [[nodiscard]] bool transmits(Slot t) override {
    return static_cast<std::uint32_t>(t % static_cast<Slot>(n_)) == u_;
  }

 private:
  StationId u_;
  std::uint32_t n_;
};

}  // namespace

std::unique_ptr<StationRuntime> RoundRobinProtocol::make_runtime(StationId u, Slot wake) const {
  (void)wake;  // oblivious: the schedule depends only on the global clock
  return std::make_unique<RoundRobinRuntime>(u, n_);
}

std::uint64_t RoundRobinProtocol::schedule_word(StationId u, Slot wake, Slot from) const {
  (void)wake;  // schedule depends only on the global clock
  if (u >= n_) return 0;  // out-of-universe station: the runtime never transmits
  const auto n = static_cast<Slot>(n_);
  Slot j = (static_cast<Slot>(u) - from) % n;
  if (j < 0) j += n;
  std::uint64_t word = 0;
  for (; j < 64; j += n) word |= std::uint64_t{1} << j;
  return word;
}

}  // namespace wakeup::proto
