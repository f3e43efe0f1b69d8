#include "protocols/robust_rr.hpp"

namespace wakeup::proto {
namespace {

class RobustRoundRobinRuntime final : public StationRuntime {
 public:
  RobustRoundRobinRuntime(StationId u, std::uint32_t n, std::uint32_t r)
      : u_(u), n_(n), r_(r) {}

  [[nodiscard]] bool transmits(Slot t) override {
    return static_cast<std::uint32_t>((t / static_cast<Slot>(r_)) % static_cast<Slot>(n_)) ==
           u_;
  }

 private:
  StationId u_;
  std::uint32_t n_;
  std::uint32_t r_;
};

}  // namespace

std::unique_ptr<StationRuntime> RobustRoundRobinProtocol::make_runtime(StationId u,
                                                                       Slot wake) const {
  (void)wake;  // oblivious: the schedule depends only on the global clock
  return std::make_unique<RobustRoundRobinRuntime>(u, n_, r_);
}

std::uint64_t RobustRoundRobinProtocol::schedule_word(StationId u, Slot wake, Slot from) const {
  (void)wake;  // schedule depends only on the global clock
  if (u >= n_) return 0;  // out-of-universe station: the runtime never transmits
  // Station u's runs are the slots [a, a + r) with a ≡ u·r (mod n·r): walk
  // run boundaries instead of bits, so a word costs O(64/r + 1) iterations.
  const auto r = static_cast<Slot>(r_);
  const auto p = static_cast<Slot>(n_) * r;  // full period
  // First run start >= from - (r - 1) (a run may straddle the word start).
  Slot a = static_cast<Slot>(u) * r + (from - static_cast<Slot>(u) * r) / p * p;
  while (a + r <= from) a += p;
  std::uint64_t word = 0;
  for (; a < from + 64; a += p) {
    const Slot lo = a < from ? 0 : a - from;
    const Slot hi = a + r - from < 64 ? a + r - from : 64;  // exclusive
    if (hi <= lo) continue;
    const std::uint64_t span =
        hi - lo == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (hi - lo)) - 1) << lo;
    word |= span;
  }
  return word;
}

}  // namespace wakeup::proto
