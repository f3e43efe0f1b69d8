#include "protocols/interleaved.hpp"

#include "util/math.hpp"

namespace wakeup::proto {
namespace {

class InterleavedRuntime final : public StationRuntime {
 public:
  InterleavedRuntime(std::unique_ptr<StationRuntime> even, std::unique_ptr<StationRuntime> odd)
      : even_(std::move(even)), odd_(std::move(odd)) {}

  [[nodiscard]] bool transmits(Slot t) override {
    if (t % 2 == 0) return even_->transmits(t / 2);
    return odd_->transmits((t - 1) / 2);
  }

  void feedback(Slot t, ChannelFeedback fb) override {
    if (t % 2 == 0) {
      even_->feedback(t / 2, fb);
    } else {
      odd_->feedback((t - 1) / 2, fb);
    }
  }

 private:
  std::unique_ptr<StationRuntime> even_;
  std::unique_ptr<StationRuntime> odd_;
};

}  // namespace

Requirements InterleavedProtocol::requirements() const {
  const Requirements a = even_->requirements();
  const Requirements b = odd_->requirements();
  Requirements r;
  r.needs_global_clock = a.needs_global_clock || b.needs_global_clock;
  r.needs_start_time = a.needs_start_time || b.needs_start_time;
  r.needs_k = a.needs_k || b.needs_k;
  r.needs_collision_detection = a.needs_collision_detection || b.needs_collision_detection;
  r.randomized = a.randomized || b.randomized;
  return r;
}

std::unique_ptr<StationRuntime> InterleavedProtocol::make_runtime(StationId u, Slot wake) const {
  if (wake < 0) wake = 0;
  // First even slot >= wake is 2*ceil(wake/2); first odd is 2*floor(wake/2)+1.
  const Slot even_wake = (wake + 1) / 2;
  const Slot odd_wake = wake / 2;
  return std::make_unique<InterleavedRuntime>(even_->make_runtime(u, even_wake),
                                              odd_->make_runtime(u, odd_wake));
}

std::uint64_t InterleavedProtocol::schedule_word(StationId u, Slot wake, Slot from) const {
  // The 32 even-parity global slots in [from, from+64) map to virtual
  // slots (from+1)/2 ... of the even component (woken at (wake+1)/2, as in
  // make_runtime); the 32 odd-parity ones to from/2 ... of the odd
  // component (woken at wake/2).  Fetch one virtual word from each and
  // interleave the low halves.
  const std::uint64_t e =
      util::spread_even_bits32(even_sched_->schedule_word(u, (wake + 1) / 2, (from + 1) / 2));
  const std::uint64_t o =
      util::spread_even_bits32(odd_sched_->schedule_word(u, wake / 2, from / 2));
  return from % 2 == 0 ? (e | (o << 1)) : (o | (e << 1));
}

}  // namespace wakeup::proto
