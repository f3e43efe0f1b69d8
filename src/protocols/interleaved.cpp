#include "protocols/interleaved.hpp"

#include <algorithm>
#include <array>

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

void InterleavedProtocol::schedule_words(std::span<const StationWake> stations, Slot from,
                                         std::span<std::uint64_t> out) const {
  // The 32 even-parity global slots in [from, from+64) map to virtual
  // slots (from+1)/2 ... of the even component (woken at (wake+1)/2, as in
  // make_runtime); the 32 odd-parity ones to from/2 ... of the odd
  // component (woken at wake/2).  Fetch one virtual word per station from
  // each, 64 stations per component call, and interleave the low halves.
  // Stack buffers, written before read (see ObliviousSchedule::schedule_words).
  std::array<StationWake, 64> even_stations;
  std::array<StationWake, 64> odd_stations;
  std::array<std::uint64_t, 64> even_words;
  std::array<std::uint64_t, 64> odd_words;
  for (std::size_t c = 0; c < stations.size(); c += even_stations.size()) {
    const std::size_t m = std::min(even_stations.size(), stations.size() - c);
    for (std::size_t i = 0; i < m; ++i) {
      const StationWake& st = stations[c + i];
      even_stations[i] = {st.u, (st.wake + 1) / 2};
      odd_stations[i] = {st.u, st.wake / 2};
    }
    even_sched_->schedule_words(std::span(even_stations).first(m), (from + 1) / 2, even_words);
    odd_sched_->schedule_words(std::span(odd_stations).first(m), from / 2, odd_words);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t e = util::spread_even_bits32(even_words[i]);
      const std::uint64_t o = util::spread_even_bits32(odd_words[i]);
      out[c + i] = from % 2 == 0 ? (e | (o << 1)) : (o | (e << 1));
    }
  }
}

}  // namespace wakeup::proto
