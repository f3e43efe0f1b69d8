#include "protocols/wakeup_with_s.hpp"

#include <algorithm>
#include <array>

#include "util/math.hpp"

namespace wakeup::proto {
namespace {

class WakeupWithSRuntime final : public StationRuntime {
 public:
  WakeupWithSRuntime(StationId u, Slot wake, Slot s, std::uint32_t n,
                     comb::DoublingSchedulePtr schedule)
      : u_(u), participates_satf_(wake == s), s_(s), n_(n), schedule_(std::move(schedule)) {}

  [[nodiscard]] bool transmits(Slot t) override {
    const Slot d = t - s_;
    if (d < 0) return false;
    if (d % 2 == 0) {
      // Round-robin half: every awake station takes its TDM turn.
      const Slot v = d / 2;
      return static_cast<std::uint32_t>(v % static_cast<Slot>(n_)) == u_;
    }
    // select_among_the_first half: only stations woken exactly at s.
    if (!participates_satf_) return false;
    const Slot v = (d - 1) / 2;
    return schedule_->transmits(u_, static_cast<std::uint64_t>(v));
  }

 private:
  StationId u_;
  bool participates_satf_;
  Slot s_;
  std::uint32_t n_;
  comb::DoublingSchedulePtr schedule_;
};

}  // namespace

std::unique_ptr<StationRuntime> WakeupWithSProtocol::make_runtime(StationId u, Slot wake) const {
  return std::make_unique<WakeupWithSRuntime>(u, wake, s_, schedule_->config().n, schedule_);
}

void WakeupWithSProtocol::schedule_words(std::span<const StationWake> stations, Slot from,
                                         std::span<std::uint64_t> out) const {
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
  // Even offsets d = 2v run round-robin at virtual slot v, odd offsets
  // d = 2v + 1 run SATF at v.  The 32 even offsets in this block cover
  // virtual slots (d0+1)/2 ..., the 32 odd ones d0/2 ...; build each
  // 32-bit half and interleave by block parity.  The SATF halves of the
  // stations woken at s come from one schedule_words call per 64 stations.
  const Slot d0 = from - s_;
  const auto n = static_cast<Slot>(schedule_->config().n);
  const Slot ve0 = (d0 + 1) / 2;
  const auto interleave = [d0](std::uint64_t rr_bits, std::uint64_t satf_bits) {
    const std::uint64_t rr = util::spread_even_bits32(rr_bits);
    const std::uint64_t satf = util::spread_even_bits32(satf_bits);
    return d0 % 2 == 0 ? (rr | (satf << 1)) : (satf | (rr << 1));
  };
  // Stack buffers, written before read (see ObliviousSchedule::schedule_words).
  std::array<comb::Station, 64> ids;
  std::array<std::size_t, 64> at;
  std::array<std::uint64_t, 64> words;
  for (std::size_t c = 0; c < stations.size(); c += ids.size()) {
    const std::size_t m = std::min(ids.size(), stations.size() - c);
    std::size_t live = 0;
    for (std::size_t i = c; i < c + m; ++i) {
      const auto u = static_cast<Slot>(stations[i].u);
      std::uint64_t rr_bits = 0;
      if (u < n) {  // out-of-universe stations never get a TDM turn
        Slot j = (u - ve0) % n;
        if (j < 0) j += n;
        for (; j < 32; j += n) rr_bits |= std::uint64_t{1} << j;
      }
      out[i] = rr_bits;
      if (stations[i].wake != s_) continue;
      ids[live] = stations[i].u;
      at[live++] = i;
    }
    schedule_->schedule_words(std::span(ids).first(live), static_cast<std::uint64_t>(d0 / 2),
                              words);
    std::size_t q = 0;
    for (std::size_t i = c; i < c + m; ++i) {
      const std::uint64_t satf_bits = q < live && at[q] == i ? words[q++] : 0;
      out[i] = interleave(out[i], satf_bits);
    }
  }
}

ProtocolPtr make_wakeup_with_s(std::uint32_t n, Slot s, comb::FamilyKind kind,
                               std::uint64_t seed, double family_c) {
  comb::DoublingSchedule::Config config;
  config.n = n;
  config.k_max = n;  // s is known but k is not: the ladder must reach any k
  // The round-robin half guarantees success within 2n slots of the first
  // wake (designated stations never collide there), and the SATF half runs
  // set v at slot s + 2v + 1 — so sets at index >= n can never execute
  // before success.  Truncate the concatenation at a prefix of n sets
  // instead of materializing families up to k = n: same outcomes, and the
  // schedule stays affordable at the n = 2^20 frontier.
  config.prefix_cap = n;
  config.kind = kind;
  config.seed = seed;
  config.c = family_c;
  return std::make_shared<WakeupWithSProtocol>(s, comb::make_doubling_schedule(config));
}

}  // namespace wakeup::proto
