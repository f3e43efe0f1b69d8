#include "protocols/multichannel.hpp"

#include "protocols/wait_and_go.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::proto {
namespace {

// ------------------------------------------------------------- adapter

/// Runs a single-channel runtime on one fixed lane.
class AdapterRuntime final : public McStationRuntime {
 public:
  AdapterRuntime(std::unique_ptr<StationRuntime> inner, std::uint32_t lane)
      : inner_(std::move(inner)), lane_(lane) {}

  [[nodiscard]] mac::ChannelAction act(Slot t) override {
    return {inner_->transmits(t), lane_};
  }
  void feedback(Slot t, ChannelFeedback fb) override { inner_->feedback(t, fb); }

 private:
  std::unique_ptr<StationRuntime> inner_;
  std::uint32_t lane_;
};

/// Lifts an inner single-channel oblivious schedule onto lane 0 of a
/// C-lane schedule: words and the cost class forward unchanged, only the
/// lane geometry widens.
class AdapterSchedule final : public ObliviousSchedule {
 public:
  AdapterSchedule(const ObliviousSchedule* inner, std::uint32_t channels)
      : inner_(inner), channels_(channels) {}

  [[nodiscard]] std::uint32_t schedule_channels() const override { return channels_; }
  [[nodiscard]] std::uint64_t schedule_word(StationId u, Slot wake, Slot from) const override {
    return inner_->schedule_word(u, wake, from);
  }
  void schedule_words(std::span<const StationWake> stations, Slot from,
                      std::span<std::uint64_t> out) const override {
    inner_->schedule_words(stations, from, out);
  }
  [[nodiscard]] bool words_are_cheap() const override { return inner_->words_are_cheap(); }

 private:
  const ObliviousSchedule* inner_;
  std::uint32_t channels_;
};

class SingleChannelAdapter final : public McProtocol {
 public:
  SingleChannelAdapter(ProtocolPtr inner, std::uint32_t channels)
      : inner_(std::move(inner)), channels_(channels < 1 ? 1 : channels) {
    if (const ObliviousSchedule* schedule = inner_->oblivious_schedule()) {
      schedule_ = std::make_unique<AdapterSchedule>(schedule, channels_);
    }
  }

  [[nodiscard]] std::string name() const override { return "mc_adapter(" + inner_->name() + ")"; }
  [[nodiscard]] std::uint32_t channels() const override { return channels_; }
  [[nodiscard]] std::unique_ptr<McStationRuntime> make_runtime(StationId u,
                                                               Slot wake) const override {
    return std::make_unique<AdapterRuntime>(inner_->make_runtime(u, wake), 0);
  }
  [[nodiscard]] const Protocol* single_channel() const override { return inner_.get(); }
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override {
    return schedule_.get();
  }
  [[nodiscard]] bool randomized() const override {
    return inner_->requirements().randomized;
  }

 private:
  ProtocolPtr inner_;
  std::uint32_t channels_;
  std::unique_ptr<AdapterSchedule> schedule_;
};

// ------------------------------------------------------- striped round-robin

class StripedRrRuntime final : public McStationRuntime {
 public:
  StripedRrRuntime(StationId u, std::uint32_t channels, std::uint32_t cycle)
      : channel_(u % channels), turn_(u / channels), cycle_(cycle) {}

  [[nodiscard]] mac::ChannelAction act(Slot t) override {
    const bool mine = static_cast<std::uint32_t>(t % static_cast<Slot>(cycle_)) == turn_;
    return {mine, channel_};
  }

 private:
  std::uint32_t channel_;
  std::uint32_t turn_;
  std::uint32_t cycle_;
};

class StripedRoundRobin final : public McProtocol, public ObliviousSchedule {
 public:
  StripedRoundRobin(std::uint32_t n, std::uint32_t channels)
      : n_(n < 1 ? 1 : n),
        channels_(channels < 1 ? 1 : channels),
        cycle_(static_cast<std::uint32_t>(util::ceil_div(n_, channels_))) {
    if (cycle_ < 1) cycle_ = 1;
  }

  [[nodiscard]] std::string name() const override { return "mc_striped_rr"; }
  [[nodiscard]] std::uint32_t channels() const override { return channels_; }
  [[nodiscard]] std::unique_ptr<McStationRuntime> make_runtime(StationId u,
                                                               Slot wake) const override {
    (void)wake;
    return std::make_unique<StripedRrRuntime>(u, channels_, cycle_);
  }

  // Oblivious capability: station u owns channel u % C and cycle slot
  // u / C — TDM striped across lanes, a pure function of the global clock.
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  [[nodiscard]] std::uint32_t schedule_channels() const override { return channels_; }
  [[nodiscard]] std::uint32_t channel_lane(StationId u, Slot wake) const override {
    (void)wake;
    return u % channels_;
  }
  [[nodiscard]] std::uint64_t schedule_word(StationId u, Slot wake, Slot from) const override {
    (void)wake;  // the stripe depends only on the global clock
    const auto turn = static_cast<Slot>(u / channels_);
    const auto cycle = static_cast<Slot>(cycle_);
    if (turn >= cycle) return 0;  // out-of-universe station: its turn never comes
    Slot j = (turn - from) % cycle;
    if (j < 0) j += cycle;
    std::uint64_t word = 0;
    for (; j < 64; j += cycle) word |= std::uint64_t{1} << j;
    return word;
  }
  [[nodiscard]] bool words_are_cheap() const override { return true; }

 private:
  std::uint32_t n_;
  std::uint32_t channels_;
  std::uint32_t cycle_;
};

// ------------------------------------------------------ group wait_and_go

class GroupWaitAndGo final : public McProtocol, public ObliviousSchedule {
 public:
  GroupWaitAndGo(std::uint32_t n, std::uint32_t k, std::uint32_t channels,
                 comb::FamilyKind kind, std::uint64_t seed)
      : channels_(channels < 1 ? 1 : channels), seed_(seed) {
    // Per-group contention is ~k/C; keep the full-k depth for safety when
    // hashing is uneven, but per-group schedules use independent seeds.
    lanes_.reserve(channels_);
    for (std::uint32_t c = 0; c < channels_; ++c) {
      const std::uint64_t lane_seed = util::hash_words({seed, 0x4d43574147ULL /* "MCWAG" */, c});
      lanes_.push_back(make_wait_and_go(n, k, kind, lane_seed));
    }
  }

  [[nodiscard]] std::string name() const override { return "mc_group_wag"; }
  [[nodiscard]] std::uint32_t channels() const override { return channels_; }
  [[nodiscard]] std::unique_ptr<McStationRuntime> make_runtime(StationId u,
                                                               Slot wake) const override {
    const std::uint32_t group = group_of(u);
    return std::make_unique<AdapterRuntime>(lanes_[group]->make_runtime(u, wake), group);
  }

  // Oblivious capability: station u is pinned to channel h(u) and runs its
  // group's wait_and_go there.
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  [[nodiscard]] std::uint32_t schedule_channels() const override { return channels_; }
  [[nodiscard]] std::uint32_t channel_lane(StationId u, Slot wake) const override {
    (void)wake;
    return group_of(u);
  }
  [[nodiscard]] std::uint64_t schedule_word(StationId u, Slot wake, Slot from) const override {
    return lanes_[group_of(u)]->oblivious_schedule()->schedule_word(u, wake, from);
  }

 private:
  [[nodiscard]] std::uint32_t group_of(StationId u) const {
    return static_cast<std::uint32_t>(
        util::hash_words({seed_, 0x47525055ULL /* "GRPU" */, u}) % channels_);
  }

  std::uint32_t channels_;
  std::uint64_t seed_;
  std::vector<ProtocolPtr> lanes_;  ///< one wait_and_go per lane
};

// ---------------------------------------------------- random-channel RPD

class RandomRpdRuntime final : public McStationRuntime {
 public:
  RandomRpdRuntime(std::uint32_t channels, unsigned ell, util::Rng rng)
      : channels_(channels), ell_(ell), rng_(rng) {}

  [[nodiscard]] mac::ChannelAction act(Slot t) override {
    const auto channel = static_cast<std::uint32_t>(rng_.uniform(channels_));
    const auto phase = static_cast<unsigned>(static_cast<std::uint64_t>(t) %
                                             static_cast<std::uint64_t>(ell_));
    return {rng_.bernoulli_pow2(1 + phase), channel};
  }

 private:
  std::uint32_t channels_;
  unsigned ell_;
  util::Rng rng_;
};

class RandomChannelRpd final : public McProtocol {
 public:
  RandomChannelRpd(std::uint32_t n, std::uint32_t channels, std::uint64_t seed)
      : channels_(channels < 1 ? 1 : channels),
        ell_(2 * util::log2n_clamped(n)),
        seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "mc_random_rpd"; }
  [[nodiscard]] std::uint32_t channels() const override { return channels_; }
  [[nodiscard]] bool randomized() const override { return true; }
  [[nodiscard]] std::unique_ptr<McStationRuntime> make_runtime(StationId u,
                                                               Slot wake) const override {
    util::Rng rng(util::hash_words({seed_, 0x4d435250ULL /* "MCRP" */, u,
                                    static_cast<std::uint64_t>(wake)}));
    return std::make_unique<RandomRpdRuntime>(channels_, ell_ < 2 ? 2 : ell_, rng);
  }

 private:
  std::uint32_t channels_;
  unsigned ell_;
  std::uint64_t seed_;
};

}  // namespace

McProtocolPtr make_single_channel_adapter(ProtocolPtr inner, std::uint32_t channels) {
  return std::make_shared<SingleChannelAdapter>(std::move(inner), channels);
}

McProtocolPtr make_striped_round_robin(std::uint32_t n, std::uint32_t channels) {
  return std::make_shared<StripedRoundRobin>(n, channels);
}

McProtocolPtr make_group_wait_and_go(std::uint32_t n, std::uint32_t k, std::uint32_t channels,
                                     comb::FamilyKind kind, std::uint64_t seed) {
  return std::make_shared<GroupWaitAndGo>(n, k, channels, kind, seed);
}

McProtocolPtr make_random_channel_rpd(std::uint32_t n, std::uint32_t channels,
                                      std::uint64_t seed) {
  return std::make_shared<RandomChannelRpd>(n, channels, seed);
}

}  // namespace wakeup::proto
