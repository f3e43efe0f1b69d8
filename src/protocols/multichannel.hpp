#pragma once

/// \file multichannel.hpp
/// Multi-channel wake-up protocols (extension; see mac/multichannel.hpp).
///
/// Three strategies over C channels, plus an adapter embedding any
/// single-channel protocol on channel 0 as the baseline:
///
///  * striped round-robin — station u owns channel u mod C and slot
///    (u / C) of a ceil(n/C)-slot cycle: worst case ceil(n/C) - ... the
///    C-fold TDM speedup.
///  * group wait_and_go — stations hash into C groups; each group runs the
///    Scenario B doubling schedule privately on its channel.  Expected
///    contention per channel drops to ~k/C.
///  * random-channel RPD — each slot pick a uniform channel and run the
///    RPD coin for it; C solo opportunities per slot.

#include "combinatorics/doubling_schedule.hpp"
#include "mac/multichannel.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

/// Per-station runtime in the C-channel model.  Same calling contract as
/// StationRuntime, but each slot yields a (transmit, channel) action.
class McStationRuntime {
 public:
  virtual ~McStationRuntime() = default;
  [[nodiscard]] virtual mac::ChannelAction act(Slot t) = 0;
  /// Outcome observed on the channel this station acted on at slot t.
  virtual void feedback(Slot t, ChannelFeedback fb) {
    (void)t;
    (void)fb;
  }
};

class McProtocol {
 public:
  virtual ~McProtocol() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t channels() const = 0;
  [[nodiscard]] virtual std::unique_ptr<McStationRuntime> make_runtime(StationId u,
                                                                       Slot wake) const = 0;
  /// Non-null when the protocol is a single-channel protocol embedded on
  /// channel 0 (the adapter below): the multichannel dispatch then routes
  /// the run through the single-channel engine stack, so oblivious
  /// baselines get the word-parallel fast path too.
  [[nodiscard]] virtual const Protocol* single_channel() const { return nullptr; }
  /// Non-null iff the protocol is oblivious: deterministic, feedback-free,
  /// and every station pinned to one lane (`ObliviousSchedule::
  /// channel_lane`), with `schedule_channels() == channels()`.  The
  /// returned schedule must agree with `make_runtime` action for action;
  /// the batch engine (sim/batch_engine.hpp) then resolves runs 64 slots
  /// per lane at a time instead of one `act` per station per slot.
  [[nodiscard]] virtual const ObliviousSchedule* oblivious_schedule() const { return nullptr; }
  /// True for coin-flipping protocols (random-channel RPD): the sweep
  /// harness rebuilds them per trial from a per-trial stream instead of
  /// hoisting one instance per cell (same seed contract as
  /// proto::Requirements::randomized on the single-channel side).
  [[nodiscard]] virtual bool randomized() const { return false; }
};

using McProtocolPtr = std::shared_ptr<const McProtocol>;

/// Embeds a single-channel protocol on channel 0 of a C-channel network
/// (the extra channels stay idle — the baseline for speedup measurements).
[[nodiscard]] McProtocolPtr make_single_channel_adapter(ProtocolPtr inner,
                                                        std::uint32_t channels);

/// Striped round-robin: station u transmits on channel u % C in cycle slot
/// u / C; completes within ceil(n/C) slots of the first wake.
[[nodiscard]] McProtocolPtr make_striped_round_robin(std::uint32_t n, std::uint32_t channels);

/// Hash-grouped wait_and_go: station u joins group h(u) mod C and runs the
/// (n, k)-doubling schedule of its group on channel h(u).
[[nodiscard]] McProtocolPtr make_group_wait_and_go(std::uint32_t n, std::uint32_t k,
                                                   std::uint32_t channels,
                                                   comb::FamilyKind kind, std::uint64_t seed);

/// Random-channel RPD: per slot, choose a uniform channel and transmit with
/// the RPD probability 2^{-1-(t mod ell)}.
[[nodiscard]] McProtocolPtr make_random_channel_rpd(std::uint32_t n, std::uint32_t channels,
                                                    std::uint64_t seed);

}  // namespace wakeup::proto
