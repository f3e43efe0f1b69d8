#pragma once

/// \file interleaved.hpp
/// Parity interleaving of two protocols on one channel (the "very easy
/// operation in a scenario with global clock" of §3).
///
/// Even global slots t = 2v run component A at virtual slot v; odd slots
/// t = 2v + 1 run component B at virtual slot v.  Component runtimes are
/// created with the first virtual slot they will be queried at, preserving
/// the StationRuntime contract on the virtual axis.
///
/// Note: components whose behaviour depends on *comparing* station wake
/// times (e.g. `select_among_the_first`'s wake == s rule) must not be
/// interleaved through this combinator, because two distinct real wake
/// times can collapse onto one virtual slot; `wakeup_with_s` is therefore
/// implemented monolithically.

#include "protocols/protocol.hpp"

namespace wakeup::proto {

class InterleavedProtocol final : public Protocol, public ObliviousSchedule {
 public:
  InterleavedProtocol(ProtocolPtr even, ProtocolPtr odd, std::string label = {})
      : even_(std::move(even)),
        odd_(std::move(odd)),
        even_sched_(even_->oblivious_schedule()),
        odd_sched_(odd_->oblivious_schedule()),
        label_(std::move(label)) {}

  [[nodiscard]] std::string name() const override {
    return label_.empty() ? "interleave(" + even_->name() + "," + odd_->name() + ")" : label_;
  }
  [[nodiscard]] Requirements requirements() const override;
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;

  /// Oblivious exactly when both components are: the interleaving of two
  /// pure schedules is itself a pure schedule on the global slot axis.
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override {
    return (even_sched_ != nullptr && odd_sched_ != nullptr) ? this : nullptr;
  }
  [[nodiscard]] std::uint64_t schedule_word(StationId u, Slot wake, Slot from) const override {
    return single_station_word(u, wake, from);
  }
  /// One schedule_words call per component for all stations.
  void schedule_words(std::span<const StationWake> stations, Slot from,
                      std::span<std::uint64_t> out) const override;
  [[nodiscard]] bool words_are_cheap() const override {
    return even_sched_ != nullptr && odd_sched_ != nullptr && even_sched_->words_are_cheap() &&
           odd_sched_->words_are_cheap();
  }
  [[nodiscard]] const Protocol& even() const noexcept { return *even_; }
  [[nodiscard]] const Protocol& odd() const noexcept { return *odd_; }

 private:
  ProtocolPtr even_;
  ProtocolPtr odd_;
  const ObliviousSchedule* even_sched_;
  const ObliviousSchedule* odd_sched_;
  std::string label_;
};

}  // namespace wakeup::proto
