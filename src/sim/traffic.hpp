#pragma once

/// \file traffic.hpp
/// The packet queues the engines serve (internal to sim/).
///
/// One slot loop (sim/interpreter.cpp) and one tile loop
/// (sim/batch_engine.cpp) run static and dynamic traffic alike: every
/// station owns a FIFO queue of packets, its head-of-line packet contends
/// from max(arrival, previous delivery + 1) until delivered, and a drained
/// station falls silent.  A static wake pattern is the one-packet case —
/// each station's single packet arrives at its wake — and a static run
/// stops at the first success (or, under full resolution, at the last
/// delivery), where a dynamic run resolves every slot up to its horizon.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "mac/arrival_process.hpp"
#include "mac/wake_pattern.hpp"
#include "sim/simulator.hpp"

namespace wakeup::sim::detail {

/// "Never": the stop slot of a station that always follows its protocol,
/// and the contention start of a drained queue.
inline constexpr mac::Slot kNever = std::numeric_limits<mac::Slot>::max();

/// One station's packet queue.
struct Queue {
  mac::StationId id;
  mac::Slot awake_from;       ///< the slot its receiver turns on
  const mac::Slot* arrivals;  ///< its packets' arrival slots, ascending
  std::uint32_t packets;      ///< how many
};

/// The packet queues of one run in the order stations join it (their
/// awake_from slot), and the slots [begin, end) the run may examine.
class Traffic {
 public:
  /// Static traffic: one packet per pattern arrival, each station awake
  /// from its wake, over [s, s + budget).
  Traffic(const mac::WakePattern& pattern, mac::Slot budget)
      : arrivals_(pattern.arrivals().data()),
        size_(pattern.k()),
        begin_(pattern.first_wake()),
        end_(pattern.first_wake() + budget) {}

  /// Dynamic traffic: every scenario station (ascending), awake from slot
  /// 0 — listen:all keeps a receiver on for the whole horizon — over
  /// [0, horizon).
  explicit Traffic(const mac::DynamicScenario& scenario)
      : ids_(scenario.stations().data()),
        size_(scenario.stations().size()),
        queued_(true),
        slots_(size_),
        end_(scenario.horizon()) {
    // packets() is slot-sorted, so each station's sub-sequence is too.
    const auto& ids = scenario.stations();
    for (const mac::Arrival& p : scenario.packets()) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), p.station);
      slots_[static_cast<std::size_t>(it - ids.begin())].push_back(p.wake);
    }
  }

  /// Dynamic traffic runs to the end of its range; static traffic stops
  /// at the first success or, under full resolution, the last delivery.
  [[nodiscard]] bool queued() const noexcept { return queued_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] mac::Slot begin() const noexcept { return begin_; }
  [[nodiscard]] mac::Slot end() const noexcept { return end_; }

  [[nodiscard]] Queue operator[](std::size_t i) const noexcept {
    if (!queued_) {
      const mac::Arrival& a = arrivals_[i];
      return {a.station, a.wake, &a.wake, 1};
    }
    return {ids_[i], 0, slots_[i].data(), static_cast<std::uint32_t>(slots_[i].size())};
  }

 private:
  const mac::Arrival* arrivals_ = nullptr;  ///< static
  const mac::StationId* ids_ = nullptr;     ///< dynamic
  std::size_t size_ = 0;
  bool queued_ = false;
  std::vector<std::vector<mac::Slot>> slots_;  ///< dynamic, per station
  mac::Slot begin_ = 0;
  mac::Slot end_ = 0;
};

/// What a dynamic run records per delivery: the packet's queue latency
/// (delivery - arrival + 1) in delivery order, and the delivered count
/// per station (queue index).
struct Deliveries {
  std::vector<double> latency;
  std::vector<std::uint64_t> per_station;
};

/// The engines' dynamic-traffic entries behind `dispatch_dynamic`: the
/// slot loop (every protocol; adaptive re-contenders via
/// `proto::DynamicStation`) and the tile loop (oblivious single-channel
/// schedules, as `batch_engine_supports` says).  `config.impairment` and
/// `config.energy` apply; the outcome counters and per-station energy
/// come back in the SimResult, indexed by queue.
[[nodiscard]] SimResult interpret_traffic(const proto::Protocol& protocol, const Traffic& traffic,
                                          const SimConfig& config, Deliveries& deliveries);
[[nodiscard]] SimResult batch_traffic(const proto::Protocol& protocol, const Traffic& traffic,
                                      const SimConfig& config, Deliveries& deliveries);

}  // namespace wakeup::sim::detail
