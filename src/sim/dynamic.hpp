#pragma once

/// \file dynamic.hpp
/// Dynamic traffic: per-station FIFO queues under sustained load.
///
/// A `mac::DynamicScenario` gives every station a FIFO packet queue fed by
/// an arrival stream; the head-of-line packet contends via the protocol
/// until delivered, and the next packet then starts a fresh contention at
/// the following slot.  Every slot in [0, horizon) resolves exactly once —
/// silence, collision, or delivery — so
///   silences + collisions + delivered = horizon  and
///   arrivals = delivered + backlog
/// hold as invariants.
///
/// There is no separate dynamic engine: the static engines already serve
/// packet queues, a wake pattern being the one-packet-per-station case
/// (`DynamicScenario::single_shot`; tests/test_dynamic_engine.cpp pins
/// that static full resolution is exactly its drain).  `dispatch_dynamic`
/// runs a scenario on the slot loop (sim/interpreter.cpp), which serves
/// every protocol — adaptive re-contenders through their own
/// `proto::DynamicStation`, everything else through a fresh one-shot
/// runtime per packet — or on the word loop (sim/batch_engine.cpp), which
/// serves oblivious single-channel schedules word-parallel: a delivered
/// winner's schedule word is refilled from its next head-of-line start and
/// zeroed only when its queue drains.  Results are bit-identical across
/// engines.
///
/// Contention start of a packet: max(arrival slot, previous delivery + 1).
/// Queue latency of a delivered packet: delivery - arrival + 1 (a packet
/// delivered in its arrival slot has latency 1).

#include <cstdint>
#include <vector>

#include "mac/arrival_process.hpp"
#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Outcome of one dynamic trial.
struct DynamicResult {
  mac::Slot horizon = 0;
  std::uint64_t arrivals = 0;    ///< packets that arrived in [0, horizon)
  std::uint64_t delivered = 0;   ///< head-of-line packets delivered
  std::uint64_t backlog = 0;     ///< arrivals - delivered (queued at horizon)
  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;

  /// Scenario stations (ascending) and their delivered counts, parallel.
  std::vector<mac::StationId> stations;
  std::vector<std::uint64_t> delivered_per_station;

  /// Queue latency (delivery - arrival + 1) per delivered packet, in
  /// delivery order — identical across engines, not just as a multiset.
  std::vector<double> latency;

  /// Per-station energy, parallel to `stations` (empty when the run's
  /// EnergyModel is kOff).  kListenAll charges every slot of the horizon
  /// (the receiver stays on); kListenUntilWoken charges only backlogged
  /// slots.  Crashed stations stop paying at their cutoff; byzantine
  /// stations never followed the protocol and pay 0.  `station_transmits`
  /// is the transmit-slot component — counted per slot by the interpreter,
  /// by lazy row popcounts in the batch engine (independent derivations,
  /// and the defaulted operator== below makes engine parity cover them).
  std::vector<std::uint64_t> station_energy;
  std::vector<std::uint64_t> station_transmits;

  /// Sustained throughput: delivered packets per slot.
  [[nodiscard]] double throughput() const noexcept {
    return horizon > 0 ? static_cast<double>(delivered) / static_cast<double>(horizon) : 0.0;
  }

  /// Jain's fairness index (sum x)^2 / (m * sum x^2) over the per-station
  /// delivered counts; 1 when every station delivered equally, 1/m when one
  /// station took everything.  1.0 for empty/all-zero scenarios.
  [[nodiscard]] double jain() const noexcept;

  [[nodiscard]] bool operator==(const DynamicResult&) const = default;
};

/// Runs `scenario` on the engine `engine` selects, mirroring
/// `dispatch_wakeup`: kAuto batches oblivious single-channel protocols and
/// interprets the rest; kBatch throws std::invalid_argument where
/// `batch_engine_supports` says no.
///
/// `plan` (nullable, not owned) applies one trial's channel impairments.
/// Dynamic traffic is where the station fault models live: a *crashed*
/// station follows its protocol until its cutoff slot and then falls
/// permanently silent (queued packets strand in the backlog); a
/// *byzantine* station never follows the protocol at all — its
/// adversarial transmissions are pre-folded into the plan's corrupt words
/// and its own packets are never delivered.  Noise and jam act exactly as
/// in static runs.  The slot invariants survive every impairment.
[[nodiscard]] DynamicResult dispatch_dynamic(const proto::Protocol& protocol,
                                             const mac::DynamicScenario& scenario,
                                             Engine engine = Engine::kAuto,
                                             const ImpairmentPlan* plan = nullptr,
                                             EnergyModel energy = EnergyModel::kOff);

}  // namespace wakeup::sim
