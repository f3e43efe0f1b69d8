#pragma once

/// \file mc_simulator.hpp
/// Discrete-event execution on the C-channel network (extension; see
/// mac/multichannel.hpp).  Wake-up completes at the first slot in which any
/// channel carries a solo transmission.
///
/// `dispatch_mc_wakeup` is the engine-selection layer under the `sim::Run`
/// facade (sim/run.hpp), mirroring the single-channel `dispatch_wakeup`:
/// it routes between the slot-by-slot interpreter (sim/interpreter.hpp,
/// universal; one loop for one channel and C) and the static batch engine
/// (sim/batch_engine.hpp, `run_mc_batch`: the single-channel engine with C
/// lanes) for protocols exposing the channel-aware
/// `proto::ObliviousSchedule` capability, per SimConfig::engine.

#include "mac/multichannel.hpp"
#include "mac/wake_pattern.hpp"
#include "protocols/multichannel.hpp"
#include "sim/simulator.hpp"

namespace wakeup::sim {

struct McSimResult {
  bool success = false;
  mac::Slot s = 0;
  mac::Slot success_slot = -1;
  std::int64_t rounds = -1;
  std::int32_t success_channel = -1;
  mac::StationId winner = 0;
  std::uint64_t collisions = 0;  ///< collision slots summed over channels, whole run
  /// Silent channel-slots summed over ALL C channels for the whole run —
  /// uniformly, including single-channel adapter runs (whose unused
  /// channels are silent by construction and charged like everyone
  /// else's).  The energy accounting of the multichannel extension needs
  /// one convention across strategies, and per-engine equivalence is
  /// checked counter for counter.
  std::uint64_t silences = 0;
  /// Solo-transmission slots summed over channels across the whole run —
  /// not just the final slot; several channels can carry solos in the slot
  /// that completes wake-up, and (k = 1)-style runs can see solos on side
  /// channels earlier.  The energy accounting of the multichannel
  /// extension depends on these being full-run totals.
  std::uint64_t successes = 0;
};

/// `r` as a C-channel result whose first success (if any) fell on lane
/// `success_channel`; every counter carries over unchanged.
[[nodiscard]] McSimResult to_mc_result(const SimResult& r, std::int32_t success_channel);

/// Engine-selection layer: runs `protocol` against `pattern` on the engine
/// selected by `config.engine` (kAuto routes adapters through the
/// single-channel engine stack and capability-bearing strategies through
/// the batch engine's C-lane entry point).  Only `config.max_slots`,
/// `config.engine` and `config.impairment` apply to the multichannel
/// model; traces, collision-detection feedback and full resolution throw
/// std::invalid_argument.  Most callers want the `sim::Run` facade
/// (sim/run.hpp) instead.
[[nodiscard]] McSimResult dispatch_mc_wakeup(const proto::McProtocol& protocol,
                                             const mac::WakePattern& pattern,
                                             const SimConfig& config);

}  // namespace wakeup::sim
