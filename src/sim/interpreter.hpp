#pragma once

/// \file interpreter.hpp
/// The universal slot-by-slot back-end, for one channel and for C: one
/// virtual call per awake station per slot, with feedback delivery.
///
/// This engine works for every protocol (adaptive, randomized, oblivious)
/// and is the only one that can record execution traces.  Oblivious
/// protocols are normally routed to the word-parallel batch engine instead
/// (see batch_engine.hpp, which serves one channel and C alike); the
/// dispatching front-end is `dispatch_wakeup` (simulator.hpp), one
/// overload per channel model.
///
/// Both entry points run one loop over C lanes, and the paper's channel is
/// its one-lane case: a single-channel runtime's `transmits(t)` is a lane-0
/// action.  Per slot each lane resolves on its own transmitter count (or
/// the impairment plan's effective outcome — wideband, every lane alike),
/// each station hears the lane it acted on, the outcome counters are summed
/// over lanes, and the winner is the transmitter on the lowest solo lane.
/// A station acting on a channel >= C throws std::invalid_argument.

#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Runs `protocol` against `pattern` one slot at a time.  Semantics are the
/// reference; the batch engine must match it bit for bit on oblivious
/// protocols.
[[nodiscard]] SimResult run_wakeup_interpreter(const proto::Protocol& protocol,
                                               const mac::WakePattern& pattern,
                                               const SimConfig& config);

/// The same loop over `protocol.channels()` lanes; the result names the
/// winning lane in `success_channel`.  Traces record lane 0 only, and full
/// resolution departs each solo winner of a slot; the C-channel
/// `dispatch_wakeup` rejects both, along with CD feedback.
[[nodiscard]] SimResult run_wakeup_interpreter(const proto::McProtocol& protocol,
                                               const mac::WakePattern& pattern,
                                               const SimConfig& config);

}  // namespace wakeup::sim
