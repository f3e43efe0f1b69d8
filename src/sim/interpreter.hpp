#pragma once

/// \file interpreter.hpp
/// The universal slot-by-slot back-end of `run_wakeup`: one virtual
/// `transmits` call per awake station per slot, with feedback delivery.
///
/// This engine works for every protocol (adaptive, randomized, oblivious)
/// and is the only one that can record execution traces.  Oblivious
/// protocols are normally routed to the word-parallel batch engine instead
/// (see batch_engine.hpp, which serves one channel and C alike); the
/// dispatching front-end lives in simulator.cpp.

#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Runs `protocol` against `pattern` one slot at a time.  Semantics are the
/// reference; the batch engine must match it bit for bit on oblivious
/// protocols.
[[nodiscard]] SimResult run_wakeup_interpreter(const proto::Protocol& protocol,
                                               const mac::WakePattern& pattern,
                                               const SimConfig& config);

}  // namespace wakeup::sim
