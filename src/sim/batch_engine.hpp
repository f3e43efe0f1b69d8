#pragma once

/// \file batch_engine.hpp
/// The word-parallel engine for oblivious protocols, one channel or C: the
/// batch back-end of both `dispatch_wakeup` overloads and of
/// `dispatch_dynamic`.
///
/// Advances one 64-slot word per resolve round: each live station
/// contributes one schedule word (one
/// `proto::ObliviousSchedule::schedule_word` call), so a run fetches no
/// word past the one holding its last examined slot.  Every station is
/// pinned to one channel lane (`channel_lane`; always 0 for single-channel
/// schedules) and its word is OR-folded into that lane's (any, multi)
/// word pair (`any` = some station transmits, `multi` = two or more);
/// popcounts give the per-lane silence/collision totals and the lowest
/// bit of the lane-solo union is the first success.  Rows are per-station
/// packet queues
/// (sim/traffic.hpp): after each single-channel delivery the winner's word
/// is refilled from its next head-of-line contention start — zeroed when
/// its queue drains, which for a static station's one packet is the
/// full-resolution drain — and the rest of the word is re-resolved.
/// Results are bit-identical to the slot-by-slot interpreter
/// (tests/test_engine_equivalence.cpp, tests/test_mc_engine_equivalence.cpp,
/// tests/test_dynamic_engine.cpp); traces are not supported, the
/// dispatchers fall back to the interpreter for those.

#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Can `run_wakeup_batch` execute this (protocol, config) pair?
/// Requires a single-lane oblivious schedule and no trace recording.
[[nodiscard]] bool batch_engine_supports(const proto::Protocol& protocol,
                                         const SimConfig& config);

/// The C-channel twin: requires an oblivious schedule spanning exactly
/// protocol.channels() lanes, and neither a trace nor full resolution.
[[nodiscard]] bool batch_engine_supports(const proto::McProtocol& protocol,
                                         const SimConfig& config);

/// Runs `protocol` against `pattern` one 64-slot word at a time.
/// Preconditions: `batch_engine_supports(protocol, config)`; throws
/// std::invalid_argument otherwise.
[[nodiscard]] SimResult run_wakeup_batch(const proto::Protocol& protocol,
                                         const mac::WakePattern& pattern,
                                         const SimConfig& config);

/// The C-channel twin, all lanes per round.  Same preconditions; also
/// throws std::invalid_argument when a station's `channel_lane` is out of
/// range.  `config.impairment` folds one trial's wideband impairment words
/// into every lane's reduction rows, and the run accounts no energy.
[[nodiscard]] SimResult run_wakeup_batch(const proto::McProtocol& protocol,
                                         const mac::WakePattern& pattern,
                                         const SimConfig& config);

/// The Engine::kAuto fast path: interprets a warm-up prefix (runs that
/// resolve quickly never pay for schedule words they do not need), then
/// continues word-parallel.  The prefix length comes from
/// SimConfig::warmup_slots, defaulting to one 64-slot block for
/// expensive-word schedules and zero for cheap ones (`words_are_cheap`).
/// Same preconditions and bit-identical results as run_wakeup_batch, for
/// every prefix length.
[[nodiscard]] SimResult run_wakeup_hybrid(const proto::Protocol& protocol,
                                          const mac::WakePattern& pattern,
                                          const SimConfig& config);

}  // namespace wakeup::sim
