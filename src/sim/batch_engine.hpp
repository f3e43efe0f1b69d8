#pragma once

/// \file batch_engine.hpp
/// The word-parallel engine for oblivious protocols, one channel or C: the
/// batch back-end of both `dispatch_wakeup` overloads and of
/// `dispatch_dynamic`.
///
/// Advances one *tile* of 64 * W slots per resolve round (W = tile_words(),
/// default 8 -> 512 slots): each live station contributes one row of W
/// consecutive 64-slot schedule words to a station-major word matrix — one
/// `proto::ObliviousSchedule::schedule_block` call per station per tile,
/// amortizing the virtual dispatch W-fold.  Every station is pinned to one channel lane
/// (`channel_lane`; always 0 for single-channel schedules) and its row is
/// OR-folded into that lane's (any, multi) reduction rows with the
/// util/simd.hpp kernels (`any` = some station transmits, `multi` = two or
/// more).  `masked_popcount_pair` gives the per-lane silence/collision
/// totals of resolved words, and `first_set_below` over the lane-solo
/// union locates the first success.  Rows are per-station packet queues
/// (sim/traffic.hpp): after each single-channel delivery the winner's row
/// is refilled from its next head-of-line contention start — zeroed when
/// its queue drains, which for a static station's one packet is the
/// full-resolution drain — and the remaining columns are re-resolved.
/// Results are bit-identical to the slot-by-slot interpreter for every
/// tile width and kernel table (tests/test_engine_equivalence.cpp,
/// tests/test_mc_engine_equivalence.cpp, tests/test_dynamic_engine.cpp);
/// traces are not supported, the dispatchers fall back to the interpreter
/// for those.

#include <cstddef>
#include <cstdint>

#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Widest tile the engines allocate for (words per station row).
inline constexpr std::size_t kMaxTileWords = 8;

/// Tile width in effect: 64-slot words fetched per live station per
/// resolve round, in [1, kMaxTileWords].  Defaults to kMaxTileWords;
/// overridable via `set_tile_words`.  Results are bit-identical for every
/// width — only the cost profile moves (tests sweep widths, benches use
/// width 1 as the pre-tiling scalar baseline).
[[nodiscard]] std::size_t tile_words() noexcept;

/// Overrides the tile width (clamped to [1, kMaxTileWords]); 0 restores
/// the default.  For tests and benches.
void set_tile_words(std::size_t words) noexcept;

/// Can `run_wakeup_batch` execute this (protocol, config) pair?
/// Requires a single-lane oblivious schedule and no trace recording.
[[nodiscard]] bool batch_engine_supports(const proto::Protocol& protocol,
                                         const SimConfig& config);

/// The C-channel twin: requires an oblivious schedule spanning exactly
/// protocol.channels() lanes, and neither a trace nor full resolution.
[[nodiscard]] bool batch_engine_supports(const proto::McProtocol& protocol,
                                         const SimConfig& config);

/// Runs `protocol` against `pattern` one word-matrix tile at a time.
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
/// resolve quickly never pay for schedule tiles they do not need), then
/// continues word-parallel.  The prefix length comes from
/// SimConfig::warmup_slots, defaulting to one 64-slot block for
/// expensive-word schedules and zero for cheap ones (`words_are_cheap`).
/// Same preconditions and bit-identical results as run_wakeup_batch, for
/// every prefix length.
[[nodiscard]] SimResult run_wakeup_hybrid(const proto::Protocol& protocol,
                                          const mac::WakePattern& pattern,
                                          const SimConfig& config);

}  // namespace wakeup::sim
