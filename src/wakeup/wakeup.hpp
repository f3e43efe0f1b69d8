#pragma once

/// \file wakeup.hpp
/// Umbrella header for libwakeup — contention resolution on a
/// non-synchronized multiple access channel (De Marco & Kowalski,
/// IPDPS 2013).
///
/// Quickstart:
/// ```cpp
/// #include "wakeup/wakeup.hpp"
/// using namespace wakeup;
///
/// util::Rng rng(42);
/// auto pattern = mac::patterns::staggered(/*n=*/256, /*k=*/8, /*s=*/0,
///                                         /*gap=*/3, rng);
/// core::ProblemSpec spec{.n = 256};               // Scenario C: only n known
/// auto result = core::resolve_contention(spec, pattern, {}, {});
/// // result.rounds is the wake-up cost t - s.
/// ```

#include "core/scenario.hpp"   // IWYU pragma: export
#include "core/solver.hpp"     // IWYU pragma: export

#include "combinatorics/builders.hpp"            // IWYU pragma: export
#include "combinatorics/doubling_schedule.hpp"   // IWYU pragma: export
#include "combinatorics/io.hpp"                  // IWYU pragma: export
#include "combinatorics/selective_family.hpp"    // IWYU pragma: export
#include "combinatorics/transmission_matrix.hpp" // IWYU pragma: export
#include "combinatorics/verifier.hpp"            // IWYU pragma: export
#include "combinatorics/waking_search.hpp"       // IWYU pragma: export
#include "combinatorics/waking_verifier.hpp"     // IWYU pragma: export

#include "exp/manifest.hpp"      // IWYU pragma: export
#include "exp/presets.hpp"       // IWYU pragma: export
#include "exp/sweep_runner.hpp"  // IWYU pragma: export
#include "exp/sweep_spec.hpp"    // IWYU pragma: export

#include "obs/metrics.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"    // IWYU pragma: export

#include "mac/arrival_process.hpp"  // IWYU pragma: export
#include "mac/channel.hpp"       // IWYU pragma: export
#include "mac/multichannel.hpp"  // IWYU pragma: export
#include "mac/pattern_io.hpp"    // IWYU pragma: export
#include "mac/trace.hpp"         // IWYU pragma: export
#include "mac/types.hpp"         // IWYU pragma: export
#include "mac/wake_pattern.hpp"  // IWYU pragma: export

#include "protocols/adaptive_cw.hpp"             // IWYU pragma: export
#include "protocols/aloha.hpp"                   // IWYU pragma: export
#include "protocols/backoff.hpp"                 // IWYU pragma: export
#include "protocols/interleaved.hpp"             // IWYU pragma: export
#include "protocols/local_doubling.hpp"          // IWYU pragma: export
#include "protocols/multichannel.hpp"            // IWYU pragma: export
#include "protocols/protocol.hpp"                // IWYU pragma: export
#include "protocols/registry.hpp"                // IWYU pragma: export
#include "protocols/round_robin.hpp"             // IWYU pragma: export
#include "protocols/rpd.hpp"                     // IWYU pragma: export
#include "protocols/select_among_the_first.hpp"  // IWYU pragma: export
#include "protocols/tree_splitting.hpp"          // IWYU pragma: export
#include "protocols/wait_and_go.hpp"             // IWYU pragma: export
#include "protocols/wakeup_matrix.hpp"           // IWYU pragma: export
#include "protocols/wakeup_with_k.hpp"           // IWYU pragma: export
#include "protocols/wakeup_with_s.hpp"           // IWYU pragma: export

#include "sim/adversary.hpp"       // IWYU pragma: export
#include "sim/aggregator.hpp"      // IWYU pragma: export
#include "sim/batch_engine.hpp"    // IWYU pragma: export
#include "sim/dynamic.hpp"         // IWYU pragma: export
#include "sim/interpreter.hpp"     // IWYU pragma: export
#include "sim/results_sink.hpp"    // IWYU pragma: export
#include "sim/run.hpp"             // IWYU pragma: export
#include "sim/simulator.hpp"       // IWYU pragma: export

#include "util/math.hpp"   // IWYU pragma: export
#include "util/rng.hpp"    // IWYU pragma: export
#include "util/stats.hpp"  // IWYU pragma: export
