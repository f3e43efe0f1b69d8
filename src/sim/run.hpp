#pragma once

/// \file run.hpp
/// `sim::Run` — the one entry point of the simulation stack.
///
/// A RunSpec names a protocol (single- or C-channel, fixed instance or
/// seeded cell builder), a wake pattern (fixed or per-trial builder) or
/// dynamic traffic, an engine selection, a trial count, and optional
/// per-trial sinks; `Run` executes it: one call covers a single traced run,
/// a Monte-Carlo sweep cell, and everything in between, for both channel
/// models.  Every trial lands in the run's one `sim::Aggregator`, which
/// `RunOutcome::cell()` finalizes.
///
/// ```cpp
/// // Single run, single channel:
/// auto r = sim::Run({.protocol = &rr, .pattern = &pattern}).sim;
/// // Single run, C channels, forced slot interpreter (same result type):
/// auto m = sim::Run({.mc_protocol = &striped, .pattern = &pattern,
///                    .sim = {.engine = sim::Engine::kInterpreter}}).sim;
/// // Sweep cell (protocol hoisted, trials on the pool, 2000-resample CIs):
/// auto c = sim::Run({.make_protocol = factory, .make_pattern = gen,
///                    .trials = 256, .base_seed = 1}, &pool).cell(2000);
/// ```
///
/// Seed contract (unchanged from the pre-facade harness): trial i derives
/// its seed as hash(base_seed, "TR", cell_tag, i) and the wake pattern
/// flows from that seed; deterministic protocols are built once per cell
/// from hash(base_seed, "PROTO", cell_tag) and shared by every trial;
/// randomized protocols are rebuilt per trial from a stream derived from
/// the trial seed; the cell's bootstrap CIs resample from
/// hash(base_seed, "CI", cell_tag).  Per-trial outputs land in slot i
/// regardless of thread count, so aggregates are bitwise
/// thread-count-independent.

#include <cstdint>
#include <functional>

#include "mac/arrival_process.hpp"
#include "mac/impairment.hpp"
#include "mac/wake_pattern.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/protocol.hpp"
#include "sim/aggregator.hpp"
#include "sim/dynamic.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace wakeup::sim {

class TrialCsvSink;

/// What to run.  Exactly one of {protocol, mc_protocol, make_protocol,
/// make_mc_protocol} selects the protocol and the channel model; exactly
/// one of {pattern, make_pattern} selects the wake pattern.  Fixed
/// instances/patterns are borrowed, not owned — they must outlive the
/// `Run` call.
struct RunSpec {
  /// Fixed single-channel protocol instance.
  const proto::Protocol* protocol = nullptr;
  /// Fixed C-channel protocol instance.
  const proto::McProtocol* mc_protocol = nullptr;
  /// Seeded single-channel cell builder (see the seed contract above).
  std::function<proto::ProtocolPtr(std::uint64_t seed)> make_protocol;
  /// Seeded C-channel cell builder.
  std::function<proto::McProtocolPtr(std::uint64_t seed)> make_mc_protocol;

  /// Fixed wake pattern, reused by every trial.
  const mac::WakePattern* pattern = nullptr;
  /// Per-trial pattern builder, drawing from the trial's RNG stream.
  std::function<mac::WakePattern(util::Rng& rng)> make_pattern;

  // -- Dynamic traffic (sustained load, single-channel) -----------------
  /// > 0 switches the run to dynamic mode (sim/dynamic.hpp): per-station
  /// FIFO queues served over [0, horizon) slots, stations re-contending
  /// per packet.  Dynamic specs take no pattern source; traffic comes from
  /// exactly one of `scenario` (fixed, deterministic replay) or `arrival`
  /// realized per trial for `dynamic_k` stations of a `dynamic_n` universe
  /// from the trial's RNG stream (the slot a wake pattern would occupy in
  /// the seed contract).  SimConfig::max_slots is ignored — the horizon is
  /// the budget and every trial resolves all of it.
  mac::Slot horizon = 0;
  mac::ArrivalSpec arrival;
  std::uint32_t dynamic_n = 0;
  std::uint32_t dynamic_k = 0;
  const mac::DynamicScenario* scenario = nullptr;

  /// Channel impairment (mac/impairment.hpp) applied to every trial.  The
  /// realization is compiled per trial from the trial seed — noise/jam
  /// draws vary per trial exactly like wake patterns do — except an
  /// adversarial jam placement (`jam:budget:J:adversarial`), which is
  /// searched once per cell from hash(base_seed, "JAM", cell_tag) against
  /// trial 0's pattern and then faced by every trial.  Crash/byzantine
  /// fault clauses need dynamic mode (the station population is the
  /// scenario's); adversarial jam needs the static single-channel stack.
  /// When non-clean this takes precedence over a caller-set
  /// `sim.impairment` plan.
  mac::ImpairmentSpec impairment;

  /// Engine selection, slot budget, trace/full-resolution flags.  The
  /// engine flows through `dispatch_wakeup`, so oblivious protocols
  /// (either channel model) batch word-parallel by default.
  SimConfig sim;

  std::uint64_t trials = 1;
  std::uint64_t base_seed = 1;
  /// Distinguishes cells that share a base_seed (hashed into trial seeds).
  std::uint64_t cell_tag = 0;

  /// Optional per-trial sinks, called as sink(i, result) from worker
  /// threads (each trial index exactly once; the callee must tolerate
  /// concurrent calls for distinct i).  `per_trial` fires for static runs
  /// of either channel model.  `per_trial_mc`, its former C-channel
  /// spelling, fires alike; it stays only because the frozen preset-sweep
  /// benchmark (perfbench/sweep.cpp) still sets it.
  std::function<void(std::uint64_t trial, const SimResult& result)> per_trial;
  std::function<void(std::uint64_t trial, const SimResult& result)> per_trial_mc;
  /// ... and `per_trial_dynamic` for dynamic (horizon > 0) runs.
  std::function<void(std::uint64_t trial, const DynamicResult& result)> per_trial_dynamic;
  /// Optional streaming CSV sink (sim/results_sink.hpp): one row per
  /// trial, written as trials complete, nothing accumulated in memory.
  TrialCsvSink* trial_csv = nullptr;
};

/// Everything a Run produces.  For 1-trial specs the per-run result
/// (`sim` for static runs of either channel model, `dynamic` for dynamic
/// traffic) is filled; `cell()` reduces all trials.
struct RunOutcome {
  bool dynamic_mode = false;  ///< spec.horizon > 0: `dynamic` is meaningful
  SimResult sim;              ///< trials == 1, static
  DynamicResult dynamic;      ///< trials == 1, dynamic traffic

  /// The cell's statistics over every trial, finalized on each call, with
  /// `ci_resamples` bootstrap resamples for the mean CIs, seeded by
  /// ci_seed(base_seed, cell_tag), and the exact median CI (0: every CI
  /// collapses to its estimate).  While `obs::active()`, each call's wall
  /// time lands in the "phase.finalize_us" histogram.
  [[nodiscard]] CellStats cell(std::uint64_t ci_resamples = 0) const;

 private:
  friend RunOutcome Run(const RunSpec& spec, util::ThreadPool* pool);
  Aggregator trials_;
  std::uint64_t ci_seed_ = 0;
};

/// Executes `spec`.  With `pool` null, multi-trial specs run on the
/// process-wide `util::ThreadPool::shared()`; pass an explicit pool — e.g.
/// one with 0 workers, which keeps every trial inline — to control
/// placement.  Trial 0 runs on the calling thread and is timed; the other
/// trials fan out onto the pool only when that time x (trials - 1) pays for
/// waking its workers, and run inline otherwise.  The pool nests, so a Run
/// issued from inside a task of the same pool is safe.  Results are bitwise
/// identical for every worker count.  Throws std::invalid_argument on
/// ambiguous or incomplete specs (see RunSpec) and on engine/feature
/// combinations the chosen model cannot serve.
[[nodiscard]] RunOutcome Run(const RunSpec& spec, util::ThreadPool* pool = nullptr);

// -- Seed-contract hooks ----------------------------------------------------
//
// The three derivations below ARE the documented RunSpec seed contract;
// they are exposed so layers above the facade (the exp/ sweep orchestrator,
// test fixtures) can derive per-cell and per-trial streams that agree bit
// for bit with what `Run` uses internally — e.g. to finalize an Aggregator
// of their own, or to seed an adversarial pattern search from the same
// (base_seed, cell_tag) identity that reproduces the cell in isolation.

/// Seed of trial `i` of cell (base_seed, cell_tag): the wake pattern and
/// (for randomized protocols) the per-trial protocol stream flow from this.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell_tag,
                                       std::uint64_t trial);

/// Cell-level protocol seed: deterministic protocols are built once per cell
/// from this and shared by every trial.
[[nodiscard]] std::uint64_t cell_protocol_seed(std::uint64_t base_seed, std::uint64_t cell_tag);

/// Bootstrap CI stream of a cell: tied to the same identity as the trial
/// seeds but on its own tag, so adding resamples never perturbs the
/// simulation and any cell subset reproduces its CIs alone.
[[nodiscard]] std::uint64_t ci_seed(std::uint64_t base_seed, std::uint64_t cell_tag);

}  // namespace wakeup::sim
