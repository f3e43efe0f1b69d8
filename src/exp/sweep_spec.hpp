#pragma once

/// \file sweep_spec.hpp
/// Declarative sweep grids over the simulation facade.
///
/// A `SweepSpec` names axes — protocol (registry name or multichannel
/// strategy), n, k, channels, engine, wake-pattern generator — plus a trial
/// count and base seed; `expand()` turns it into a deterministic,
/// stably-ordered list of `Cell`s.  Each cell carries a canonical textual
/// `tag` and its 64-bit FNV-1a hash, which becomes `sim::RunSpec::cell_tag`:
/// every per-trial seed is a pure function of (base_seed, tag), so any
/// subset of cells — a resumed run, a re-run of one interesting cell —
/// reproduces the full sweep's results bit-identically.
///
/// ```cpp
/// exp::SweepSpec spec;
/// spec.protocols = {"wakeup_with_k", "round_robin"};
/// spec.ns = exp::parse_axis_u32("2^10..2^13");
/// spec.ks = {2, 8, 64};
/// spec.trials = 64;
/// auto cells = exp::expand(spec);   // validated; throws friendly errors
/// ```

#include <cstdint>
#include <string>
#include <vector>

#include "mac/arrival_process.hpp"
#include "mac/impairment.hpp"
#include "mac/types.hpp"
#include "mac/wake_pattern.hpp"
#include "sim/simulator.hpp"

namespace wakeup::exp {

/// Wake-pattern generators a sweep can ask for: the six mac/wake_pattern
/// shapes plus the empirically-hard pattern found by the sim/adversary
/// hill-climbing search (per cell, seeded from the cell identity, then
/// fixed across that cell's trials).
enum class PatternKind : std::uint8_t {
  kSimultaneous,
  kUniform,
  kBatched,
  kStaggered,
  kPoisson,
  kExponentialSpread,
  kAdversarial,
};

/// Stable name used in tags, manifests and the CLI ("adversarial", or the
/// mac::patterns::kind_name spelling for the generator kinds).
[[nodiscard]] std::string pattern_name(PatternKind kind);

/// Inverse of pattern_name; throws std::invalid_argument with the list of
/// valid names on an unknown label.
[[nodiscard]] PatternKind parse_pattern(const std::string& label);

/// All pattern kinds, in tag order.
[[nodiscard]] const std::vector<PatternKind>& all_pattern_kinds();

/// The mac/wake_pattern generator behind a kind; throws std::logic_error
/// for kAdversarial (which is searched, not generated — sweep_runner.cpp).
[[nodiscard]] mac::patterns::Kind generator_kind(PatternKind kind);

/// Multichannel strategy names accepted in the protocol axis next to the
/// registry names ("striped_rr", "group_wag", "random_rpd").  Registry
/// protocols swept at channels > 1 ride the channel-0 adapter.
[[nodiscard]] const std::vector<std::string>& mc_strategy_names();

/// True iff `name` is one of mc_strategy_names().
[[nodiscard]] bool is_mc_strategy(const std::string& name);

/// The declarative grid.  Every axis must be non-empty; `expand()`
/// validates names and capabilities up front and drops infeasible
/// combinations (k > n) deterministically.
struct SweepSpec {
  std::vector<std::string> protocols = {"wakeup_with_k"};
  std::vector<std::uint32_t> ns = {1024};
  std::vector<std::uint32_t> ks = {8};
  std::vector<std::uint32_t> channels = {1};
  std::vector<sim::Engine> engines = {sim::Engine::kAuto};
  std::vector<PatternKind> patterns = {PatternKind::kUniform};
  mac::Slot s = 0;            ///< known start slot (Scenario A protocols)
  std::uint64_t trials = 64;  ///< Monte-Carlo trials per cell
  std::uint64_t base_seed = 1;
  sim::SimConfig sim;         ///< budget/engine template; engine comes from the axis

  /// Dynamic-traffic axis.  Non-empty switches the whole grid to sustained
  /// load: each cell realizes one ArrivalSpec over [0, horizon) per trial
  /// (k active stations of the n universe) instead of a wake pattern — the
  /// arrival axis *replaces* the pattern axis, so `patterns` must be left
  /// at its default.  Dynamic grids are single-channel and only accept
  /// protocols whose `dynamic` capability is set (`wakeup_cli list`).
  std::vector<mac::ArrivalSpec> arrivals;
  mac::Slot horizon = 2048;  ///< slots per dynamic trial (arrivals non-empty)

  /// Channel-impairment axis (mac/impairment.hpp grammar): each value is
  /// one ImpairmentSpec text ("none", "noise:iid:0.05",
  /// "jam:budget:16:adversarial", "noise:bursty:0.1:0.2+crash:0.25", ...);
  /// an empty list means one clean channel.  A single flat list — not one
  /// axis per clause kind — so L-shaped robustness grids (clean + a jam
  /// ladder + a noise ladder) cost |list| cells, not a dense product.
  /// Fault clauses (crash/byzantine) need a dynamic grid; adversarial jam
  /// is static single-channel.  expand() validates every value up front.
  std::vector<std::string> impairments;
};

/// One grid point, fully identified.
struct Cell {
  std::string protocol;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint32_t channels = 1;
  sim::Engine engine = sim::Engine::kAuto;
  PatternKind pattern = PatternKind::kUniform;
  std::uint64_t trials = 0;
  mac::Slot s = 0;
  bool dynamic = false;        ///< dynamic-traffic cell (arrival axis)
  mac::ArrivalSpec arrival;    ///< meaningful iff dynamic
  mac::Slot horizon = 0;       ///< meaningful iff dynamic
  mac::ImpairmentSpec impairment;  ///< clean() for unimpaired cells
  std::uint64_t index = 0;    ///< position in the expanded grid
  std::string tag;            ///< canonical identity string
  std::uint64_t tag_hash = 0; ///< FNV-1a of tag — sim::RunSpec::cell_tag
};

/// Engine axis spellings for tags and the CLI ("auto"/"interpret"/"batch").
[[nodiscard]] std::string engine_name(sim::Engine engine);
[[nodiscard]] sim::Engine parse_engine(const std::string& label);

/// FNV-1a 64-bit over the tag text — the cell_tag derivation.  Stable
/// forever: changing it re-seeds every historical sweep.
[[nodiscard]] std::uint64_t tag_hash(const std::string& tag);

/// The canonical tag of a cell identity (what `expand` stores): e.g.
/// "protocol=wakeup_with_k,n=1024,k=8,c=1,pattern=uniform,engine=auto,trials=64,s=0".
/// Dynamic cells append ",arrival=<spec>,horizon=<H>" (pass `arrival` as the
/// ArrivalSpec::name() text); impaired cells append ",impairment=<spec>"
/// (pass the ImpairmentSpec::name() text, empty for clean).  Clean static
/// tags are byte-identical to what every earlier release produced, so
/// historical seeds stay stable.
[[nodiscard]] std::string cell_tag_text(const std::string& protocol, std::uint32_t n,
                                        std::uint32_t k, std::uint32_t channels,
                                        sim::Engine engine, PatternKind pattern,
                                        std::uint64_t trials, mac::Slot s,
                                        const std::string& arrival = "", mac::Slot horizon = 0,
                                        const std::string& impairment = "");

/// Validates the spec and expands it into the stably-ordered cell list
/// (protocol-major, then n, k, channels, pattern, engine).  Throws
/// std::invalid_argument with actionable messages on unknown protocol
/// names (listing the registry), empty axes, or engine/capability
/// conflicts (kBatch on a non-oblivious protocol); silently drops k > n
/// combinations.
[[nodiscard]] std::vector<Cell> expand(const SweepSpec& spec);

/// Order-sensitive fingerprint of an expanded grid + base seed.  The
/// manifest stores it so `--resume` can refuse to mix results from a
/// different spec or seed into one report.
[[nodiscard]] std::uint64_t grid_fingerprint(const std::vector<Cell>& cells,
                                             std::uint64_t base_seed);

/// Axis grammar shared by the CLI and scripts: a comma-separated list of
/// items, each either a plain integer, `2^E`, or a doubling range `A..B`
/// (from A, doubling while <= B; endpoints may use either spelling).
/// "2^10..2^13" -> {1024, 2048, 4096, 8192}; "1,8,64" -> {1, 8, 64}.
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<std::uint32_t> parse_axis_u32(const std::string& text);

/// Arrival-axis grammar: a comma-separated list of mac::ArrivalSpec specs,
/// e.g. "poisson:0.1,bursty:0.5:0.05,pareto:1.5".  Throws
/// std::invalid_argument (with the per-kind grammar) on malformed specs and
/// on "replay" (replay traffic is loaded from a file, not swept).
[[nodiscard]] std::vector<mac::ArrivalSpec> parse_arrival_axis(const std::string& text);

/// Splits "a, b,c" into items with the spaces at their ends trimmed
/// (shared by axis parsers).  Throws std::invalid_argument naming the item
/// for an empty item ("2,,4", "2,", "") or a space inside one ("2 4").
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

}  // namespace wakeup::exp
