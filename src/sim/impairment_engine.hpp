#pragma once

/// \file impairment_engine.hpp
/// Compiles a `mac::ImpairmentSpec` into per-trial 64-slot word masks.
///
/// The engines never interpret the spec themselves: `compile_impairment`
/// realizes one trial's noise/jam/fault randomness up front into an
/// `ImpairmentPlan` — two word arrays (noise, corrupt) indexed by absolute
/// slot / 64 plus the fault assignments — and every engine (interpreter,
/// static batch, multichannel, dynamic) folds the same words into its slot
/// reductions.  That keeps interpreter ≡ batch bit-identity trivially: both
/// read the *same realization*, not the same distribution.
///
/// Word algebra applied by the batch engines after each OR-reduction
/// (any = "someone transmitted", multi = "two or more transmitted"):
///
///   multi |= (any & noise) | corrupt;   // noisy solo garbles, jam collides
///   any   |= corrupt;                   // a jammed silent slot is audible
///
/// so a corrupted slot reads as a collision even with zero transmitters and
/// a noisy slot only degrades an actual transmission.  The interpreter's
/// per-slot equivalent is `effective_outcome` below.
///
/// Determinism contract: the plan is a pure function of (spec, seed,
/// horizon, stations, jam_override).  The seed is the trial seed hashed
/// with the "IMP" tag; each clause draws from its own split substream, so
/// e.g. the noise realization is independent of the jam placement — the
/// adversarial jam search compares candidate schedules against a fixed
/// noise background.

#include <cstdint>
#include <utility>
#include <vector>

#include "mac/impairment.hpp"
#include "mac/types.hpp"

namespace wakeup::sim {

using mac::Slot;
using mac::StationId;

/// One trial's realized impairments, compiled to engine-ready word masks.
///
/// The word arrays cover slots [0, horizon); accessors answer 0 (clean)
/// beyond that, so a simulation running past the compiled horizon degrades
/// to a clean channel instead of reading out of bounds.
struct ImpairmentPlan {
  mac::ImpairmentSpec spec;
  Slot horizon = 0;
  /// Bit t%64 of word t/64: feedback noise garbles slot t.
  std::vector<std::uint64_t> noise_words;
  /// Jam and byzantine interference merged: slot t reads as a collision.
  std::vector<std::uint64_t> corrupt_words;
  /// The realized jam schedule, ascending (reported and reused by the
  /// adversarial search; byzantine interference is not listed here).
  std::vector<Slot> jam_slots;
  /// (station, cutoff): the station stops transmitting at slots >= cutoff.
  /// Sorted by station id.
  std::vector<std::pair<StationId, Slot>> crashes;
  /// Byzantine station ids, ascending.
  std::vector<StationId> byzantine;

  [[nodiscard]] bool clean() const noexcept {
    return noise_words.empty() && corrupt_words.empty() && crashes.empty() &&
           byzantine.empty();
  }
  [[nodiscard]] std::uint64_t noise_word(std::size_t w) const noexcept {
    return w < noise_words.size() ? noise_words[w] : 0;
  }
  [[nodiscard]] std::uint64_t corrupt_word(std::size_t w) const noexcept {
    return w < corrupt_words.size() ? corrupt_words[w] : 0;
  }
  [[nodiscard]] bool noisy(Slot t) const noexcept {
    return t >= 0 && ((noise_word(static_cast<std::size_t>(t) / 64) >>
                       (static_cast<std::size_t>(t) % 64)) &
                      1) != 0;
  }
  [[nodiscard]] bool corrupted(Slot t) const noexcept {
    return t >= 0 && ((corrupt_word(static_cast<std::size_t>(t) / 64) >>
                       (static_cast<std::size_t>(t) % 64)) &
                      1) != 0;
  }
  /// Number of corrupted slots in [lo, hi) — the multichannel adapter's
  /// side-lane accounting.
  [[nodiscard]] std::uint64_t corrupted_in(Slot lo, Slot hi) const noexcept;
  /// First slot at which `u` has crashed, or -1 if it never does.
  [[nodiscard]] Slot crash_cutoff(StationId u) const noexcept;
  [[nodiscard]] bool is_byzantine(StationId u) const noexcept;
  /// First slot from which `u` no longer follows its protocol: its crash
  /// cutoff, 0 for a byzantine station (it never did), the largest Slot
  /// for a station that always does.
  [[nodiscard]] Slot follows_until(StationId u) const noexcept;
  /// True iff station `u` still follows its protocol at slot t.
  [[nodiscard]] bool participates(StationId u, Slot t) const noexcept {
    return t < follows_until(u);
  }

  /// The slot outcome listeners perceive, given the true transmitter count.
  [[nodiscard]] mac::SlotOutcome effective_outcome(Slot t,
                                                   std::size_t transmitters) const noexcept {
    if (corrupted(t)) return mac::SlotOutcome::kCollision;
    if (transmitters == 0) return mac::SlotOutcome::kSilence;
    if (transmitters > 1) return mac::SlotOutcome::kCollision;
    return noisy(t) ? mac::SlotOutcome::kCollision : mac::SlotOutcome::kSuccess;
  }
};

/// Realizes `spec` over slots [0, horizon) from the trial seed.
///
/// `stations` is the participating-station population fault clauses draw
/// from (the dynamic scenario's station list); passing nullptr while the
/// spec has crash/byzantine clauses throws — the static layer validates
/// faults away before ever compiling.  `jam_override`, when non-null,
/// replaces the spec's jam schedule with an explicit slot list (the
/// adversarial search's resolved placement); required when jam_sched is
/// kAdversarial.
[[nodiscard]] ImpairmentPlan compile_impairment(
    const mac::ImpairmentSpec& spec, std::uint64_t seed, Slot horizon,
    const std::vector<StationId>* stations = nullptr,
    const std::vector<Slot>* jam_override = nullptr);

}  // namespace wakeup::sim
