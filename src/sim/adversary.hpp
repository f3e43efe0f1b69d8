#pragma once

/// \file adversary.hpp
/// Adversarial analyses.
///
/// 1. The Theorem 2.1 element-swap game: against a (deterministic,
///    simultaneous-start) protocol, the adversary watches the rounds; every
///    time the current candidate set X would be resolved (|T_r ∩ X| = 1 with
///    winner x), it replaces x by a fresh station from the complement.  Any
///    correct protocol is thereby forced to spend at least min{k, n-k+1}
///    rounds on *some* set.
///
/// 2. A stochastic search for empirically hard wake patterns of a given
///    (n, k): random restarts plus local perturbations of wake times,
///    keeping the pattern that maximizes rounds-to-wake-up.
///
/// 3. A budgeted-jamming twin of (2): for a fixed protocol and wake
///    pattern, hill-climb over placements of J jam slots — the adversary
///    of the channel-impairment subsystem (mac/impairment.hpp,
///    `jam:budget:J:adversarial`) — keeping the schedule that maximizes
///    rounds-to-wake-up against a fixed noise background.

#include <cstdint>
#include <functional>
#include <vector>

#include "mac/impairment.hpp"
#include "mac/wake_pattern.hpp"
#include "protocols/protocol.hpp"
#include "sim/simulator.hpp"

namespace wakeup::sim {

struct SwapAdversaryResult {
  std::int64_t rounds_forced = 0;  ///< rounds played until the adversary ran out of swaps
  std::uint32_t swaps = 0;         ///< selections the adversary cancelled
  std::int64_t bound = 0;          ///< min{k, n-k+1} (Theorem 2.1)
  bool protocol_stalled = false;   ///< horizon hit with swaps still available
};

/// Plays the game with all n stations woken at slot 0 (the theorem's
/// setting).  `horizon` caps the game length (<=0 selects an automatic cap).
/// Meaningful for deterministic protocols; randomized ones face a fixed
/// realization of their coins.
[[nodiscard]] SwapAdversaryResult run_swap_adversary(const proto::Protocol& protocol,
                                                     std::uint32_t n, std::uint32_t k,
                                                     mac::Slot horizon = 0);

struct PatternSearchResult {
  mac::WakePattern worst;
  SimResult worst_result;
  std::uint64_t evaluations = 0;
};

/// Hill-climbing with random restarts over wake patterns of k stations in
/// [n]: perturbs station choices and wake offsets, keeping the pattern with
/// the largest rounds-to-wake-up for the protocol built by `factory`.
[[nodiscard]] PatternSearchResult search_worst_pattern(
    const std::function<proto::ProtocolPtr(std::uint64_t seed)>& factory, std::uint32_t n,
    std::uint32_t k, std::uint32_t restarts, std::uint32_t steps_per_restart,
    std::uint64_t seed, const SimConfig& config);

struct JamSearchResult {
  std::vector<mac::Slot> slots;  ///< the worst placement found, ascending
  SimResult worst_result;        ///< the protocol's run against it
  std::uint64_t evaluations = 0;
};

/// Hill-climbing with random restarts over placements of
/// `spec.jam_budget` jam slots in [0, first_wake + budget): restarts seed
/// from the front / spread / random canonical schedules, perturbations
/// resample or locally shift one jam slot, and the objective is
/// rounds-to-wake-up (a budget-exhausting failure counts as +inf — the
/// adversary's jackpot).  Every candidate is evaluated under the *same*
/// plan seed, so the spec's noise clauses form a fixed background (the
/// clause substreams of sim/impairment_engine.hpp are independent) and
/// placements compare apples to apples.
///
/// Deterministic: a pure function of the arguments — independent of thread
/// count and engine, because the evaluation engines are bit-identical and
/// the climb is serial (tests/test_adversary.cpp).
[[nodiscard]] JamSearchResult search_worst_jam(const proto::Protocol& protocol,
                                               const mac::WakePattern& pattern,
                                               const mac::ImpairmentSpec& spec,
                                               std::uint32_t restarts,
                                               std::uint32_t steps_per_restart,
                                               std::uint64_t seed, const SimConfig& config);

}  // namespace wakeup::sim
