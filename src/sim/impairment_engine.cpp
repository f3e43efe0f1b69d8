#include "sim/impairment_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"

namespace wakeup::sim {
namespace {

void set_slot_bit(std::vector<std::uint64_t>& words, Slot t) {
  words[static_cast<std::size_t>(t) / 64] |= std::uint64_t{1}
                                             << (static_cast<std::size_t>(t) % 64);
}

/// Failures before the first success of Bernoulli(p) — O(1) per gap, the
/// same draw arrival_process.cpp uses for Poisson streams.
Slot geometric_gap(double p, util::Rng& rng) {
  if (p >= 1.0) return 0;
  const double u = 1.0 - rng.uniform01();  // in (0, 1]
  return static_cast<Slot>(std::log(u) / std::log1p(-p));
}

void realize_iid_noise(double p, Slot horizon, util::Rng& rng,
                       std::vector<std::uint64_t>& words) {
  Slot t = geometric_gap(p, rng);
  while (t < horizon) {
    set_slot_bit(words, t);
    t += 1 + geometric_gap(p, rng);
  }
}

/// 2-state Markov noise: stationary noisy probability P, burst-end
/// probability SWITCH per slot (mean burst 1/SWITCH slots).  The quiet->
/// noisy rate follows from stationarity: on/(on+off) = P.
void realize_bursty_noise(double p, double switch_p, Slot horizon, util::Rng& rng,
                          std::vector<std::uint64_t>& words) {
  const double enter_p = std::min(1.0, switch_p * p / (1.0 - p));
  bool noisy = rng.bernoulli(p);  // start in the stationary distribution
  for (Slot t = 0; t < horizon; ++t) {
    if (noisy) {
      set_slot_bit(words, t);
      if (rng.bernoulli(switch_p)) noisy = false;
    } else if (rng.bernoulli(enter_p)) {
      noisy = true;
    }
  }
}

/// Floyd's uniform sampling of `count` distinct values out of [0, bound).
std::vector<Slot> choose_slots(Slot bound, std::uint64_t count, util::Rng& rng) {
  std::vector<Slot> out;
  out.reserve(static_cast<std::size_t>(count));
  util::DynamicBitset chosen(static_cast<std::size_t>(bound));
  for (Slot j = bound - static_cast<Slot>(count); j < bound; ++j) {
    const auto t = static_cast<Slot>(rng.uniform(static_cast<std::uint64_t>(j) + 1));
    if (chosen.test(static_cast<std::size_t>(t))) {
      chosen.set(static_cast<std::size_t>(j));
      out.push_back(j);
    } else {
      chosen.set(static_cast<std::size_t>(t));
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Slot> realize_jam_schedule(const mac::ImpairmentSpec& spec, Slot horizon,
                                       util::Rng& rng) {
  const std::uint64_t budget =
      std::min<std::uint64_t>(spec.jam_budget, static_cast<std::uint64_t>(horizon));
  std::vector<Slot> slots;
  switch (spec.jam_sched) {
    case mac::JamSchedule::kFront:
      slots.reserve(static_cast<std::size_t>(budget));
      for (std::uint64_t i = 0; i < budget; ++i) slots.push_back(static_cast<Slot>(i));
      break;
    case mac::JamSchedule::kSpread:
      slots.reserve(static_cast<std::size_t>(budget));
      for (std::uint64_t i = 0; i < budget; ++i) {
        slots.push_back(static_cast<Slot>(
            (static_cast<std::uint64_t>(horizon) * i) / budget));
      }
      break;
    case mac::JamSchedule::kRandom:
      slots = choose_slots(horizon, budget, rng);
      break;
    case mac::JamSchedule::kAdversarial:
      throw std::invalid_argument(
          "compile_impairment: an adversarial jam schedule must be resolved by "
          "sim::search_worst_jam first and passed in as jam_override");
  }
  return slots;
}

/// Floyd-samples `count` distinct positions from `pool` and moves them to
/// `out`, removing them from the pool (selection order is normalized by the
/// final sort, so the pool's residual order does not leak into later draws).
std::vector<StationId> draw_stations(std::vector<StationId>& pool, std::size_t count,
                                     util::Rng& rng) {
  std::vector<StationId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t at = static_cast<std::size_t>(rng.uniform(pool.size()));
    out.push_back(pool[at]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t fault_count(double fraction, std::size_t population) {
  if (fraction <= 0.0 || population == 0) return 0;
  const auto count = static_cast<std::size_t>(fraction * static_cast<double>(population));
  return std::max<std::size_t>(1, std::min(count, population));
}

}  // namespace

std::uint64_t ImpairmentPlan::corrupted_in(Slot lo, Slot hi) const noexcept {
  if (corrupt_words.empty() || hi <= lo) return 0;
  lo = std::max<Slot>(lo, 0);
  hi = std::min<Slot>(hi, static_cast<Slot>(corrupt_words.size()) * 64);
  std::uint64_t count = 0;
  for (Slot t = lo; t < hi;) {
    const std::size_t w = static_cast<std::size_t>(t) / 64;
    const unsigned bit = static_cast<unsigned>(t) % 64;
    std::uint64_t word = corrupt_words[w] >> bit;
    const Slot span = std::min<Slot>(64 - bit, hi - t);
    if (span < 64) word &= (std::uint64_t{1} << span) - 1;
    count += static_cast<std::uint64_t>(std::popcount(word));
    t += span;
  }
  return count;
}

Slot ImpairmentPlan::crash_cutoff(StationId u) const noexcept {
  const auto it = std::lower_bound(
      crashes.begin(), crashes.end(), u,
      [](const std::pair<StationId, Slot>& c, StationId id) { return c.first < id; });
  return it != crashes.end() && it->first == u ? it->second : -1;
}

bool ImpairmentPlan::is_byzantine(StationId u) const noexcept {
  return std::binary_search(byzantine.begin(), byzantine.end(), u);
}

Slot ImpairmentPlan::follows_until(StationId u) const noexcept {
  if (is_byzantine(u)) return 0;
  const Slot cutoff = crash_cutoff(u);
  return cutoff < 0 ? std::numeric_limits<Slot>::max() : cutoff;
}

ImpairmentPlan compile_impairment(const mac::ImpairmentSpec& spec, std::uint64_t seed,
                                  Slot horizon, const std::vector<StationId>* stations,
                                  const std::vector<Slot>* jam_override) {
  if (horizon <= 0)
    throw std::invalid_argument("compile_impairment: horizon must be positive");
  ImpairmentPlan plan;
  plan.spec = spec;
  plan.horizon = horizon;
  if (spec.clean() && (jam_override == nullptr || jam_override->empty())) return plan;

  const std::size_t n_words = static_cast<std::size_t>((horizon + 63) / 64);
  // Each clause draws from its own split substream: realizations are
  // independent of one another and of the order clauses are compiled in
  // (so the adversarial jam search varies placement against a fixed noise
  // background).
  const util::Rng rng(util::hash_words({seed, 0x494d50ULL /* "IMP" */}));

  if (spec.has_noise()) {
    plan.noise_words.assign(n_words, 0);
    util::Rng sub = rng.split(0x4e4f495345ULL /* "NOISE" */);
    if (spec.noise == mac::NoiseKind::kIid) {
      realize_iid_noise(spec.noise_p, horizon, sub, plan.noise_words);
    } else {
      realize_bursty_noise(spec.noise_p, spec.noise_switch, horizon, sub,
                           plan.noise_words);
    }
  }

  if (jam_override != nullptr) {
    plan.jam_slots.reserve(jam_override->size());
    for (const Slot t : *jam_override) {
      if (t >= 0 && t < horizon) plan.jam_slots.push_back(t);
    }
    std::sort(plan.jam_slots.begin(), plan.jam_slots.end());
    plan.jam_slots.erase(std::unique(plan.jam_slots.begin(), plan.jam_slots.end()),
                         plan.jam_slots.end());
  } else if (spec.has_jam()) {
    util::Rng sub = rng.split(0x4a414dULL /* "JAM" */);
    plan.jam_slots = realize_jam_schedule(spec, horizon, sub);
  }

  std::vector<StationId> byz;
  if (spec.has_faults()) {
    if (stations == nullptr || stations->empty()) {
      throw std::invalid_argument(
          "compile_impairment: crash/byzantine clauses need the participating-station "
          "list (fault models are dynamic-layer features)");
    }
    std::vector<StationId> pool = *stations;
    const std::size_t n_byz = fault_count(spec.byzantine_f, pool.size());
    const std::size_t n_crash =
        std::min(fault_count(spec.crash_f, pool.size()), pool.size() - n_byz);
    if (n_byz > 0) {
      util::Rng sub = rng.split(0x42595aULL /* "BYZ" */);
      byz = draw_stations(pool, n_byz, sub);
      plan.byzantine = byz;
    }
    if (n_crash > 0) {
      util::Rng sub = rng.split(0x435253ULL /* "CRS" */);
      const std::vector<StationId> crashed = draw_stations(pool, n_crash, sub);
      plan.crashes.reserve(n_crash);
      for (const StationId u : crashed) {
        const Slot cutoff = spec.crash_slot >= 0
                                ? std::min(spec.crash_slot, horizon)
                                : static_cast<Slot>(
                                      sub.uniform(static_cast<std::uint64_t>(horizon)));
        plan.crashes.emplace_back(u, cutoff);
      }
    }
  }

  if (!plan.jam_slots.empty() || !byz.empty()) {
    plan.corrupt_words.assign(n_words, 0);
    for (const Slot t : plan.jam_slots) set_slot_bit(plan.corrupt_words, t);
    for (const StationId u : byz) {
      // A byzantine station interferes like a fair-coin jammer: p = 1/2 per
      // slot, one raw rng word per 64 slots.
      util::Rng sub = rng.split(0x42595a00000000ULL ^ (std::uint64_t{u} + 1));
      for (std::size_t w = 0; w < n_words; ++w) {
        plan.corrupt_words[w] |= sub.next_u64();
      }
    }
    // Bits past the horizon would double-count in corrupted_in.
    const unsigned tail = static_cast<unsigned>(horizon % 64);
    if (tail != 0) plan.corrupt_words.back() &= (std::uint64_t{1} << tail) - 1;
  }
  return plan;
}

}  // namespace wakeup::sim
