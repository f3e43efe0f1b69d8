#include "sim/aggregator.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace wakeup::sim {

namespace {

/// Per-trial mean/max reduction of a result's station-energy vector.
template <class Slot>
void fold_energy(const std::vector<std::uint64_t>& station_energy, Slot& slot) {
  if (station_energy.empty()) return;
  slot.has_energy = true;
  double sum = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t e : station_energy) {
    sum += static_cast<double>(e);
    max = std::max(max, e);
  }
  slot.energy_mean = sum / static_cast<double>(station_energy.size());
  slot.energy_max = static_cast<double>(max);
}

/// The median's exact CI; `ci_resamples` == 0 turns it off with the
/// resampled CIs, collapsing it to [median, median].
util::BootstrapCI median_ci(const util::Sample& sample, std::uint64_t ci_resamples,
                            double ci_level) {
  if (ci_resamples > 0) return util::BootstrapCI::of_quantile(sample, 0.5, ci_level);
  util::BootstrapCI ci;
  ci.level = ci_level;
  ci.mean = ci.lo = ci.hi = sample.median();
  return ci;
}

/// Sets the cell's two mean CIs: the headline sample's and the per-trial
/// mean energy's, from one draw pass when their sizes match (every trial
/// is in both: all succeeded, or the cell is dynamic, and energy is on).
void set_mean_cis(const util::Sample& headline, const util::Sample& energy_mean,
                  std::uint64_t ci_resamples, std::uint64_t ci_seed, double ci_level,
                  CellStats& stats) {
  const util::MeanCIPair cis =
      util::BootstrapCI::of_means(headline, energy_mean, ci_level, ci_resamples, ci_seed);
  stats.mean_ci = cis.first;
  stats.energy_mean_ci = cis.second;
  if (obs::active()) {
    static const auto c_draws = obs::Counter::get("ci.mean_draws");
    c_draws.add(cis.draws);
  }
}

}  // namespace

Aggregator::Aggregator(std::uint64_t trials, bool dynamic)
    : slots_(trials), dynamic_slots_(dynamic ? trials : 0) {}

void Aggregator::add(std::uint64_t trial, const SimResult& result) {
  TrialSlot& slot = slots_.at(trial);
  slot.success = result.success;
  slot.rounds = static_cast<double>(result.rounds);
  slot.collisions = static_cast<double>(result.collisions);
  slot.silences = static_cast<double>(result.silences);
  slot.completed = result.completed;
  slot.completion = static_cast<double>(result.completion_rounds);
  fold_energy(result.station_energy, slot);
}

void Aggregator::add(std::uint64_t trial, const DynamicResult& result) {
  DynamicSlot& slot = dynamic_slots_.at(trial);
  slot.throughput = result.throughput();
  slot.jain = result.jain();
  slot.collisions = static_cast<double>(result.collisions);
  slot.silences = static_cast<double>(result.silences);
  slot.arrivals = result.arrivals;
  slot.delivered = result.delivered;
  slot.backlog = result.backlog;
  slot.latency = result.latency;
  fold_energy(result.station_energy, slot);
}

CellStats Aggregator::finalize(std::uint64_t ci_resamples, std::uint64_t ci_seed,
                               double ci_level) const {
  CellStats stats;
  stats.trials = slots_.size();

  if (!dynamic_slots_.empty()) {
    // Dynamic cells: the horizon is the budget and every slot of it
    // resolves, so there is no exhaustion to fail on.
    stats.success_rate = 1.0;
    util::Sample throughput, jain, collisions, silences, latency, energy_mean, energy_max;
    for (const DynamicSlot& slot : dynamic_slots_) {
      throughput.push(slot.throughput);
      jain.push(slot.jain);
      collisions.push(slot.collisions);
      silences.push(slot.silences);
      for (const double l : slot.latency) latency.push(l);
      stats.packet_arrivals += slot.arrivals;
      stats.delivered += slot.delivered;
      stats.backlog += slot.backlog;
      if (slot.has_energy) {
        energy_mean.push(slot.energy_mean);
        energy_max.push(slot.energy_max);
      }
    }
    stats.throughput = util::Summary::of(throughput);
    stats.jain = util::Summary::of(jain);
    stats.latency = util::Summary::of(latency);
    stats.collisions = util::Summary::of(collisions);
    stats.silences = util::Summary::of(silences);
    stats.median_ci = median_ci(throughput, ci_resamples, ci_level);
    stats.energy_mean = util::Summary::of(energy_mean);
    stats.energy_max = util::Summary::of(energy_max);
    set_mean_cis(throughput, energy_mean, ci_resamples, ci_seed, ci_level, stats);
    return stats;
  }
  util::Sample rounds, collisions, silences, completion, energy_mean, energy_max;
  rounds.reserve(slots_.size());
  for (const TrialSlot& slot : slots_) {
    // Energy lands whether or not the trial reached wake-up (a failed trial
    // pays the whole budget), so push before the success gate.
    if (slot.has_energy) {
      energy_mean.push(slot.energy_mean);
      energy_max.push(slot.energy_max);
    }
    if (!slot.success) {
      ++stats.failures;
      continue;
    }
    rounds.push(slot.rounds);
    collisions.push(slot.collisions);
    silences.push(slot.silences);
    if (slot.completed) completion.push(slot.completion);
  }
  stats.success_rate =
      stats.trials == 0
          ? 0.0
          : static_cast<double>(stats.trials - stats.failures) / static_cast<double>(stats.trials);
  stats.rounds = util::Summary::of(rounds);
  stats.collisions = util::Summary::of(collisions);
  stats.silences = util::Summary::of(silences);
  stats.completion = util::Summary::of(completion);
  stats.median_ci = median_ci(rounds, ci_resamples, ci_level);
  stats.energy_mean = util::Summary::of(energy_mean);
  stats.energy_max = util::Summary::of(energy_max);
  set_mean_cis(rounds, energy_mean, ci_resamples, ci_seed, ci_level, stats);
  return stats;
}

}  // namespace wakeup::sim
