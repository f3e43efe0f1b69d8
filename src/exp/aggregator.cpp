#include "exp/aggregator.hpp"

#include <algorithm>

namespace wakeup::exp {

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

}  // namespace

Aggregator::Aggregator(std::uint64_t trials, bool dynamic)
    : slots_(trials), dynamic_slots_(dynamic ? trials : 0) {}

void Aggregator::add(std::uint64_t trial, const sim::SimResult& result) {
  TrialSlot& slot = slots_.at(trial);
  slot.success = result.success;
  slot.rounds = static_cast<double>(result.rounds);
  slot.collisions = static_cast<double>(result.collisions);
  slot.silences = static_cast<double>(result.silences);
  fold_energy(result.station_energy, slot);
}

void Aggregator::add(std::uint64_t trial, const sim::DynamicResult& result) {
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
    stats.rounds_mean_ci =
        util::BootstrapCI::of_mean(throughput, ci_level, ci_resamples, ci_seed);
    stats.rounds_median_ci =
        util::BootstrapCI::of_quantile(throughput, 0.5, ci_level, ci_resamples, ci_seed);
    stats.energy_mean = util::Summary::of(energy_mean);
    stats.energy_max = util::Summary::of(energy_max);
    stats.energy_mean_ci =
        util::BootstrapCI::of_mean(energy_mean, ci_level, ci_resamples, ci_seed);
    return stats;
  }
  util::Sample rounds, collisions, silences, energy_mean, energy_max;
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
  }
  stats.success_rate =
      stats.trials == 0
          ? 0.0
          : static_cast<double>(stats.trials - stats.failures) / static_cast<double>(stats.trials);
  stats.rounds = util::Summary::of(rounds);
  stats.collisions = util::Summary::of(collisions);
  stats.silences = util::Summary::of(silences);
  stats.rounds_mean_ci = util::BootstrapCI::of_mean(rounds, ci_level, ci_resamples, ci_seed);
  stats.rounds_median_ci =
      util::BootstrapCI::of_quantile(rounds, 0.5, ci_level, ci_resamples, ci_seed);
  stats.energy_mean = util::Summary::of(energy_mean);
  stats.energy_max = util::Summary::of(energy_max);
  stats.energy_mean_ci =
      util::BootstrapCI::of_mean(energy_mean, ci_level, ci_resamples, ci_seed);
  return stats;
}

}  // namespace wakeup::exp
