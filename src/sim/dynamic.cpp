#include "sim/dynamic.hpp"

#include "sim/batch_engine.hpp"
#include "sim/traffic.hpp"

namespace wakeup::sim {

double DynamicResult::jain() const noexcept {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::uint64_t d : delivered_per_station) {
    const auto x = static_cast<double>(d);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(delivered_per_station.size()) * sum_sq);
}

DynamicResult dispatch_dynamic(const proto::Protocol& protocol,
                               const mac::DynamicScenario& scenario, Engine engine,
                               const ImpairmentPlan* plan, EnergyModel energy) {
  SimConfig config;
  config.impairment = plan;
  config.energy = energy;
  const detail::Traffic traffic(scenario);
  detail::Deliveries deliveries;
  deliveries.per_station.assign(traffic.size(), 0);
  // kBatch on an unsupported protocol throws inside batch_traffic.
  const bool batch = engine == Engine::kBatch ||
                     (engine == Engine::kAuto && batch_engine_supports(protocol, config));
  SimResult run = batch ? detail::batch_traffic(protocol, traffic, config, deliveries)
                        : detail::interpret_traffic(protocol, traffic, config, deliveries);

  DynamicResult result;
  result.horizon = scenario.horizon();
  result.arrivals = scenario.packets_total();
  result.delivered = run.successes;
  result.backlog = result.arrivals - result.delivered;
  result.silences = run.silences;
  result.collisions = run.collisions;
  result.stations = scenario.stations();
  result.delivered_per_station = std::move(deliveries.per_station);
  result.latency = std::move(deliveries.latency);
  result.station_energy = std::move(run.station_energy);
  result.station_transmits = std::move(run.station_transmits);
  return result;
}

}  // namespace wakeup::sim
