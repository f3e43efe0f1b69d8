#include "sim/simulator.hpp"

#include <limits>
#include <stdexcept>

#include "sim/batch_engine.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/interpreter.hpp"
#include "util/math.hpp"

namespace wakeup::sim {

std::string energy_model_name(EnergyModel model) {
  switch (model) {
    case EnergyModel::kOff:
      return "off";
    case EnergyModel::kListenAll:
      return "listen:all";
    case EnergyModel::kListenUntilWoken:
      return "listen:until_woken";
  }
  return "off";
}

EnergyModel parse_energy_model(const std::string& label) {
  if (label == "off" || label.empty()) return EnergyModel::kOff;
  if (label == "listen:all" || label == "all") return EnergyModel::kListenAll;
  if (label == "listen:until_woken" || label == "until_woken") {
    return EnergyModel::kListenUntilWoken;
  }
  throw std::invalid_argument("unknown energy model '" + label +
                              "' (one of: off, listen:all, listen:until_woken)");
}

mac::Slot auto_slot_budget(std::uint32_t n, std::size_t k) {
  // Generous: 64x the weakest (Scenario C) theory bound, plus room for
  // round-robin's n - k + 1 and small-parameter slack.  The double-valued
  // bound is clamped *before* the cast — for large n the 64x product can
  // exceed Slot range, and casting an out-of-range double is UB.
  constexpr double kBudgetCap = 1e15;  // ~2^50 slots, far below Slot max
  double budget = 64.0 * util::scenario_c_bound(n, k == 0 ? 1 : k);
  if (!(budget < kBudgetCap)) budget = kBudgetCap;  // also catches NaN/inf
  return static_cast<mac::Slot>(budget) + 16 * static_cast<mac::Slot>(n) + 1024;
}

mac::Slot slot_budget(mac::Slot max_slots, const mac::WakePattern& pattern) {
  return max_slots > 0 ? max_slots : auto_slot_budget(pattern.n(), pattern.k());
}

SimResult dispatch_wakeup(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                          const SimConfig& config) {
  switch (config.engine) {
    case Engine::kInterpreter:
      return run_wakeup_interpreter(protocol, pattern, config);
    case Engine::kBatch:
      return run_wakeup_batch(protocol, pattern, config);  // throws if unsupported
    case Engine::kAuto:
      break;
  }
  return batch_engine_supports(protocol, config)
             ? run_wakeup_hybrid(protocol, pattern, config)
             : run_wakeup_interpreter(protocol, pattern, config);
}

namespace {

/// Adapter fast path: a single-channel protocol embedded on channel 0 runs
/// through the single-channel engine stack (so oblivious baselines get the
/// word-parallel engines), and the C - 1 permanently silent side channels
/// are charged afterwards — one silence per channel per processed slot,
/// exactly what the slot loop would have counted.
SimResult run_adapter_fast_path(const proto::McProtocol& protocol, const proto::Protocol& inner,
                                const mac::WakePattern& pattern, const SimConfig& config) {
  if (pattern.empty()) return {};

  SimResult result = dispatch_wakeup(inner, pattern, config);
  if (result.success) result.success_channel = 0;

  const mac::Slot budget = slot_budget(config.max_slots, pattern);
  const mac::Slot processed = result.success ? result.rounds + 1 : budget;
  // Wideband impairment reaches the side channels too: a corrupted slot is
  // a collision on every idle lane, not a silence — exactly what the slot
  // loop counts.
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;
  const std::uint64_t corrupted =
      plan != nullptr ? plan->corrupted_in(result.s, result.s + processed) : 0;
  const auto side = static_cast<std::uint64_t>(protocol.channels() - 1);
  result.silences += side * (static_cast<std::uint64_t>(processed) - corrupted);
  result.collisions += side * corrupted;
  return result;
}

}  // namespace

SimResult dispatch_wakeup(const proto::McProtocol& protocol, const mac::WakePattern& pattern,
                          const SimConfig& config) {
  if (config.record_trace || config.full_resolution ||
      config.feedback != mac::FeedbackModel::kNone) {
    throw std::invalid_argument(
        "multichannel runs support neither traces, full resolution, nor CD feedback");
  }
  SimConfig lanes = config;
  lanes.energy = EnergyModel::kOff;
  switch (config.engine) {
    case Engine::kInterpreter:
      return run_wakeup_interpreter(protocol, pattern, lanes);
    case Engine::kBatch:
      return run_wakeup_batch(protocol, pattern, lanes);  // throws if unsupported
    case Engine::kAuto:
      break;
  }
  if (const proto::Protocol* inner = protocol.single_channel()) {
    return run_adapter_fast_path(protocol, *inner, pattern, lanes);
  }
  return batch_engine_supports(protocol, lanes) ? run_wakeup_batch(protocol, pattern, lanes)
                                                : run_wakeup_interpreter(protocol, pattern, lanes);
}

}  // namespace wakeup::sim
