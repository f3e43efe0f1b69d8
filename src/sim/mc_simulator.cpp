#include "sim/mc_simulator.hpp"

#include <stdexcept>

#include "sim/batch_engine.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/interpreter.hpp"

namespace wakeup::sim {

McSimResult to_mc_result(const SimResult& r, std::int32_t success_channel) {
  McSimResult mc;
  mc.success = r.success;
  mc.s = r.s;
  mc.success_slot = r.success_slot;
  mc.rounds = r.rounds;
  mc.success_channel = success_channel;
  mc.winner = r.winner;
  mc.collisions = r.collisions;
  mc.silences = r.silences;
  mc.successes = r.successes;
  return mc;
}

namespace {

/// Adapter fast path: a single-channel protocol embedded on channel 0 runs
/// through the single-channel engine stack (so oblivious baselines get the
/// word-parallel engines), and the C - 1 permanently silent side channels
/// are charged afterwards — one silence per channel per processed slot,
/// exactly what the slot loop would have counted.
McSimResult run_adapter_fast_path(const proto::McProtocol& protocol,
                                  const proto::Protocol& inner,
                                  const mac::WakePattern& pattern, const SimConfig& config) {
  if (pattern.empty()) return {};

  // The whole config forwards (warmup_slots included); the fields the mc
  // model cannot serve were already rejected by dispatch_mc_wakeup.
  const SimResult sc = dispatch_wakeup(inner, pattern, config);
  McSimResult result = to_mc_result(sc, sc.success ? 0 : -1);

  const mac::Slot budget = slot_budget(config.max_slots, pattern);
  const mac::Slot processed = sc.success ? sc.rounds + 1 : budget;
  // Wideband impairment reaches the side channels too: a corrupted slot is
  // a collision on every idle lane, not a silence — exactly what the slot
  // loop counts.
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;
  const std::uint64_t corrupted =
      plan != nullptr ? plan->corrupted_in(sc.s, sc.s + processed) : 0;
  const auto side = static_cast<std::uint64_t>(protocol.channels() - 1);
  result.silences += side * (static_cast<std::uint64_t>(processed) - corrupted);
  result.collisions += side * corrupted;
  return result;
}

}  // namespace

McSimResult dispatch_mc_wakeup(const proto::McProtocol& protocol,
                               const mac::WakePattern& pattern, const SimConfig& config) {
  if (config.record_trace || config.full_resolution ||
      config.feedback != mac::FeedbackModel::kNone) {
    throw std::invalid_argument(
        "multichannel runs support neither traces, full resolution, nor CD feedback");
  }
  // McSimResult reports no energy, so the slot loop skips its accounting.
  SimConfig slot_config = config;
  slot_config.energy = EnergyModel::kOff;
  switch (config.engine) {
    case Engine::kInterpreter:
      return run_wakeup_interpreter(protocol, pattern, slot_config);
    case Engine::kBatch:
      // throws if unsupported
      return run_mc_batch(protocol, pattern, config.max_slots, config.impairment);
    case Engine::kAuto:
      break;
  }
  if (const proto::Protocol* inner = protocol.single_channel()) {
    return run_adapter_fast_path(protocol, *inner, pattern, config);
  }
  if (mc_batch_supports(protocol)) {
    return run_mc_batch(protocol, pattern, config.max_slots, config.impairment);
  }
  return run_wakeup_interpreter(protocol, pattern, slot_config);
}

}  // namespace wakeup::sim
