#include "sim/interpreter.hpp"

#include <memory>
#include <vector>

#include "sim/impairment_engine.hpp"

namespace wakeup::sim {

SimResult run_wakeup_interpreter(const proto::Protocol& protocol,
                                 const mac::WakePattern& pattern, const SimConfig& config) {
  SimResult result;
  if (pattern.empty()) return result;

  struct Active {
    mac::StationId id;
    std::unique_ptr<proto::StationRuntime> runtime;
    std::size_t index = 0;  // position in pattern arrival order (energy slots)
    bool done = false;      // full-resolution: already delivered its message
  };

  const auto& arrivals = pattern.arrivals();  // sorted by wake
  const mac::Slot s = pattern.first_wake();
  result.s = s;

  const mac::Slot budget = slot_budget(config.max_slots, pattern);

  mac::Channel channel(config.feedback);
  if (config.record_trace) {
    result.trace.emplace(config.record_transmitters);
  }
  // An impaired slot's outcome is no longer a pure function of the
  // transmitter count, so the channel's own counters are bypassed and the
  // effective outcome is tallied by hand.  The clean path stays on Channel
  // untouched (bit-identity with the seed behaviour).
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;
  std::uint64_t silences = 0, collisions = 0, successes = 0;

  // Energy accounting: counted slot by slot, in-run, straight off the
  // `transmits(t)` calls — deliberately NOT derived from schedule words, so
  // the batch engines' post-hoc masked-popcount derivation is an
  // independent cross-check (tested bit-identical).
  const EnergyModel energy = config.energy;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(arrivals.size(), 0);
    result.station_transmits.assign(arrivals.size(), 0);
  }

  std::vector<Active> active;
  active.reserve(pattern.k());
  std::size_t next_arrival = 0;
  std::size_t remaining = pattern.k();  // stations that have not yet succeeded
  std::vector<mac::StationId> transmitters;

  for (mac::Slot t = s; t - s < budget; ++t) {
    while (next_arrival < arrivals.size() && arrivals[next_arrival].wake == t) {
      const auto& a = arrivals[next_arrival];
      active.push_back(
          Active{a.station, protocol.make_runtime(a.station, a.wake), next_arrival, false});
      ++next_arrival;
    }

    transmitters.clear();
    for (Active& st : active) {
      if (st.done) continue;
      if (st.runtime->transmits(t)) {
        transmitters.push_back(st.id);
        if (energy != EnergyModel::kOff) ++result.station_transmits[st.index];
      }
    }
    if (energy != EnergyModel::kOff) {
      // Every awake station pays 1 this slot (transmit or listen); done
      // stations keep their receiver on only under listen:all.
      for (const Active& st : active) {
        if (!st.done || energy == EnergyModel::kListenAll) ++result.station_energy[st.index];
      }
    }

    mac::SlotOutcome outcome;
    if (plan != nullptr) {
      outcome = plan->effective_outcome(t, transmitters.size());
      switch (outcome) {
        case mac::SlotOutcome::kSilence:
          ++silences;
          break;
        case mac::SlotOutcome::kSuccess:
          ++successes;
          break;
        case mac::SlotOutcome::kCollision:
          ++collisions;
          break;
      }
    } else {
      outcome = channel.transmit(transmitters.size());
    }
    if (result.trace) result.trace->add(t, outcome, transmitters);

    const mac::ChannelFeedback fb = channel.feedback(outcome);
    for (Active& st : active) {
      if (!st.done) st.runtime->feedback(t, fb);
    }

    if (outcome == mac::SlotOutcome::kSuccess) {
      const mac::StationId winner = transmitters.front();
      if (!result.success) {
        result.success = true;
        result.success_slot = t;
        result.rounds = t - s;
        result.winner = winner;
      }
      if (!config.full_resolution) break;
      // Full resolution: the winner's message is delivered; it leaves.
      for (Active& st : active) {
        if (st.id == winner) st.done = true;
      }
      --remaining;
      if (remaining == 0 && next_arrival == arrivals.size()) {
        result.completed = true;
        result.completion_slot = t;
        result.completion_rounds = t - s;
        break;
      }
    }
  }

  result.silences = plan != nullptr ? silences : channel.silences();
  result.collisions = plan != nullptr ? collisions : channel.collisions();
  result.successes = plan != nullptr ? successes : channel.successes();
  return result;
}

}  // namespace wakeup::sim
