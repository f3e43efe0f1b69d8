#include "sim/interpreter.hpp"

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/impairment_engine.hpp"

namespace wakeup::sim {

namespace {

/// A single-channel runtime's move is a lane-0 action.
mac::ChannelAction act(proto::StationRuntime& runtime, mac::Slot t) {
  return {runtime.transmits(t), 0};
}

mac::ChannelAction act(proto::McStationRuntime& runtime, mac::Slot t) { return runtime.act(t); }

/// The one slot loop, over `lanes` copies of the channel; the paper's
/// channel is its one-lane case.  `P` is proto::Protocol or
/// proto::McProtocol and fixes the runtime kind.  Each station hears the
/// outcome of the lane it acted on, counters are summed over lanes, and
/// the winner is the transmitter on the lowest solo lane, which a C-channel
/// run names in `success_channel`.
template <class P>
SimResult run_slots(const P& protocol, std::uint32_t lanes, const mac::WakePattern& pattern,
                    const SimConfig& config) {
  SimResult result;
  if (pattern.empty()) return result;

  struct Active {
    mac::StationId id;
    decltype(protocol.make_runtime(mac::StationId{}, mac::Slot{})) runtime;
    std::size_t index = 0;  // position in pattern arrival order (energy slots)
    std::uint32_t lane = 0;  // lane acted on in the current slot
    bool done = false;      // full-resolution: already delivered its message
  };
  // Per-lane slot state, hoisted out of the slot loop.  Only the lanes
  // someone transmitted on are resolved and reset per slot; every other
  // lane shares the idle outcome.
  struct Lane {
    std::uint32_t transmitters = 0;
    std::size_t first = 0;  // first transmitter, as an index into `active`
    mac::SlotOutcome outcome = mac::SlotOutcome::kSilence;
    mac::ChannelFeedback heard = mac::ChannelFeedback::kNothing;
  };

  const auto& arrivals = pattern.arrivals();  // sorted by wake
  const mac::Slot s = pattern.first_wake();
  result.s = s;

  const mac::Slot budget = slot_budget(config.max_slots, pattern);

  // Traces record lane 0, the whole channel in the paper's model.
  const bool tracing = config.record_trace;
  if (tracing) result.trace.emplace(config.record_transmitters);
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  // Energy accounting: counted slot by slot, in-run, straight off the
  // runtimes' actions — deliberately NOT derived from schedule words, so
  // the batch engines' row popcounts are an independent cross-check
  // (tested bit-identical).
  const EnergyModel energy = config.energy;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(arrivals.size(), 0);
    result.station_transmits.assign(arrivals.size(), 0);
  }

  std::vector<Active> active;
  active.reserve(pattern.k());
  std::size_t next_arrival = 0;
  std::size_t remaining = pattern.k();  // stations that have not yet succeeded
  // `busy` lists this slot's lanes with transmitters, in first-use order.
  // One lane (the paper's channel) lives inline, so a single-channel run
  // allocates nothing here.
  Lane one_lane;
  std::uint32_t one_busy = 0;
  std::vector<Lane> lane_heap(lanes > 1 ? lanes : 0);
  std::vector<std::uint32_t> busy_heap(lanes > 1 ? lanes : 0);
  Lane* const lane = lanes > 1 ? lane_heap.data() : &one_lane;
  std::uint32_t* const busy = lanes > 1 ? busy_heap.data() : &one_busy;
  std::size_t busy_count = 0;
  std::vector<mac::StationId> transmitters;  // lane 0's, for the trace

  const auto tally = [&result](mac::SlotOutcome outcome, std::uint64_t count) {
    switch (outcome) {
      case mac::SlotOutcome::kSilence:
        result.silences += count;
        break;
      case mac::SlotOutcome::kSuccess:
        result.successes += count;
        break;
      case mac::SlotOutcome::kCollision:
        result.collisions += count;
        break;
    }
  };

  for (mac::Slot t = s; t - s < budget; ++t) {
    while (next_arrival < arrivals.size() && arrivals[next_arrival].wake == t) {
      const auto& a = arrivals[next_arrival];
      active.push_back(
          Active{a.station, protocol.make_runtime(a.station, a.wake), next_arrival, 0, false});
      ++next_arrival;
    }

    for (std::size_t i = 0; i < active.size(); ++i) {
      Active& st = active[i];
      if (st.done) continue;
      const mac::ChannelAction a = act(*st.runtime, t);
      if (a.channel >= lanes) {
        throw std::invalid_argument("interpreter: station acted on a channel out of range");
      }
      st.lane = a.channel;
      if (!a.transmit) continue;
      Lane& l = lane[a.channel];
      if (l.transmitters++ == 0) {
        l.first = i;
        busy[busy_count++] = a.channel;
      }
      if (tracing && a.channel == 0) transmitters.push_back(st.id);
      if (energy != EnergyModel::kOff) ++result.station_transmits[st.index];
    }
    if (energy != EnergyModel::kOff) {
      // Every awake station pays 1 this slot (transmit or listen); done
      // stations keep their receiver on only under listen:all.
      for (const Active& st : active) {
        if (!st.done || energy == EnergyModel::kListenAll) ++result.station_energy[st.index];
      }
    }

    // One outcome rule for every lane: the impairment plan's effective
    // outcome when there is one, the transmitter count's otherwise.
    const auto outcome_of = [plan, t](std::size_t n) {
      return plan != nullptr ? plan->effective_outcome(t, n) : mac::resolve_slot(n);
    };
    const mac::SlotOutcome idle = outcome_of(0);
    const mac::ChannelFeedback idle_heard = mac::feedback_for(idle, config.feedback);
    tally(idle, lanes - busy_count);
    std::uint32_t solo = lanes;  // lowest lane carrying a solo
    for (std::size_t b = 0; b < busy_count; ++b) {
      const std::uint32_t c = busy[b];
      Lane& l = lane[c];
      l.outcome = outcome_of(l.transmitters);
      l.heard = mac::feedback_for(l.outcome, config.feedback);
      tally(l.outcome, 1);
      if (l.outcome == mac::SlotOutcome::kSuccess && c < solo) solo = c;
    }
    if (tracing) {
      result.trace->add(t, lane[0].transmitters != 0 ? lane[0].outcome : idle, transmitters);
      transmitters.clear();
    }

    for (Active& st : active) {
      if (st.done) continue;
      const bool idle_lane = busy_count == 0 || lane[st.lane].transmitters == 0;
      st.runtime->feedback(t, idle_lane ? idle_heard : lane[st.lane].heard);
    }

    if (solo < lanes) {
      if (!result.success) {
        result.success = true;
        result.success_slot = t;
        result.rounds = t - s;
        result.winner = active[lane[solo].first].id;
        if constexpr (std::is_same_v<P, proto::McProtocol>) {
          result.success_channel = static_cast<std::int32_t>(solo);
        }
      }
      if (!config.full_resolution) break;
      // Full resolution: each solo winner's message is delivered; it leaves.
      for (std::size_t b = 0; b < busy_count; ++b) {
        const std::uint32_t c = busy[b];
        if (lane[c].outcome != mac::SlotOutcome::kSuccess) continue;
        active[lane[c].first].done = true;
        --remaining;
      }
      if (remaining == 0 && next_arrival == arrivals.size()) {
        result.completed = true;
        result.completion_slot = t;
        result.completion_rounds = t - s;
        break;
      }
    }
    for (std::size_t b = 0; b < busy_count; ++b) lane[busy[b]].transmitters = 0;
    busy_count = 0;
  }
  return result;
}

}  // namespace

SimResult run_wakeup_interpreter(const proto::Protocol& protocol,
                                 const mac::WakePattern& pattern, const SimConfig& config) {
  return run_slots(protocol, 1, pattern, config);
}

SimResult run_wakeup_interpreter(const proto::McProtocol& protocol,
                                 const mac::WakePattern& pattern, const SimConfig& config) {
  return run_slots(protocol, protocol.channels(), pattern, config);
}

}  // namespace wakeup::sim
