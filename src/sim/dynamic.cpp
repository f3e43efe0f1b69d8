#include "sim/dynamic.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "mac/channel.hpp"
#include "sim/impairment_engine.hpp"

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

namespace {

/// Default cross-packet adapter: a fresh one-shot runtime per packet.
/// Exactly right for oblivious protocols (their schedule is a pure function
/// of (station, start)) and for memoryless randomized ones.
class PerPacketStation final : public proto::DynamicStation {
 public:
  PerPacketStation(const proto::Protocol& protocol, mac::StationId id)
      : protocol_(protocol), id_(id) {}

  void packet_start(mac::Slot start) override { runtime_ = protocol_.make_runtime(id_, start); }

  [[nodiscard]] bool transmits(mac::Slot t) override { return runtime_->transmits(t); }

  void feedback(mac::Slot t, mac::ChannelFeedback fb, bool delivered) override {
    (void)delivered;
    runtime_->feedback(t, fb);
  }

 private:
  const proto::Protocol& protocol_;
  mac::StationId id_;
  std::unique_ptr<proto::StationRuntime> runtime_;
};

/// Per-station bookkeeping shared by the engines: the station's sorted
/// arrival slots and how many of its packets have been delivered.  The
/// queue at time t is arr[delivered .. #{arr <= t}).
struct StationQueues {
  std::vector<mac::StationId> ids;            // ascending
  std::vector<std::vector<mac::Slot>> slots;  // per station, ascending

  explicit StationQueues(const mac::DynamicScenario& scenario) : ids(scenario.stations()) {
    slots.resize(ids.size());
    // packets() is slot-sorted; per-station sub-sequences stay sorted.
    for (const mac::Arrival& p : scenario.packets()) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), p.station);
      slots[static_cast<std::size_t>(it - ids.begin())].push_back(p.wake);
    }
  }
};

}  // namespace

DynamicResult run_dynamic_interpreter(const proto::Protocol& protocol,
                                      const mac::DynamicScenario& scenario,
                                      const ImpairmentPlan* plan, EnergyModel energy) {
  DynamicResult result;
  result.horizon = scenario.horizon();
  result.arrivals = scenario.packets_total();
  result.stations = scenario.stations();
  result.delivered_per_station.assign(result.stations.size(), 0);
  if (plan != nullptr && plan->clean()) plan = nullptr;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(result.stations.size(), 0);
    result.station_transmits.assign(result.stations.size(), 0);
  }

  const StationQueues queues(scenario);

  struct Active {
    mac::StationId id;
    std::size_t index;                     ///< into result arrays
    const std::vector<mac::Slot>* arr;     ///< this station's arrival slots
    std::size_t admitted = 0;              ///< arrivals with slot <= current t
    std::size_t head = 0;                  ///< delivered packets
    mac::Slot crash_cutoff = -1;           ///< silent from this slot; -1 = never
    bool byzantine = false;                ///< never follows the protocol
    std::unique_ptr<proto::DynamicStation> dyn;

    [[nodiscard]] bool backlogged() const noexcept { return head < admitted; }
    /// Still follows the protocol at slot t (crash is permanent, byzantine
    /// never followed it in the first place).
    [[nodiscard]] bool follows(mac::Slot t) const noexcept {
      return !byzantine && (crash_cutoff < 0 || t < crash_cutoff);
    }
  };

  std::vector<Active> stations;
  stations.reserve(queues.ids.size());
  for (std::size_t i = 0; i < queues.ids.size(); ++i) {
    Active st;
    st.id = queues.ids[i];
    st.index = i;
    st.arr = &queues.slots[i];
    if (plan != nullptr) {
      st.crash_cutoff = plan->crash_cutoff(st.id);
      st.byzantine = plan->is_byzantine(st.id);
    }
    st.dyn = protocol.make_dynamic_station(st.id);
    if (st.dyn == nullptr) st.dyn = std::make_unique<PerPacketStation>(protocol, st.id);
    stations.push_back(std::move(st));
  }

  std::vector<Active*> transmitters;
  const mac::Slot horizon = scenario.horizon();

  for (mac::Slot t = 0; t < horizon; ++t) {
    // Admit this slot's arrivals; a station going from empty to backlogged
    // starts contending immediately (its packet may transmit at t).  Faulty
    // stations still accumulate arrivals — their packets strand in the
    // backlog — but no longer drive their protocol state.
    for (Active& st : stations) {
      const auto& arr = *st.arr;
      const bool was_backlogged = st.backlogged();
      while (st.admitted < arr.size() && arr[st.admitted] == t) ++st.admitted;
      if (!was_backlogged && st.backlogged() && st.follows(t)) st.dyn->packet_start(t);
    }

    transmitters.clear();
    for (Active& st : stations) {
      if (st.backlogged() && st.follows(t) && st.dyn->transmits(t)) {
        transmitters.push_back(&st);
        if (energy != EnergyModel::kOff) ++result.station_transmits[st.index];
      }
    }
    if (energy != EnergyModel::kOff) {
      // Counted per slot, deliberately independent of the batch engine's
      // arithmetic-span + lazy-popcount derivation (tested bit-identical).
      // listen:all keeps every live receiver on for the whole horizon;
      // listen:until_woken powers it only while the queue is backlogged.
      for (const Active& st : stations) {
        if (!st.follows(t)) continue;
        if (energy == EnergyModel::kListenAll || st.backlogged()) {
          ++result.station_energy[st.index];
        }
      }
    }

    const mac::SlotOutcome outcome = plan != nullptr
                                         ? plan->effective_outcome(t, transmitters.size())
                                         : mac::resolve_slot(transmitters.size());
    switch (outcome) {
      case mac::SlotOutcome::kSilence:
        ++result.silences;
        break;
      case mac::SlotOutcome::kSuccess:
        ++result.delivered;
        break;
      case mac::SlotOutcome::kCollision:
        ++result.collisions;
        break;
    }
    const mac::ChannelFeedback fb = mac::feedback_for(outcome, mac::FeedbackModel::kNone);
    Active* winner =
        outcome == mac::SlotOutcome::kSuccess ? transmitters.front() : nullptr;
    for (Active& st : stations) {
      if (st.backlogged() && st.follows(t)) st.dyn->feedback(t, fb, &st == winner);
    }

    if (winner != nullptr) {
      result.latency.push_back(
          static_cast<double>(t - (*winner->arr)[winner->head] + 1));
      ++result.delivered_per_station[winner->index];
      ++winner->head;
      // The next head-of-line packet (if already queued) re-contends from
      // the following slot.
      if (winner->backlogged() && winner->follows(t + 1)) {
        winner->dyn->packet_start(t + 1);
      }
    }
  }

  result.backlog = result.arrivals - result.delivered;
  return result;
}

bool dynamic_batch_supports(const proto::Protocol& protocol) {
  const proto::ObliviousSchedule* schedule = protocol.oblivious_schedule();
  return schedule != nullptr && schedule->schedule_channels() == 1;
}

DynamicResult dispatch_dynamic(const proto::Protocol& protocol,
                               const mac::DynamicScenario& scenario, Engine engine,
                               const ImpairmentPlan* plan, EnergyModel energy) {
  switch (engine) {
    case Engine::kAuto:
      return dynamic_batch_supports(protocol)
                 ? run_dynamic_batch(protocol, scenario, plan, energy)
                 : run_dynamic_interpreter(protocol, scenario, plan, energy);
    case Engine::kInterpreter:
      return run_dynamic_interpreter(protocol, scenario, plan, energy);
    case Engine::kBatch:
      return run_dynamic_batch(protocol, scenario, plan, energy);
  }
  throw std::invalid_argument("dispatch_dynamic: unknown engine");
}

}  // namespace wakeup::sim
