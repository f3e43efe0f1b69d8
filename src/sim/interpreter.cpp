#include "sim/interpreter.hpp"

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/impairment_engine.hpp"
#include "sim/traffic.hpp"

namespace wakeup::sim {

namespace {

/// A single-channel station's move is a lane-0 action.
template <class R>
mac::ChannelAction act(R& runtime, mac::Slot t) {
  return {runtime.transmits(t), 0};
}

mac::ChannelAction act(proto::McStationRuntime& runtime, mac::Slot t) { return runtime.act(t); }

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

/// The one slot loop, over `lanes` copies of the channel and the packet
/// queues of `traffic`; the paper's channel is its one-lane case and its
/// stations hold one packet each.  `P` is proto::Protocol or
/// proto::McProtocol and `R` the station kind it drives: a static run
/// builds each station's `StationRuntime`/`McStationRuntime` when its
/// packet starts, a dynamic run keeps one `proto::DynamicStation` per
/// station (the protocol's own re-contender, or the per-packet adapter)
/// and restarts it for every head-of-line packet.  Each lane resolves on
/// its own transmitter count, each station hears the lane it acted on,
/// counters are summed over lanes, and the transmitter on the lowest solo
/// lane is the run's winner, which a C-channel run names in
/// `success_channel`.  Dynamic runs record every delivery in `deliveries`.
template <class R, class P>
SimResult run_slots(const P& protocol, std::uint32_t lanes, const detail::Traffic& traffic,
                    const SimConfig& config, detail::Deliveries* deliveries) {
  constexpr bool kQueued = std::is_same_v<R, proto::DynamicStation>;
  SimResult result;
  if (!kQueued && traffic.size() == 0) return result;

  struct Active {
    mac::StationId id;
    std::unique_ptr<R> runtime;
    std::size_t index;           // queue index: the station's result slot
    const mac::Slot* arrivals;   // its packets' arrival slots, ascending
    std::uint32_t packets;
    mac::Slot stop;              // follows its protocol at slots < stop
    std::uint32_t admitted = 0;  // packets arrived so far
    std::uint32_t head = 0;      // packets delivered
    std::uint32_t lane = 0;      // lane acted on in the current slot

    [[nodiscard]] bool live(mac::Slot t) const noexcept { return head < admitted && t < stop; }
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

  const mac::Slot s = traffic.begin();
  result.s = s;

  // Traces record lane 0, the whole channel in the paper's model.
  const bool tracing = config.record_trace;
  if (tracing) result.trace.emplace(config.record_transmitters);
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  // Energy accounting: counted slot by slot, in-run, straight off the
  // stations' actions — deliberately NOT derived from schedule words, so
  // the batch engine's arithmetic spans and row popcounts are an
  // independent cross-check (tested bit-identical).
  const EnergyModel energy = config.energy;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(traffic.size(), 0);
    result.station_transmits.assign(traffic.size(), 0);
  }

  // A packet starts contending: a static station's runtime is built for
  // it, a dynamic station restarts.
  const auto start = [&protocol](Active& st, mac::Slot t) {
    if constexpr (kQueued) {
      st.runtime->packet_start(t);
    } else {
      st.runtime = protocol.make_runtime(st.id, t);
    }
  };

  std::vector<Active> active;
  active.reserve(traffic.size());
  std::size_t next_queue = 0;
  std::size_t delivered = 0;
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

  for (mac::Slot t = s; t < traffic.end(); ++t) {
    while (next_queue < traffic.size() && traffic[next_queue].awake_from == t) {
      const detail::Queue q = traffic[next_queue];
      const mac::Slot stop = plan != nullptr ? plan->follows_until(q.id) : detail::kNever;
      active.push_back(Active{q.id, nullptr, next_queue, q.arrivals, q.packets, stop});
      if constexpr (kQueued) {
        active.back().runtime = protocol.make_dynamic_station(q.id);
        if (active.back().runtime == nullptr) {
          active.back().runtime = std::make_unique<PerPacketStation>(protocol, q.id);
        }
      }
      ++next_queue;
    }

    for (std::size_t i = 0; i < active.size(); ++i) {
      Active& st = active[i];
      // Admit this slot's arrivals; a station going from empty to
      // backlogged starts contending at once (its packet may transmit at
      // t).  A faulty station still queues arrivals — they strand in the
      // backlog — but no longer drives its protocol.
      if (st.admitted < st.packets && st.arrivals[st.admitted] == t) {
        const bool idle = st.head == st.admitted;
        do {
          ++st.admitted;
        } while (st.admitted < st.packets && st.arrivals[st.admitted] == t);
        if (idle && t < st.stop) start(st, t);
      }
      if (!st.live(t)) continue;
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
      // Every awake station that follows its protocol pays 1 this slot
      // (transmit or listen); an idle one keeps its receiver on only
      // under listen:all.
      for (const Active& st : active) {
        if (t < st.stop && (energy == EnergyModel::kListenAll || st.head < st.admitted)) {
          ++result.station_energy[st.index];
        }
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

    for (std::size_t i = 0; i < active.size(); ++i) {
      Active& st = active[i];
      if (!st.live(t)) continue;
      const bool idle_lane = busy_count == 0 || lane[st.lane].transmitters == 0;
      const mac::ChannelFeedback heard = idle_lane ? idle_heard : lane[st.lane].heard;
      if constexpr (kQueued) {
        st.runtime->feedback(t, heard, solo < lanes && lane[solo].first == i);
      } else {
        st.runtime->feedback(t, heard);
      }
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
      if (!kQueued && !config.full_resolution) break;
      // Each solo winner's head-of-line packet is delivered; its next
      // queued packet (if any) re-contends from the following slot.
      for (std::size_t b = 0; b < busy_count; ++b) {
        const std::uint32_t c = busy[b];
        if (lane[c].outcome != mac::SlotOutcome::kSuccess) continue;
        Active& st = active[lane[c].first];
        if constexpr (kQueued) {
          deliveries->latency.push_back(static_cast<double>(t - st.arrivals[st.head] + 1));
          ++deliveries->per_station[st.index];
        }
        ++st.head;
        ++delivered;
        if (st.live(t + 1)) start(st, t + 1);
      }
      if (!kQueued && delivered == traffic.size()) {
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
  return run_slots<proto::StationRuntime>(
      protocol, 1, detail::Traffic(pattern, slot_budget(config.max_slots, pattern)), config,
      nullptr);
}

SimResult run_wakeup_interpreter(const proto::McProtocol& protocol,
                                 const mac::WakePattern& pattern, const SimConfig& config) {
  return run_slots<proto::McStationRuntime>(
      protocol, protocol.channels(),
      detail::Traffic(pattern, slot_budget(config.max_slots, pattern)), config, nullptr);
}

namespace detail {

SimResult interpret_traffic(const proto::Protocol& protocol, const Traffic& traffic,
                            const SimConfig& config, Deliveries& deliveries) {
  return run_slots<proto::DynamicStation>(protocol, 1, traffic, config, &deliveries);
}

}  // namespace detail

}  // namespace wakeup::sim
