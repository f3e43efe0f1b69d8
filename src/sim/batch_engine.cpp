#include "sim/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/interpreter.hpp"
#include "sim/traffic.hpp"

namespace wakeup::sim {

bool batch_engine_supports(const proto::Protocol& protocol, const SimConfig& config) {
  const proto::ObliviousSchedule* schedule = protocol.oblivious_schedule();
  return schedule != nullptr && schedule->schedule_channels() == 1 && !config.record_trace;
}

bool batch_engine_supports(const proto::McProtocol& protocol, const SimConfig& config) {
  const proto::ObliviousSchedule* schedule = protocol.oblivious_schedule();
  return schedule != nullptr && schedule->schedule_channels() == protocol.channels() &&
         !config.record_trace && !config.full_resolution;
}

namespace {

/// Popcount of `word`'s bits in the absolute-slot range [a, b), where
/// `word` covers the 64 slots from the 64-aligned slot `wb` and
/// wb <= a, b <= wb + 64.  Row words are exactly the station's
/// transmissions (fill_row masks them outside its contention span), so
/// counting each examined range once reproduces the interpreter's
/// per-slot transmit tally.
[[nodiscard]] std::uint64_t count_bits(std::uint64_t word, mac::Slot wb, mac::Slot a,
                                       mac::Slot b) {
  if (a >= b) return 0;
  if (a > wb) word &= ~std::uint64_t{0} << (a - wb);
  if (b < wb + 64) word &= (std::uint64_t{1} << (b - wb)) - 1;
  return static_cast<std::uint64_t>(std::popcount(word));
}

/// One station's row in the word loop.  `head_start` is the contention
/// start of its head-of-line packet — max(arrival, previous delivery + 1),
/// kNever once the queue has drained; it only moves at a delivery, where
/// the engine refills the station's word, so `word` always holds the
/// station's true transmission bits for the rest of the round.
struct Row {
  mac::StationId id;
  std::size_t index;          ///< queue index: the station's result slot
  mac::Slot awake_from;
  const mac::Slot* arrivals;  ///< its packets' arrival slots, ascending
  std::uint32_t packets;
  mac::Slot head_start;
  mac::Slot stop;             ///< follows its protocol at slots < stop
  std::uint32_t lane;         ///< fixed channel (ObliviousSchedule::channel_lane)
  std::uint32_t head = 0;     ///< packets delivered
  mac::Slot counted = 0;      ///< transmit bits before this slot are tallied
  std::uint64_t word = 0;     ///< transmission bits of the current round
};

/// Sets `st.word` to the station's transmission bits for the round
/// [wb, round_end), wb 64-aligned and round_end <= wb + 64: its schedule
/// from the head-of-line packet's contention start, zero before it and
/// from the station's stop slot on.  A drained queue (or one whose next
/// packet arrives after the round) is zero.  Returns the schedule words
/// fetched (0 or 1).
std::size_t fill_row(const proto::ObliviousSchedule& schedule, Row& st, mac::Slot wb,
                     mac::Slot round_end) {
  const mac::Slot h = st.head_start;
  if (h >= round_end || st.stop <= std::max(h, wb)) {
    st.word = 0;
    return 0;
  }
  // h < wb + 64, so the word at wb is the one holding the contention start.
  st.word = schedule.schedule_word(st.id, h, wb);
  if (h > wb) st.word &= ~std::uint64_t{0} << (h - wb);
  if (st.stop < round_end) st.word &= (std::uint64_t{1} << (st.stop - wb)) - 1;
  return 1;
}

/// The word loop: every run, static or dynamic, one channel or C.  Each
/// station joins at its awake_from slot, pinned to the lane
/// `channel_lane(u, first arrival)` of its schedule (every lane is 0 for
/// single-channel schedules, C = schedule_channels() = 1), and each resolve
/// round fetches one 64-slot schedule word per live station and folds it
/// into its lane's (any, multi) word pair.  Per lane, silence = ~any,
/// collision = multi, success = any & ~multi; the round's first success
/// over all lanes is the lowest bit of the lane-solo union.
///
/// A delivery refills the winner's word from its next contention start, or
/// zeroes it when the queue drains (a static station's one packet: the
/// full-resolution drain), and re-resolves the rest of the word.  Static
/// traffic halts at the first success unless `config.full_resolution`,
/// and at the last delivery; dynamic traffic resolves every slot to its
/// end and records each delivery in `deliveries`.  The drain is
/// single-channel only (the C-channel entry points reject full
/// resolution).  A C-channel run (`report_channel`) names the lane of its
/// first success in `success_channel`.
///
/// `start` is the first slot to resolve (>= traffic.begin(); stations
/// awake before it join immediately) and `carry` holds outcome counters
/// already accumulated by a warm-up prefix [begin, start) run elsewhere.
/// Words are aligned to absolute 64-slot boundaries (slots below `start`
/// are masked out of the pending mask), so impairment words index by
/// slot / 64 directly.
SimResult run_batch_from(const proto::ObliviousSchedule& schedule,
                         const detail::Traffic& traffic, const SimConfig& config,
                         mac::Slot start, const SimResult* carry, bool report_channel = false,
                         detail::Deliveries* deliveries = nullptr) {
  SimResult result;
  if (!traffic.queued() && traffic.size() == 0) return result;

  const std::uint32_t channels = schedule.schedule_channels();
  const mac::Slot s = traffic.begin();
  result.s = s;
  const mac::Slot end = traffic.end();  // exclusive
  // Static runs stop at their first success (or last delivery); dynamic
  // ones resolve the whole range.
  const bool halts = !traffic.queued();

  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  std::vector<Row> rows;
  rows.reserve(traffic.size());
  // Per-lane reduction words: any[c] has a bit where >= 1 station of lane
  // c transmits, multi[c] where >= 2 do.  One lane (the paper's channel)
  // lives in the inline pair: heap words measurably slow short
  // single-channel runs.
  std::array<std::uint64_t, 2> one_lane{};
  std::vector<std::uint64_t> lanes(channels == 1 ? 0 : 2 * static_cast<std::size_t>(channels));
  std::uint64_t* const any = channels == 1 ? one_lane.data() : lanes.data();
  std::uint64_t* const multi = any + channels;

  // Folds every row's word into its lane's (any, multi) pair (silent rows
  // are zero), then the impairment, every lane alike: words are 64-aligned
  // to absolute slots, so the round at wb is plan word wb/64; corrupt slots
  // collide regardless of transmitters, noisy slots garble an actual
  // transmission into a collision.
  const auto reduce = [&](mac::Slot wb) {
    std::fill(any, multi + channels, 0);
    for (const Row& st : rows) {
      multi[st.lane] |= any[st.lane] & st.word;
      any[st.lane] |= st.word;
    }
    if (plan == nullptr) return;
    const std::size_t gw = static_cast<std::size_t>(wb) / 64;
    const std::uint64_t corrupt = plan->corrupt_word(gw);
    const std::uint64_t noise = plan->noise_word(gw);
    for (std::uint32_t c = 0; c < channels; ++c) {
      multi[c] |= (any[c] & noise) | corrupt;
      any[c] |= corrupt;
    }
  };

  std::size_t next_queue = 0;
  std::size_t delivered = 0;
  std::uint64_t silences = carry != nullptr ? carry->silences : 0;
  std::uint64_t collisions = carry != nullptr ? carry->collisions : 0;
  std::uint64_t successes = carry != nullptr ? carry->successes : 0;
  bool halted = false;
  // Energy bookkeeping (side-state only).  Transmits are popcounted off
  // the row words as their slots are examined — at a delivery, and at the
  // end of each round — so no word is fetched twice; a hybrid run's
  // interpreted warm-up [begin, start) arrives counted in `carry`.  Awake
  // spans are arithmetic: under listen:until_woken each delivered packet
  // pays its contention span at delivery, the rest at the end.
  const EnergyModel energy = config.energy;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(traffic.size(), 0);
    result.station_transmits.assign(traffic.size(), 0);
    if (carry != nullptr && !carry->station_transmits.empty()) {
      result.station_transmits = carry->station_transmits;
    }
  }
  mac::Slot last_slot = end - 1;
  // Observability (side-state only): flushed once after the loop.  A round
  // is one word per live station ("batch.tiles" keeps its name).
  std::uint64_t obs_rounds = 0;
  std::uint64_t obs_words = 0;

  // One 64-aligned word per round (wakes are validated >= 0, so start >= 0
  // and plain division floors): a run fetches no word past the one holding
  // its last examined slot.
  for (mac::Slot wb = start / 64 * 64; wb < end && !halted; wb += 64) {
    const mac::Slot round_end = std::min<mac::Slot>(wb + 64, end);

    // Join every station awake inside this round, on its lane.
    while (next_queue < traffic.size() && traffic[next_queue].awake_from < round_end) {
      const detail::Queue q = traffic[next_queue];
      const std::uint32_t lane = channels == 1 ? 0 : schedule.channel_lane(q.id, q.arrivals[0]);
      if (lane >= channels) {
        throw std::invalid_argument("batch engine: channel_lane out of range");
      }
      const mac::Slot stop = plan != nullptr ? plan->follows_until(q.id) : detail::kNever;
      rows.push_back(
          Row{q.id, next_queue, q.awake_from, q.arrivals, q.packets, q.arrivals[0], stop, lane});
      ++next_queue;
    }

    // One schedule word per station.
    for (Row& st : rows) {
      obs_words += fill_row(schedule, st, wb, round_end);
      st.counted = std::max(wb, start);
    }
    ++obs_rounds;
    reduce(wb);

    // Pending mask: the slots of [max(wb, start), round_end).  Slots below
    // `start` belong to the warm-up prefix (or precede s); they carry no
    // outcomes here.
    const auto width = static_cast<unsigned>(round_end - wb);
    std::uint64_t pend = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    if (start > wb) pend &= ~std::uint64_t{0} << (start - wb);

    // Resolve the word success by success.  Each step counts every lane up
    // to and including the first solo slot over all lanes, exactly like the
    // slot loop, which stops right after it; per lane the counted slots
    // partition into silence (~any), collision (multi) and solo
    // (any & ~multi), so count two and derive the third (several lanes can
    // carry a solo in that slot).  A word without a solo is counted whole.
    while (true) {
      std::uint64_t solo = 0;
      for (std::uint32_t c = 0; c < channels; ++c) solo |= any[c] & ~multi[c];
      solo &= pend;
      const int j = std::countr_zero(solo);  // 64 when no solo is pending
      const std::uint64_t upto = j >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
      const std::uint64_t now = pend & upto;
      pend &= ~upto;
      const auto counted = static_cast<std::uint64_t>(std::popcount(now));
      for (std::uint32_t c = 0; c < channels; ++c) {
        const auto sil = static_cast<std::uint64_t>(std::popcount(~any[c] & now));
        const auto col = static_cast<std::uint64_t>(std::popcount(multi[c] & now));
        silences += sil;
        collisions += col;
        successes += counted - sil - col;
      }
      if (solo == 0) break;

      // The solo's lane and its one transmitter there.
      std::uint32_t lane = 0;
      while ((((any[lane] & ~multi[lane]) >> j) & 1u) == 0) ++lane;
      std::size_t r = 0;
      while (rows[r].lane != lane || ((rows[r].word >> j) & 1u) == 0) ++r;
      Row& st = rows[r];
      const mac::Slot t = wb + static_cast<mac::Slot>(j);
      if (!result.success) {
        result.success = true;
        result.success_slot = t;
        result.rounds = t - s;
        result.winner = st.id;
        if (report_channel) result.success_channel = static_cast<std::int32_t>(lane);
      }
      if (halts && !config.full_resolution) {
        halted = true;
        last_slot = t;
        break;
      }

      // Delivery (one lane): the head-of-line packet leaves.  Count its
      // transmit bits before the refill overwrites the word; under
      // listen:until_woken it paid every slot from its contention start
      // through t.
      if (deliveries != nullptr) {
        deliveries->latency.push_back(static_cast<double>(t - st.arrivals[st.head] + 1));
        ++deliveries->per_station[st.index];
      }
      if (energy != EnergyModel::kOff) {
        result.station_transmits[st.index] += count_bits(st.word, wb, st.counted, t + 1);
        st.counted = t + 1;
        if (energy == EnergyModel::kListenUntilWoken) {
          result.station_energy[st.index] += static_cast<std::uint64_t>(t - st.head_start + 1);
        }
      }
      ++st.head;
      ++delivered;
      // The next queued packet re-contends from t + 1, a future arrival
      // re-activates the row at its slot, a drained queue zeroes it.
      st.head_start =
          st.head < st.packets ? std::max(st.arrivals[st.head], t + 1) : detail::kNever;
      obs_words += fill_row(schedule, st, wb, round_end);
      if (halts && delivered == traffic.size()) {
        result.completed = true;
        result.completion_slot = t;
        result.completion_rounds = t - s;
        halted = true;
        last_slot = t;
        break;
      }
      reduce(wb);
    }

    // Round-end flush: each row's bits past its tally marker are
    // transmissions that drew no delivery.
    if (energy != EnergyModel::kOff) {
      const mac::Slot examined_end = halted ? last_slot + 1 : round_end;
      for (const Row& st : rows) {
        result.station_transmits[st.index] += count_bits(st.word, wb, st.counted, examined_end);
      }
    }
  }

  // Awake spans, closed arithmetically over the examined slots: a station
  // is awake from awake_from and follows its protocol until its stop slot.
  // listen:all keeps the receiver on throughout; listen:until_woken pays
  // the still-queued head packet from its contention start (delivered
  // packets paid above).  Stations that never joined stay at 0.
  if (energy != EnergyModel::kOff) {
    for (const Row& st : rows) {
      const mac::Slot awake_end = std::min(last_slot + 1, st.stop);
      const mac::Slot from =
          energy == EnergyModel::kListenAll ? st.awake_from : st.head_start;
      if (from < awake_end) {
        result.station_energy[st.index] += static_cast<std::uint64_t>(awake_end - from);
      }
    }
  }

  result.silences = silences;
  result.collisions = collisions;
  result.successes = successes;
  if (obs::active()) {
    static const auto c_tiles = obs::Counter::get("batch.tiles");
    static const auto c_words = obs::Counter::get("batch.words_fetched");
    c_tiles.add(obs_rounds);
    c_words.add(obs_words);
  }
  return result;
}

/// The schedule of a run the engine supports, or std::invalid_argument.
const proto::ObliviousSchedule& checked_schedule(const proto::Protocol& protocol,
                                                 const SimConfig& config) {
  if (!batch_engine_supports(protocol, config)) {
    throw std::invalid_argument(
        "batch engine requires an oblivious single-channel protocol and no trace");
  }
  return *protocol.oblivious_schedule();
}

const proto::ObliviousSchedule& checked_schedule(const proto::McProtocol& protocol,
                                                 const SimConfig& config) {
  if (!batch_engine_supports(protocol, config)) {
    throw std::invalid_argument(
        "mc batch engine requires an oblivious schedule spanning all channels, no trace and "
        "no full resolution");
  }
  return *protocol.oblivious_schedule();
}

/// The C-channel model accounts no energy.
SimConfig without_energy(const SimConfig& config) {
  SimConfig lanes = config;
  lanes.energy = EnergyModel::kOff;
  return lanes;
}

}  // namespace

SimResult run_wakeup_batch(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                           const SimConfig& config) {
  return run_batch_from(checked_schedule(protocol, config),
                        detail::Traffic(pattern, slot_budget(config.max_slots, pattern)), config,
                        pattern.first_wake(), nullptr);
}

SimResult run_wakeup_hybrid(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                            const SimConfig& config) {
  const proto::ObliviousSchedule& schedule = checked_schedule(protocol, config);
  if (pattern.empty()) return {};

  // Warm-up length: an explicit SimConfig::warmup_slots wins; otherwise the
  // static hint — cheap-word schedules (strided bits) batch profitably from
  // slot one, expensive ones get one interpreted block, since the paper's
  // near-optimal protocols often resolve contention within a few slots,
  // where a full schedule word per station would be pure waste.  Full
  // resolution drains successes across many words anyway; the warm-up
  // bookkeeping (departed winners) is not worth carrying over.
  mac::Slot warmup = config.full_resolution ? 0 : config.warmup_slots;
  if (warmup < 0) warmup = schedule.words_are_cheap() ? 0 : 64;
  const mac::Slot budget = slot_budget(config.max_slots, pattern);
  const detail::Traffic traffic(pattern, budget);
  if (warmup == 0) return run_batch_from(schedule, traffic, config, traffic.begin(), nullptr);

  SimConfig warm_config = config;
  warm_config.max_slots = std::min<mac::Slot>(warmup, budget);
  const SimResult warm = run_wakeup_interpreter(protocol, pattern, warm_config);
  if (warm.success || budget <= warmup) return warm;

  // No success in the warm-up: continue word-parallel with carried counters.
  return run_batch_from(schedule, traffic, config, traffic.begin() + warmup, &warm);
}

SimResult run_wakeup_batch(const proto::McProtocol& protocol, const mac::WakePattern& pattern,
                           const SimConfig& config) {
  return run_batch_from(checked_schedule(protocol, config),
                        detail::Traffic(pattern, slot_budget(config.max_slots, pattern)),
                        without_energy(config), pattern.first_wake(), nullptr, true);
}

namespace detail {

SimResult batch_traffic(const proto::Protocol& protocol, const Traffic& traffic,
                        const SimConfig& config, Deliveries& deliveries) {
  return run_batch_from(checked_schedule(protocol, config), traffic, config, traffic.begin(),
                        nullptr, false, &deliveries);
}

}  // namespace detail

}  // namespace wakeup::sim
