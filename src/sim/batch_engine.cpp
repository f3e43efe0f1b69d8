#include "sim/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/interpreter.hpp"
#include "sim/traffic.hpp"
#include "util/simd.hpp"

namespace wakeup::sim {

namespace {

std::atomic<std::size_t> g_tile_words{kMaxTileWords};

}  // namespace

std::size_t tile_words() noexcept { return g_tile_words.load(std::memory_order_relaxed); }

void set_tile_words(std::size_t words) noexcept {
  g_tile_words.store(words == 0 ? kMaxTileWords : std::clamp<std::size_t>(words, 1, kMaxTileWords),
                     std::memory_order_relaxed);
}

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

namespace simd = util::simd;

/// Popcount of a station row's bits in the absolute-slot range [a, b),
/// where `row` holds the tile starting at the 64-aligned slot `tb` and
/// covers b.  Row bits are exactly the station's transmissions (fill_row
/// masks them outside its contention span), so counting each examined
/// range once reproduces the interpreter's per-slot transmit tally.
[[nodiscard]] std::uint64_t count_row_bits(const std::uint64_t* row, mac::Slot tb,
                                           mac::Slot a, mac::Slot b) {
  if (a >= b) return 0;
  const auto off_b = static_cast<std::size_t>(b - tb);
  const std::size_t wa = static_cast<std::size_t>(a - tb) / 64;
  const std::size_t wb = (off_b - 1) / 64;
  std::uint64_t total = 0;
  for (std::size_t w = wa; w <= wb; ++w) {
    std::uint64_t word = row[w];
    const mac::Slot ws = tb + static_cast<mac::Slot>(64 * w);
    if (a > ws) word &= ~std::uint64_t{0} << (a - ws);
    if (b < ws + 64) word &= (std::uint64_t{1} << (b - ws)) - 1;
    total += static_cast<std::uint64_t>(std::popcount(word));
  }
  return total;
}

/// One station's row state in the tile loop.  `head_start` is the
/// contention start of its head-of-line packet — max(arrival, previous
/// delivery + 1), kNever once the queue has drained; it only moves at a
/// delivery, where the engine refills the station's row, so a row always
/// holds the station's true transmission bits for the rest of the tile.
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
};

/// Fills `row` with the station's transmission bits for the tile
/// [tb, tile_end): its schedule from the head-of-line packet's contention
/// start, zero before it and from the station's stop slot on.  A drained
/// queue (or one whose next packet arrives after the tile) is all zero.
/// Returns the schedule words fetched.
std::size_t fill_row(const proto::ObliviousSchedule& schedule, const Row& st, mac::Slot tb,
                     mac::Slot tile_end, std::uint64_t* row, std::size_t tw) {
  const mac::Slot h = st.head_start;
  if (h >= tile_end || st.stop <= std::max(h, tb)) {
    std::fill(row, row + tw, 0);
    return 0;
  }
  // Fetch from the 64-block containing the contention start (never query
  // blocks wholly before it), zero-fill leading words, mask the straddler.
  std::size_t w0 = 0;
  mac::Slot from = tb;
  if (h > tb) {
    from = h / 64 * 64;
    w0 = static_cast<std::size_t>((from - tb) / 64);
    std::fill(row, row + w0, 0);
  }
  schedule.schedule_block(st.id, h, from, row + w0, tw - w0);
  if (h > from) row[w0] &= ~std::uint64_t{0} << (h - from);
  if (st.stop < tile_end) {
    const auto off = static_cast<std::size_t>(st.stop - tb);
    std::size_t wc = off / 64;
    const unsigned bit = off % 64;
    if (bit != 0) {
      row[wc] &= (std::uint64_t{1} << bit) - 1;
      ++wc;
    }
    std::fill(row + wc, row + tw, 0);
  }
  return tw - w0;
}

/// The tile loop: every run, static or dynamic, one channel or C.  Each
/// station joins at its awake_from slot with one matrix row, pinned to the
/// lane `channel_lane(u, first arrival)` of its schedule (every lane is 0
/// for single-channel schedules, C = schedule_channels() = 1), and each
/// resolve round folds the rows into their lanes' (any, multi) reduction
/// rows.  Per lane, silence = ~any, collision = multi, success = any &
/// ~multi; the first success slot over all lanes is one first_set_below
/// over the per-word lane-solo union.
///
/// A delivery refills the winner's row from its next contention start, or
/// zeroes it when the queue drains (a static station's one packet: the
/// full-resolution drain), and re-resolves the rest of the tile.  Static
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
/// Tiles are aligned to absolute 64-slot boundaries (slots below `start`
/// are masked out of the pending words), so impairment words index by
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

  const std::size_t W = tile_words();
  const simd::Kernels& kernels = simd::active();

  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  std::vector<Row> rows;
  rows.reserve(traffic.size());
  std::vector<std::uint64_t> matrix;  // station-major: row r = W words of rows[r]
  matrix.reserve(traffic.size() * W);
  // Lane-major reduction rows: lane c occupies [c * W, c * W + W) of any
  // and of multi.  One lane (the paper's channel) lives in the inline
  // buffer: heap rows measurably slow short single-channel runs.
  std::array<std::uint64_t, 2 * kMaxTileWords> one_lane{};
  std::vector<std::uint64_t> lanes(channels == 1 ? 0 : 2 * static_cast<std::size_t>(channels) * W);
  std::uint64_t* const any = channels == 1 ? one_lane.data() : lanes.data();
  std::uint64_t* const multi = any + static_cast<std::size_t>(channels) * W;
  std::array<std::uint64_t, kMaxTileWords> pend{};
  std::array<std::uint64_t, kMaxTileWords> solo{};

  // Folds every row's words [w0, tw) of the tile at tb into its lane's
  // (any, multi) pair (silent rows are zero), then the impairment, every
  // lane alike: tiles are 64-aligned to absolute slots, so word w is plan
  // word tb/64 + w; corrupt slots collide regardless of transmitters,
  // noisy slots garble an actual transmission into a collision.
  const auto reduce = [&](mac::Slot tb, std::size_t w0, std::size_t tw) {
    // Lane rows are contiguous and only the one-lane drain re-reduces from
    // w0 > 0, so a single fill clears [w0, tw) of every lane.
    std::fill(any + w0, any + (channels - 1) * W + tw, 0);
    std::fill(multi + w0, multi + (channels - 1) * W + tw, 0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t lane = rows[r].lane * W;
      kernels.or_accumulate(any + lane + w0, multi + lane + w0,
                            matrix.data() + r * W + w0, tw - w0);
    }
    if (plan == nullptr) return;
    const std::size_t gw = static_cast<std::size_t>(tb) / 64;
    for (std::uint32_t c = 0; c < channels; ++c) {
      for (std::size_t w = w0; w < tw; ++w) {
        const std::uint64_t corrupt = plan->corrupt_word(gw + w);
        multi[c * W + w] |= (any[c * W + w] & plan->noise_word(gw + w)) | corrupt;
        any[c * W + w] |= corrupt;
      }
    }
  };

  std::size_t next_queue = 0;
  std::size_t delivered = 0;
  std::uint64_t silences = carry != nullptr ? carry->silences : 0;
  std::uint64_t collisions = carry != nullptr ? carry->collisions : 0;
  std::uint64_t successes = carry != nullptr ? carry->successes : 0;
  bool halted = false;
  // Energy bookkeeping (side-state only).  Transmits are popcounted off
  // the station rows as their slots are examined — at a delivery, and at
  // the end of each tile — so no word is fetched twice; a hybrid run's
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
  // Observability (side-state only): flushed once after the loop.
  std::uint64_t obs_tiles = 0;
  std::uint64_t obs_words = 0;

  // Tile ramp: the first resolve round fetches one word per station (runs
  // that end inside it pay exactly the pre-tiling cost), doubling up to W
  // per round — long runs amortize the fetch W-fold, short runs never buy
  // words they cannot use.  Tiles stay 64-aligned throughout (wakes are
  // validated >= 0, so start >= 0 and plain division floors), and results
  // are bit-identical for every ramp state (tiles are just groupings of
  // the same masked words).
  std::size_t cur = 1;

  for (mac::Slot tb = start / 64 * 64; tb < end && !halted;
       tb += static_cast<mac::Slot>(64 * cur), cur = std::min<std::size_t>(cur * 2, W)) {
    const mac::Slot tile_end =
        std::min<mac::Slot>(tb + static_cast<mac::Slot>(64 * cur), end);
    const auto tw = static_cast<std::size_t>((tile_end - tb + 63) / 64);

    // Join every station awake inside this tile, on its lane.
    while (next_queue < traffic.size() && traffic[next_queue].awake_from < tile_end) {
      const detail::Queue q = traffic[next_queue];
      const std::uint32_t lane = channels == 1 ? 0 : schedule.channel_lane(q.id, q.arrivals[0]);
      if (lane >= channels) {
        throw std::invalid_argument("batch engine: channel_lane out of range");
      }
      const mac::Slot stop = plan != nullptr ? plan->follows_until(q.id) : detail::kNever;
      rows.push_back(
          Row{q.id, next_queue, q.awake_from, q.arrivals, q.packets, q.arrivals[0], stop, lane});
      matrix.resize(rows.size() * W, 0);
      ++next_queue;
    }

    // One schedule tile per station.
    for (std::size_t r = 0; r < rows.size(); ++r) {
      obs_words += fill_row(schedule, rows[r], tb, tile_end, matrix.data() + r * W, tw);
      rows[r].counted = std::max(tb, start);
    }
    ++obs_tiles;
    reduce(tb, 0, tw);

    // Pending masks: the slots of each word inside [max(tb, start), end).
    for (std::size_t w = 0; w < tw; ++w) {
      const mac::Slot ws = tb + static_cast<mac::Slot>(64 * w);
      const auto width = static_cast<unsigned>(std::min<mac::Slot>(tile_end - ws, 64));
      std::uint64_t m = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      // Slots below `start` belong to the warm-up prefix (or precede s);
      // they carry no outcomes here.
      if (start > ws) m &= ~std::uint64_t{0} << (start - ws);
      pend[w] = m;
    }

    // Resolve the tile success by success from its first pending word lo.
    // Each round counts every lane up to and including the first solo slot
    // over all lanes, exactly like the slot loop, which stops right after
    // it; per lane the counted slots partition into silence (~any),
    // collision (multi) and solo (any & ~multi), so count two and derive
    // the third (several lanes can carry a solo in that slot).  A tile
    // without a solo is counted whole.
    for (std::size_t lo = 0; !halted;) {
      const std::size_t span = tw - lo;
      std::fill(solo.begin(), solo.begin() + static_cast<std::ptrdiff_t>(span), 0);
      for (std::uint32_t c = 0; c < channels; ++c) {
        for (std::size_t w = 0; w < span; ++w) {
          solo[w] |= any[c * W + lo + w] & ~multi[c * W + lo + w] & pend[lo + w];
        }
      }
      const std::size_t first = simd::first_set_below(solo.data(), span, 64 * span);
      if (first == simd::kNoBit) {
        for (std::uint32_t c = 0; c < channels; ++c) {
          kernels.masked_popcount_pair(any + c * W + lo, multi + c * W + lo, pend.data() + lo,
                                       span, &silences, &collisions);
        }
        break;
      }
      const std::size_t hit = 64 * lo + first;
      const std::size_t wq = hit / 64;
      const auto j = static_cast<unsigned>(hit % 64);
      const std::uint64_t upto = j == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
      const std::uint64_t after = pend[wq] & ~upto;
      pend[wq] &= upto;
      std::uint64_t counted = 0;
      for (std::size_t w = lo; w <= wq; ++w) {
        counted += static_cast<std::uint64_t>(std::popcount(pend[w]));
      }
      for (std::uint32_t c = 0; c < channels; ++c) {
        std::uint64_t sil = 0;
        std::uint64_t col = 0;
        kernels.masked_popcount_pair(any + c * W + lo, multi + c * W + lo, pend.data() + lo,
                                     wq + 1 - lo, &sil, &col);
        silences += sil;
        collisions += col;
        successes += counted - sil - col;
      }
      pend[wq] = after;
      lo = wq;

      // The solo's lane and its one transmitter there.
      std::uint32_t lane = 0;
      while ((((any[lane * W + wq] & ~multi[lane * W + wq]) >> j) & 1u) == 0) ++lane;
      std::size_t r = 0;
      while (rows[r].lane != lane || ((matrix[r * W + wq] >> j) & 1u) == 0) ++r;
      Row& st = rows[r];
      std::uint64_t* const row = matrix.data() + r * W;
      const mac::Slot t = tb + static_cast<mac::Slot>(hit);
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
      // transmit bits before the refill overwrites the row; under
      // listen:until_woken it paid every slot from its contention start
      // through t.
      if (deliveries != nullptr) {
        deliveries->latency.push_back(static_cast<double>(t - st.arrivals[st.head] + 1));
        ++deliveries->per_station[st.index];
      }
      if (energy != EnergyModel::kOff) {
        result.station_transmits[st.index] += count_row_bits(row, tb, st.counted, t + 1);
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
      obs_words += fill_row(schedule, st, tb, tile_end, row, tw);
      if (halts && delivered == traffic.size()) {
        result.completed = true;
        result.completion_slot = t;
        result.completion_rounds = t - s;
        halted = true;
        last_slot = t;
        break;
      }
      reduce(tb, wq, tw);
    }

    // Tile-end flush: each row's bits past its tally marker are
    // transmissions that drew no delivery.
    if (energy != EnergyModel::kOff) {
      const mac::Slot examined_end = halted ? last_slot + 1 : tile_end;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        result.station_transmits[rows[r].index] += count_row_bits(
            matrix.data() + r * W, tb, rows[r].counted, examined_end);
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
    c_tiles.add(obs_tiles);
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
  // where a full schedule tile per station would be pure waste.  Full
  // resolution drains successes across many tiles anyway; the warm-up
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
