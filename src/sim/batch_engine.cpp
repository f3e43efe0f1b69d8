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

/// Per-station awake span of the finished run, arithmetic: the energy
/// models only move its endpoint.  `depart[i]` is the i-th arrival's
/// full-resolution departure slot (-1 if it never departed); `last_slot`
/// the last slot the run examined.
void account_awake_slots(const mac::WakePattern& pattern, const SimConfig& config,
                         mac::Slot last_slot, const std::vector<mac::Slot>& depart,
                         SimResult& result) {
  const auto& arrivals = pattern.arrivals();
  result.station_energy.assign(arrivals.size(), 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const mac::Slot wake = arrivals[i].wake;
    if (wake > last_slot) break;  // sorted by wake: nobody later woke either
    // A departed station stops at its departure; whether it keeps
    // listening afterwards is the model.
    const mac::Slot tx_end = depart[i] >= 0 ? std::min(depart[i], last_slot) : last_slot;
    const mac::Slot span_end =
        config.energy == EnergyModel::kListenUntilWoken ? tx_end : last_slot;
    result.station_energy[i] = static_cast<std::uint64_t>(span_end - wake + 1);
  }
}

/// Tile-wise core for every static run, one channel or C.  Each live
/// station is pinned to the lane `channel_lane(u, wake)` of its schedule
/// (every lane is 0 for single-channel schedules, C = schedule_channels()
/// = 1), and each resolve round folds its station-major matrix row into
/// that lane's (any, multi) reduction rows.  Per lane, silence = ~any,
/// collision = multi, success = any & ~multi; the first success slot over
/// all lanes is one first_set_below over the per-word lane-solo union.
///
/// `start` is the first slot to resolve (>= s; arrivals before it join
/// immediately) and `carry` holds outcome counters already accumulated by
/// a warm-up prefix [s, start) run elsewhere.  Tiles are aligned to
/// absolute 64-slot boundaries (slots below `start` are masked out of the
/// pending words), so impairment words index by slot / 64 directly.  The
/// full-resolution drain is single-channel only (the C-channel model has
/// none; its entry points reject it).  A C-channel run (`report_channel`)
/// names the lane of its first success in `success_channel`.
SimResult run_batch_from(const proto::ObliviousSchedule& schedule, const mac::WakePattern& pattern,
                         const SimConfig& config, mac::Slot start, const SimResult* carry,
                         bool report_channel = false) {
  SimResult result;
  if (pattern.empty()) return result;

  struct Active {
    mac::StationId id;
    mac::Slot wake;
    std::size_t arrival;  ///< index in pattern.arrivals()
    std::uint32_t lane;   ///< fixed channel (ObliviousSchedule::channel_lane)
    bool done = false;    ///< full-resolution: already delivered
  };

  const std::uint32_t channels = schedule.schedule_channels();
  const auto& arrivals = pattern.arrivals();  // sorted by wake
  const mac::Slot s = pattern.first_wake();
  result.s = s;

  const mac::Slot budget = slot_budget(config.max_slots, pattern);
  const mac::Slot end = s + budget;  // exclusive

  const std::size_t W = tile_words();
  const simd::Kernels& kernels = simd::active();

  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  std::vector<Active> active;
  active.reserve(pattern.k());
  std::vector<std::uint64_t> matrix;  // station-major: row r = W words of active[r]
  matrix.reserve(pattern.k() * W);
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
  // (any, multi) pair (departed stations' rows are zero), then the
  // impairment, every lane alike: tiles are 64-aligned to absolute slots,
  // so word w is plan word tb/64 + w; corrupt slots collide regardless of
  // transmitters, noisy slots garble an actual transmission into a
  // collision.
  const auto reduce = [&](mac::Slot tb, std::size_t w0, std::size_t tw) {
    // Lane rows are contiguous and only the one-lane drain re-reduces from
    // w0 > 0, so a single fill clears [w0, tw) of every lane.
    std::fill(any + w0, any + (channels - 1) * W + tw, 0);
    std::fill(multi + w0, multi + (channels - 1) * W + tw, 0);
    for (std::size_t r = 0; r < active.size(); ++r) {
      const std::size_t lane = active[r].lane * W;
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

  std::size_t next_arrival = 0;
  std::size_t remaining = pattern.k();
  std::uint64_t silences = carry != nullptr ? carry->silences : 0;
  std::uint64_t collisions = carry != nullptr ? carry->collisions : 0;
  std::uint64_t successes = carry != nullptr ? carry->successes : 0;
  bool halted = false;
  // Energy bookkeeping (side-state only): per-arrival departure slots and
  // transmit counts, and the last slot examined.  Transmits are popcounted
  // off the station rows as their slots are examined — at a departure, and
  // at the end of each tile — so no word is fetched twice; a hybrid run's
  // interpreted warm-up [s, start) arrives counted in `carry`.
  const bool energy = config.energy != EnergyModel::kOff;
  std::vector<mac::Slot> depart;
  std::vector<std::uint64_t> transmits;
  if (energy) {
    depart.assign(arrivals.size(), -1);
    transmits.assign(arrivals.size(), 0);
    if (carry != nullptr && !carry->station_transmits.empty()) {
      transmits = carry->station_transmits;
    }
  }
  mac::Slot last_slot = end - 1;
  // Observability (side-state only): flushed once after the loop.
  std::uint64_t obs_tiles = 0;
  std::uint64_t obs_words = 0;

  // First block boundary at or below `start` (wakes are validated >= 0,
  // so start >= 0 and plain division floors).
  const mac::Slot first_block = start / 64 * 64;

  // Tile ramp: the first resolve round fetches one word per station (runs
  // that end inside it pay exactly the pre-tiling cost), doubling up to W
  // per round — long runs amortize the fetch W-fold, short runs never buy
  // words they cannot use.  Tiles stay 64-aligned throughout, and results
  // are bit-identical for every ramp state (tiles are just groupings of
  // the same masked words).
  std::size_t cur = 1;

  for (mac::Slot tb = first_block; tb < end && !halted;
       tb += static_cast<mac::Slot>(64 * cur), cur = std::min<std::size_t>(cur * 2, W)) {
    const mac::Slot tile_end =
        std::min<mac::Slot>(tb + static_cast<mac::Slot>(64 * cur), end);
    const auto tw = static_cast<std::size_t>((tile_end - tb + 63) / 64);

    // Admit every station that wakes inside this tile, on its lane (lane 0
    // when there is one channel); row bits before the wake slot are masked
    // off below.
    while (next_arrival < arrivals.size() && arrivals[next_arrival].wake < tile_end) {
      const auto& a = arrivals[next_arrival];
      const std::uint32_t lane =
          channels == 1 ? 0 : schedule.channel_lane(a.station, a.wake);
      if (lane >= channels) {
        throw std::invalid_argument("batch engine: channel_lane out of range");
      }
      active.push_back(Active{a.station, a.wake, next_arrival, lane});
      matrix.resize(active.size() * W, 0);
      ++next_arrival;
    }

    // One schedule tile per live station: fetch from the block containing
    // the wake (never query blocks wholly before it), zero-fill the leading
    // words, mask the straddling one.
    for (std::size_t r = 0; r < active.size(); ++r) {
      const Active& st = active[r];
      std::uint64_t* row = matrix.data() + r * W;
      if (st.done) {
        std::fill(row, row + tw, 0);
        continue;
      }
      std::size_t w0 = 0;
      mac::Slot from = tb;
      if (st.wake > tb) {
        from = st.wake / 64 * 64;
        w0 = static_cast<std::size_t>((from - tb) / 64);
        std::fill(row, row + w0, 0);
      }
      schedule.schedule_block(st.id, st.wake, from, row + w0, tw - w0);
      if (st.wake > from) row[w0] &= ~std::uint64_t{0} << (st.wake - from);
      obs_words += tw - w0;
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

      // The solo's lane and its one live transmitter there.
      std::uint32_t lane = 0;
      while ((((any[lane * W + wq] & ~multi[lane * W + wq]) >> j) & 1u) == 0) ++lane;
      std::size_t r = 0;
      while (active[r].done || active[r].lane != lane || ((matrix[r * W + wq] >> j) & 1u) == 0) {
        ++r;
      }
      const mac::Slot t = tb + static_cast<mac::Slot>(hit);
      if (!result.success) {
        result.success = true;
        result.success_slot = t;
        result.rounds = t - s;
        result.winner = active[r].id;
        if (report_channel) result.success_channel = static_cast<std::int32_t>(lane);
      }
      if (!config.full_resolution) {
        halted = true;
        last_slot = t;
        break;
      }

      // Full resolution (one lane): the winner leaves the channel; zero its
      // row and re-resolve the rest of the tile without it.
      active[r].done = true;
      if (energy) {
        transmits[active[r].arrival] +=
            detail::count_row_bits(matrix.data() + r * W, tb, std::max(tb, start), t + 1);
        depart[active[r].arrival] = t;
      }
      std::fill(matrix.data() + r * W + wq, matrix.data() + r * W + tw, 0);
      --remaining;
      if (remaining == 0 && next_arrival == arrivals.size()) {
        result.completed = true;
        result.completion_slot = t;
        result.completion_rounds = t - s;
        halted = true;
        last_slot = t;
        break;
      }
      reduce(tb, wq, tw);
    }

    if (energy) {
      const mac::Slot examined_end = halted ? last_slot + 1 : tile_end;
      for (std::size_t r = 0; r < active.size(); ++r) {
        if (active[r].done) continue;  // counted at its departure
        transmits[active[r].arrival] += detail::count_row_bits(
            matrix.data() + r * W, tb, std::max(tb, start), examined_end);
      }
    }
  }

  result.silences = silences;
  result.collisions = collisions;
  result.successes = successes;
  if (energy) {
    account_awake_slots(pattern, config, last_slot, depart, result);
    result.station_transmits = std::move(transmits);
  }
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
  return run_batch_from(checked_schedule(protocol, config), pattern, config,
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
  if (warmup == 0) {
    return run_batch_from(schedule, pattern, config, pattern.first_wake(), nullptr);
  }

  const mac::Slot budget = slot_budget(config.max_slots, pattern);
  SimConfig warm_config = config;
  warm_config.max_slots = std::min<mac::Slot>(warmup, budget);
  const SimResult warm = run_wakeup_interpreter(protocol, pattern, warm_config);
  if (warm.success || budget <= warmup) return warm;

  // No success in the warm-up: continue word-parallel with carried counters.
  SimConfig rest_config = config;
  rest_config.max_slots = budget;  // pin the budget the warm-up was cut from
  return run_batch_from(schedule, pattern, rest_config, pattern.first_wake() + warmup, &warm);
}

SimResult run_wakeup_batch(const proto::McProtocol& protocol, const mac::WakePattern& pattern,
                           const SimConfig& config) {
  return run_batch_from(checked_schedule(protocol, config), pattern, without_energy(config),
                        pattern.first_wake(), nullptr, true);
}

}  // namespace wakeup::sim
