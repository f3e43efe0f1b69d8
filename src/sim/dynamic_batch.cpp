#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

#include "sim/batch_engine.hpp"
#include "sim/dynamic.hpp"
#include "sim/impairment_engine.hpp"
#include "util/simd.hpp"

namespace wakeup::sim {
namespace {

namespace simd = util::simd;

/// One scenario station's row state.  `head_start` is the contention start
/// of the current head-of-line packet — max(arrival, previous delivery + 1)
/// — or kIdle while the queue is empty; it only moves at deliveries and at
/// arrivals into an empty queue, both of which the engine handles by
/// refilling the station's matrix row, so a row always holds the station's
/// true transmission bits for the rest of the tile.
struct Row {
  mac::StationId id = 0;
  std::size_t index = 0;               ///< into the result arrays
  const std::vector<mac::Slot>* arr = nullptr;
  std::size_t head = 0;                ///< delivered packets
  mac::Slot head_start = 0;
  mac::Slot crash_cutoff = -2;         ///< silent from this slot; negative = never
};

constexpr mac::Slot kIdle = -1;

/// The still-backlogged mask made concrete: fills `row` with station
/// bits for the tile [tb, tile_end).  Idle-until-some-arrival stations get
/// their bits set back from the arrival slot; drained stations stay zero.
/// A crashed station's bits from its cutoff on are masked off — exactly
/// the interpreter's follows(t) gate for an oblivious schedule.
void fill_row(const proto::ObliviousSchedule& schedule, const Row& st, mac::Slot tb,
              mac::Slot tile_end, std::uint64_t* row, std::size_t tw) {
  const mac::Slot h = st.head_start;
  if (h == kIdle || h >= tile_end || (st.crash_cutoff >= 0 && st.crash_cutoff <= h)) {
    std::fill(row, row + tw, 0);
    return;
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
  if (st.crash_cutoff >= 0 && st.crash_cutoff < tile_end) {
    if (st.crash_cutoff <= tb) {
      std::fill(row, row + tw, 0);
      return;
    }
    const auto off = static_cast<std::size_t>(st.crash_cutoff - tb);
    std::size_t wc = off / 64;
    const unsigned bit = off % 64;
    if (bit != 0) {
      row[wc] &= (std::uint64_t{1} << bit) - 1;
      ++wc;
    }
    std::fill(row + wc, row + tw, 0);
  }
}

}  // namespace

DynamicResult run_dynamic_batch(const proto::Protocol& protocol,
                                const mac::DynamicScenario& scenario,
                                const ImpairmentPlan* plan, EnergyModel energy) {
  if (!dynamic_batch_supports(protocol)) {
    throw std::invalid_argument(
        "dynamic batch engine requires a single-channel oblivious protocol");
  }
  const proto::ObliviousSchedule& schedule = *protocol.oblivious_schedule();
  if (plan != nullptr && plan->clean()) plan = nullptr;

  DynamicResult result;
  result.horizon = scenario.horizon();
  result.arrivals = scenario.packets_total();
  result.stations = scenario.stations();
  result.delivered_per_station.assign(result.stations.size(), 0);
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(result.stations.size(), 0);
    result.station_transmits.assign(result.stations.size(), 0);
  }

  // Group the slot-sorted packet stream into per-station arrival lists.
  std::vector<std::vector<mac::Slot>> arr(result.stations.size());
  for (const mac::Arrival& p : scenario.packets()) {
    const auto it =
        std::lower_bound(result.stations.begin(), result.stations.end(), p.station);
    arr[static_cast<std::size_t>(it - result.stations.begin())].push_back(p.wake);
  }

  const std::size_t W = tile_words();
  const std::size_t m = result.stations.size();

  std::vector<Row> rows(m);
  for (std::size_t r = 0; r < m; ++r) {
    rows[r].id = result.stations[r];
    rows[r].index = r;
    rows[r].arr = &arr[r];
    rows[r].head_start = arr[r].empty() ? kIdle : arr[r].front();
    if (plan != nullptr) {
      rows[r].crash_cutoff = plan->crash_cutoff(rows[r].id);
      // Byzantine stations never follow the protocol: their interference is
      // pre-folded into the plan's corrupt words, so their own row stays
      // idle forever and their packets strand in the backlog.
      if (plan->is_byzantine(rows[r].id)) rows[r].head_start = kIdle;
    }
  }

  std::vector<std::uint64_t> matrix(m * W, 0);  // station-major rows
  std::array<std::uint64_t, kMaxTileWords> any{};
  std::array<std::uint64_t, kMaxTileWords> multi{};
  std::array<std::uint64_t, kMaxTileWords> pend{};
  std::array<std::uint64_t, kMaxTileWords> succ{};

  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;
  const mac::Slot horizon = scenario.horizon();

  // Energy pass state: counted_from[r] = absolute slot from which row r's
  // transmit bits have not been popcounted yet (reset to the tile base every
  // tile, advanced past each delivery before the row is refilled).
  std::vector<mac::Slot> counted_from;
  if (energy != EnergyModel::kOff) counted_from.assign(m, 0);

  // Same 1 -> W tile ramp as the one-shot engine: scenarios that are mostly
  // idle early never buy words they cannot use.
  std::size_t cur = 1;

  for (mac::Slot tb = 0; tb < horizon;
       tb += static_cast<mac::Slot>(64 * cur), cur = std::min<std::size_t>(cur * 2, W)) {
    const mac::Slot tile_end =
        std::min<mac::Slot>(tb + static_cast<mac::Slot>(64 * cur), horizon);
    const auto tw = static_cast<std::size_t>((tile_end - tb + 63) / 64);

    for (std::size_t r = 0; r < m; ++r) {
      fill_row(schedule, rows[r], tb, tile_end, matrix.data() + r * W, tw);
    }
    if (energy != EnergyModel::kOff) std::fill(counted_from.begin(), counted_from.end(), tb);

    simd::or_reduce_2pass(matrix.data(), m, W, tw, any.data(), multi.data());

    // Impairment fold: corrupt slots collide even when idle, noisy slots
    // garble an actual transmission.  Tiles are 64-aligned, so word w is
    // plan word tb/64 + w.
    if (plan != nullptr) {
      const std::size_t gw = static_cast<std::size_t>(tb) / 64;
      for (std::size_t w = 0; w < tw; ++w) {
        const std::uint64_t corrupt = plan->corrupt_word(gw + w);
        multi[w] |= (any[w] & plan->noise_word(gw + w)) | corrupt;
        any[w] |= corrupt;
      }
    }

    // Pending masks: every slot of the tile inside [tb, horizon) resolves.
    for (std::size_t w = 0; w < tw; ++w) {
      const mac::Slot ws = tb + static_cast<mac::Slot>(64 * w);
      const auto width = static_cast<unsigned>(std::min<mac::Slot>(tile_end - ws, 64));
      pend[w] = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    }

    // Fast path: no delivery anywhere in the tile.
    for (std::size_t w = 0; w < tw; ++w) succ[w] = any[w] & ~multi[w] & pend[w];
    const std::size_t hit = simd::first_set_below(succ.data(), tw, 64 * tw);
    if (hit == simd::kNoBit) {
      simd::active().masked_popcount_pair(any.data(), multi.data(), pend.data(), tw,
                                          &silences, &collisions);
      if (energy != EnergyModel::kOff) {
        for (std::size_t r = 0; r < m; ++r) {
          result.station_transmits[r] +=
              detail::count_row_bits(matrix.data() + r * W, tb, tb, tile_end);
        }
      }
      continue;
    }
    const std::size_t first_w = hit / 64;
    if (first_w > 0) {
      simd::active().masked_popcount_pair(any.data(), multi.data(), pend.data(), first_w,
                                          &silences, &collisions);
    }

    for (std::size_t w = first_w; w < tw; ++w) {
      std::uint64_t pending = pend[w];
      while (pending != 0) {
        const std::uint64_t solo = any[w] & ~multi[w] & pending;
        if (solo == 0) {
          silences += static_cast<std::uint64_t>(std::popcount(~any[w] & pending));
          collisions += static_cast<std::uint64_t>(std::popcount(multi[w] & pending));
          break;
        }
        const auto j = static_cast<unsigned>(std::countr_zero(solo));
        const std::uint64_t upto =
            j == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
        const std::uint64_t segment = pending & upto;
        silences += static_cast<std::uint64_t>(std::popcount(~any[w] & segment));
        collisions += static_cast<std::uint64_t>(std::popcount(multi[w] & segment));
        pending &= ~upto;

        const mac::Slot t = tb + static_cast<mac::Slot>(64 * w + j);
        std::size_t winner = m;
        for (std::size_t r = 0; r < m; ++r) {
          if (((matrix[r * W + w] >> j) & 1u) != 0) {
            winner = r;
            break;
          }
        }
        Row& st = rows[winner];
        result.latency.push_back(static_cast<double>(t - (*st.arr)[st.head] + 1));
        ++result.delivered_per_station[st.index];
        ++st.head;
        if (energy != EnergyModel::kOff) {
          // Count the departing packet's transmit bits before the refill
          // overwrites its row, and close its backlogged span arithmetically
          // (the packet paid every slot from its contention start through t).
          result.station_transmits[st.index] += detail::count_row_bits(
              matrix.data() + winner * W, tb, counted_from[winner], t + 1);
          counted_from[winner] = t + 1;
          if (energy == EnergyModel::kListenUntilWoken) {
            result.station_energy[st.index] +=
                static_cast<std::uint64_t>(t - st.head_start + 1);
          }
        }

        // The still-backlogged update: next queued packet re-contends from
        // t + 1, a future arrival re-activates the row at its slot, and a
        // drained queue zeroes the row for good.
        st.head_start =
            st.head < st.arr->size() ? std::max((*st.arr)[st.head], t + 1) : kIdle;
        fill_row(schedule, st, tb, tile_end, matrix.data() + winner * W, tw);
        simd::or_reduce_2pass(matrix.data() + w, m, W, tw - w, any.data() + w,
                              multi.data() + w);
        // The re-reduce rebuilt (any, multi) from raw rows — re-fold the
        // impairment words over the rebuilt suffix.
        if (plan != nullptr) {
          const std::size_t gw = static_cast<std::size_t>(tb) / 64;
          for (std::size_t v = w; v < tw; ++v) {
            const std::uint64_t corrupt = plan->corrupt_word(gw + v);
            multi[v] |= (any[v] & plan->noise_word(gw + v)) | corrupt;
            any[v] |= corrupt;
          }
        }
      }
    }

    // Tile-end flush: bits of every live row past its marker are
    // transmissions that drew no delivery this tile.
    if (energy != EnergyModel::kOff) {
      for (std::size_t r = 0; r < m; ++r) {
        result.station_transmits[r] +=
            detail::count_row_bits(matrix.data() + r * W, tb, counted_from[r], tile_end);
      }
    }
  }

  if (energy != EnergyModel::kOff) {
    // Listen components, closed arithmetically.  listen:all — every live
    // receiver is on for the whole horizon (capped at a crash cutoff,
    // byzantine pays 0).  listen:until_woken — delivered packets already
    // paid their spans above; a still-backlogged head packet pays from its
    // contention start to the horizon (or cutoff).
    for (std::size_t r = 0; r < m; ++r) {
      const Row& st = rows[r];
      mac::Slot end_eff = horizon;
      if (st.crash_cutoff >= 0) end_eff = std::min(end_eff, st.crash_cutoff);
      if (energy == EnergyModel::kListenAll) {
        const bool byz = plan != nullptr && plan->is_byzantine(st.id);
        result.station_energy[r] = byz ? 0 : static_cast<std::uint64_t>(end_eff);
      } else if (st.head_start != kIdle && st.head_start < end_eff) {
        result.station_energy[r] += static_cast<std::uint64_t>(end_eff - st.head_start);
      }
    }
  }

  result.silences = silences;
  result.collisions = collisions;
  result.delivered = static_cast<std::uint64_t>(result.latency.size());
  result.backlog = result.arrivals - result.delivered;
  return result;
}

}  // namespace wakeup::sim
