#pragma once

/// \file word_source.hpp
/// Schedule-word sources of the static batch engine (sim/batch_engine.cpp),
/// for one channel and C alike.  A source fills one row of the engine's
/// station-major word matrix per resolve round: `tile` writes `n_words`
/// consecutive 64-slot schedule words starting at the 64-aligned slot
/// `from`, amortizing the virtual `schedule_block` dispatch (and the cache
/// handle walk) over the whole tile instead of paying it per word.
/// `arrival` is the station's index in pattern.arrivals(), so cached
/// sources can pre-resolve one handle per arrival and stay lock-free
/// during the run.

#include <cstdint>
#include <vector>

#include "protocols/protocol.hpp"
#include "sim/schedule_cache.hpp"

namespace wakeup::sim::detail {

/// Uncached: every tile comes straight from one schedule_block call.
struct DirectWords {
  const proto::ObliviousSchedule& schedule;
  void tile(std::size_t arrival, mac::StationId id, mac::Slot wake, mac::Slot from,
            std::uint64_t* out, std::size_t n_words) const {
    (void)arrival;
    schedule.schedule_block(id, wake, from, out, n_words);
  }
};

/// Trial-batched: tiles come from a read-only ScheduleCache.  The cache
/// serves a leading run of words (head / folded wheel, contiguous
/// coverage); whatever it cannot serve is fetched with one schedule_block
/// over the uncached tail, so any miss is a slowdown, never a wrong bit.
/// Under the contended-prefix policy this tail path is the common case
/// late in a trial: entries stop at the contention window and the solo
/// survivor's words are recomputed by the implicit family generators.
struct CachedWords {
  const proto::ObliviousSchedule& schedule;
  std::vector<const ScheduleCache::Entry*> handles;  ///< per arrival index
  void tile(std::size_t arrival, mac::StationId id, mac::Slot wake, mac::Slot from,
            std::uint64_t* out, std::size_t n_words) const {
    const ScheduleCache::Entry* entry = handles[arrival];
    const std::size_t served =
        entry != nullptr ? ScheduleCache::read(*entry, from, out, n_words) : 0;
    if (served < n_words) {
      schedule.schedule_block(id, wake, from + static_cast<mac::Slot>(64 * served),
                              out + served, n_words - served);
    }
  }
};

/// Resolves one cache handle per arrival of `pattern` for a CachedWords
/// source over `cache`.
[[nodiscard]] inline CachedWords make_cached_words(const proto::ObliviousSchedule& schedule,
                                                   const ScheduleCache& cache,
                                                   const mac::WakePattern& pattern) {
  CachedWords words{schedule, {}};
  const auto& arrivals = pattern.arrivals();
  words.handles.reserve(arrivals.size());
  for (const auto& a : arrivals) {
    words.handles.push_back(cache.find(a.station, a.wake));
  }
  return words;
}

}  // namespace wakeup::sim::detail
