#pragma once

/// \file schedule_cache.hpp
/// Memoized schedule words for trial-batched Monte-Carlo sweeps.
///
/// Deterministic protocols' schedules are trial-invariant: across the
/// trials of one sweep cell only the wake pattern changes.  The cache
/// exploits the `proto::ObliviousSchedule` trial-batching hints to store
/// each (station, wake-class) schedule exactly once:
///
///  * **folded entries** — when the schedule advertises a steady-state
///    period P (`period()` / `steady_from()`), the cache keeps the words
///    covering the pre-steady prefix plus one period of bits; any 64-slot
///    word up to the horizon is then two shifts away, regardless of how
///    far the trial runs.  This is the "memoize one period per station"
///    path (doubling schedules: P = z, round-robin: P = n).
///  * **windowed entries** — aperiodic (or overflowing-period) schedules
///    cache a prefix window of words; reads past the window fall back to
///    `schedule_block`, so correctness never depends on the window size.
///
/// Usage protocol: populate with `ensure` (single-threaded), then share
/// read-only across a thread pool — `find`/`read` are const and lock-free.
/// Every fallback path re-derives words from the schedule itself, so a
/// miss is a slowdown, never a wrong bit.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mac/types.hpp"
#include "protocols/protocol.hpp"
#include "util/thread_pool.hpp"

namespace wakeup::sim {

class ScheduleCache {
 public:
  struct Config {
    /// Exclusive slot bound the cell's trials may reach (0 = unknown);
    /// caps windowed entries so they never outgrow the sweep.
    mac::Slot horizon = 0;
    /// Prefix slots cached per windowed entry.  Sweeps size this from
    /// observed trial lengths (see sim::Run's probe trials).
    mac::Slot window = 1 << 12;
    /// Largest period (and pre-steady prefix) the cache will fold; larger
    /// periods degrade to windowed entries.
    std::uint64_t max_fold_slots = std::uint64_t{1} << 22;
    /// Hard cap on cached words across all entries; once reached, new
    /// (station, wake-class) pairs stay uncached and reads fall back.
    std::size_t max_bytes = std::size_t{256} << 20;
    /// Contended-prefix policy (0 = off): cap, in slots, on the words
    /// cached per entry.  Folds whose head + wheel would exceed the cap
    /// degrade to windowed entries, and windowed spans are clamped to it.
    /// Reads past the cached prefix fall back to schedule_block — with
    /// implicit families the tail is recomputed arithmetically, so the
    /// byte budget concentrates on the prefix where >= 2 stations are
    /// still live and cross-trial reuse actually pays; the long solo tail
    /// is served from the generators.  sim::Run sizes this from the probe
    /// trials' observed contention window.
    mac::Slot contended_prefix = 0;
  };

  /// Per-(station, wake-class) memoized words.  Opaque to callers; reads
  /// go through `read`.
  struct Entry {
    std::uint64_t period = 0;      ///< > 0 iff folded
    mac::Slot steady_base = 0;     ///< 64-aligned start of the wheel
    std::int64_t head_start = 0;   ///< first cached block index (from / 64)
    std::vector<std::uint64_t> head;   ///< words for blocks [head_start, ...)
    std::vector<std::uint64_t> wheel;  ///< one period of bits from steady_base
  };

  ScheduleCache(const proto::ObliviousSchedule& schedule, Config config);

  /// Memoizes the words of (u, wake)'s wake class if not yet present and
  /// the byte budget allows.  Population phase only — NOT thread-safe.
  void ensure(mac::StationId u, mac::Slot wake);

  /// Bulk planning: dedups the members into fresh wake classes and sizes
  /// their storage without computing any words.  Returns the total words
  /// the pending fill would compute — the population cost estimate the
  /// sweep harness gates on.  Population phase only.
  std::size_t plan_members(const std::vector<std::pair<mac::StationId, mac::Slot>>& members);

  /// Fills every entry planned since the last fill, in parallel on `pool`
  /// (may be null: inline).  schedule_block must be safe to call
  /// concurrently — the same property the trial loop itself relies on when
  /// many threads simulate one shared protocol.  Population phase only.
  void fill_planned(util::ThreadPool* pool);

  /// plan_members + fill_planned in one step.
  void populate(const std::vector<std::pair<mac::StationId, mac::Slot>>& members,
                util::ThreadPool* pool);

  /// Entry serving (u, wake), or nullptr when uncached.  Thread-safe after
  /// population.
  [[nodiscard]] const Entry* find(mac::StationId u, mac::Slot wake) const;

  /// Reads up to `n_words` consecutive 64-slot words starting at `from`
  /// (must be 64-aligned and >= 0) from an entry of this cache into `out`.
  /// Returns the number of *leading* words served; the caller falls back
  /// to schedule_block for the rest.  Coverage is contiguous from the
  /// entry's first cached block (head, then — for folded entries — the
  /// period wheel, which answers any horizon), so a short count always
  /// means the tail [from + 64 * served, ...) is uncached, never a gap.
  /// One call walks head -> wheel transitions and period wrap-arounds with
  /// the offset carried incrementally, so a W-word tile costs one modulo,
  /// not W.
  [[nodiscard]] static std::size_t read(const Entry& entry, mac::Slot from, std::uint64_t* out,
                                        std::size_t n_words);

  /// Single-word convenience: true iff the entry covers `from`.
  [[nodiscard]] static bool read(const Entry& entry, mac::Slot from, std::uint64_t* out) {
    return read(entry, from, out, 1) == 1;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t entries() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t folded_entries() const noexcept { return folded_; }
  /// Wake classes that stayed uncached because max_bytes was reached.
  [[nodiscard]] std::size_t overflowed() const noexcept { return overflowed_; }

 private:
  struct Key {
    mac::StationId station;
    std::uint64_t wake_key;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept;
  };

  /// Inserts a shape-planned (vectors sized, words unfilled) entry for
  /// (u, wake)'s class; nullptr when already present or over budget.
  Entry* plan(mac::StationId u, mac::Slot wake);
  /// Computes the planned entry's words via schedule_block.
  void fill(Entry& entry, mac::StationId u, mac::Slot wake) const;

  struct Planned {
    Entry* entry;
    mac::StationId station;
    mac::Slot wake;
  };
  std::vector<Planned> pending_;

  const proto::ObliviousSchedule& schedule_;
  Config config_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::size_t bytes_ = 0;
  std::size_t folded_ = 0;
  std::size_t overflowed_ = 0;
};

}  // namespace wakeup::sim
