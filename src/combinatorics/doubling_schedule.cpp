#include "combinatorics/doubling_schedule.hpp"

#include <algorithm>
#include <array>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::comb {

DoublingSchedule::DoublingSchedule(const Config& config) : config_(config) {
  const unsigned levels = std::max(1u, util::ceil_log2(std::max<std::uint32_t>(2, config.k_max)));
  std::uint64_t offset = 0;
  for (unsigned j = 1; j <= levels; ++j) {
    if (config.prefix_cap > 0 && !implicit_.empty() && offset >= config.prefix_cap) break;
    const auto kj = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config.n, util::ipow(2, j)));
    const std::uint64_t family_seed = util::hash_words({config.seed, 0x444246ULL, j});
    ImplicitFamilyPtr fam = make_implicit_family(config.kind, config.n, kj, family_seed, config.c);
    starts_.push_back(offset);
    offset += fam->length();
    implicit_.push_back(std::move(fam));
  }
  period_ = offset;
  materialized_.resize(implicit_.size());
}

const SelectiveFamily& DoublingSchedule::family(std::size_t i) const {
  const std::lock_guard<std::mutex> lock(materialize_mutex_);
  if (!materialized_[i]) {
    materialized_[i] = std::make_shared<const SelectiveFamily>(implicit_[i]->materialize());
  }
  return *materialized_[i];
}

bool DoublingSchedule::transmits(Station u, std::uint64_t idx) const noexcept {
  const Position pos = position(idx);
  return implicit_[pos.family_index]->contains(static_cast<std::size_t>(pos.step), u);
}

void DoublingSchedule::schedule_words(std::span<const Station> stations, std::uint64_t from,
                                      std::span<std::uint64_t> out) const {
  // The first family's bits land in `out` directly; later ones (a block
  // straddling a family boundary or the period wrap) go through a stack
  // buffer, 64 stations at a time, written before read and so left
  // uninitialized (one-station calls would pay for zeroing it).
  if (stations.empty()) return;
  std::array<std::uint64_t, 64> part;
  Position pos = position(from);
  unsigned filled = 0;
  while (filled < 64) {
    const ImplicitFamily& fam = *implicit_[pos.family_index];
    const auto step = static_cast<std::size_t>(pos.step);
    const auto avail =
        static_cast<unsigned>(std::min<std::uint64_t>(64 - filled, fam.length() - step));
    const std::uint64_t mask = avail < 64 ? (std::uint64_t{1} << avail) - 1 : ~std::uint64_t{0};
    if (filled == 0) {
      fam.membership_words(stations, step, out);
      for (std::size_t i = 0; i < stations.size(); ++i) out[i] &= mask;
    } else {
      for (std::size_t c = 0; c < stations.size(); c += part.size()) {
        const std::size_t m = std::min(part.size(), stations.size() - c);
        fam.membership_words(stations.subspan(c, m), step, part);
        for (std::size_t i = 0; i < m; ++i) out[c + i] |= (part[i] & mask) << filled;
      }
    }
    filled += avail;
    pos.family_index = pos.family_index + 1 == implicit_.size() ? 0 : pos.family_index + 1;
    pos.step = 0;
  }
}

DoublingSchedule::Position DoublingSchedule::position(std::uint64_t idx) const noexcept {
  const std::uint64_t off = idx % period_;
  // starts_ is sorted; find the last start <= off.
  auto it = std::upper_bound(starts_.begin(), starts_.end(), off);
  const auto fam = static_cast<std::size_t>(std::distance(starts_.begin(), it)) - 1;
  return Position{fam, off - starts_[fam]};
}

bool DoublingSchedule::is_family_start(std::uint64_t idx) const noexcept {
  const std::uint64_t off = idx % period_;
  return std::binary_search(starts_.begin(), starts_.end(), off);
}

std::uint64_t DoublingSchedule::next_family_start(std::uint64_t t) const noexcept {
  const std::uint64_t off = t % period_;
  auto it = std::lower_bound(starts_.begin(), starts_.end(), off);
  if (it != starts_.end()) return t + (*it - off);
  // Wrap to the first start (offset 0) of the next period.
  return t + (period_ - off);
}

DoublingSchedulePtr make_doubling_schedule(const DoublingSchedule::Config& config) {
  return std::make_shared<const DoublingSchedule>(config);
}

}  // namespace wakeup::comb
