#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::util {

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Sample::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double Sample::stddev() const noexcept {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Sample::min() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Sample::quantile(double p) const {
  if (values_.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summary::of(const Sample& s) {
  Summary out;
  out.count = s.size();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.median = s.median();
  out.p95 = s.quantile(0.95);
  out.p99 = s.quantile(0.99);
  out.max = s.max();
  return out;
}

void Log2Histogram::push(std::uint64_t x) {
  const unsigned b = floor_log2(x);
  if (buckets_.size() <= b) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++total_;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (!first) os << ' ';
    os << '2' << '^' << b << ':' << buckets_[b];
    first = false;
  }
  return os.str();
}

namespace {

/// Sets ci.lo/ci.hi to the percentile-interval order statistics of the
/// resampled statistics, at positions floor(alpha (R-1)) and
/// floor((1-alpha) (R-1)).  Two selections pick the same values a full
/// sort would put there.
void pick_interval(std::vector<double>& stats, BootstrapCI& ci) {
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto rank = [&](double q) {
    return static_cast<std::size_t>(q * static_cast<double>(stats.size() - 1));
  };
  const std::size_t lo = rank(alpha);
  const std::size_t hi = rank(1.0 - alpha);
  const auto at = [&](std::size_t r) { return stats.begin() + static_cast<std::ptrdiff_t>(r); };
  std::nth_element(stats.begin(), at(lo), stats.end());
  ci.lo = stats[lo];
  if (hi > lo) std::nth_element(at(lo + 1), at(hi), stats.end());
  ci.hi = stats[hi];
}

}  // namespace

BootstrapCI BootstrapCI::of_mean(const Sample& sample, double level, std::uint64_t resamples,
                                 std::uint64_t seed) {
  BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.mean();
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  Rng rng(hash_words({seed, 0x424f4f54ULL /* "BOOT" */}));
  const std::size_t n = values.size();
  // Each resample sums in draw order: the means are not integers, so any
  // other order of the adds would change their bits.
  std::vector<double> means(resamples);
  for (double& mean : means) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += values[rng.uniform(n)];
    mean = acc / static_cast<double>(n);
  }
  pick_interval(means, ci);
  return ci;
}

BootstrapCI BootstrapCI::of_quantile(const Sample& sample, double p, double level,
                                     std::uint64_t resamples, std::uint64_t seed) {
  BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.quantile(p);
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  // Distinct stream tag from of_mean so the two CIs of one cell draw
  // independent resamples even when seeded identically.
  Rng rng(hash_words({seed, 0x51424f4f54ULL /* "QBOOT" */}));
  const std::size_t n = values.size();
  const double clamped_p = std::clamp(p, 0.0, 1.0);
  const double pos = clamped_p * static_cast<double>(n - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const std::size_t hi_rank = std::min(lo_rank + 1, n - 1);
  const double frac = pos - static_cast<double>(lo_rank);

  // Every order statistic of a resample is a sample value, so a resample
  // is fully described by how often it drew each distinct value.  Rank
  // the distinct values once; per resample, count the drawn ranks and walk
  // the cumulative counts to order statistics lo_rank and hi_rank (the
  // same values Sample::quantile's sort would put there).
  std::vector<double> distinct(values);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<std::uint32_t> rank_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank_of[i] = static_cast<std::uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), values[i]) - distinct.begin());
  }
  std::vector<std::uint32_t> counts(distinct.size());
  std::vector<double> quantiles(resamples);
  for (double& quantile : quantiles) {
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[rank_of[rng.uniform(n)]];
    // upto = how many drawn values rank at or below distinct[r].
    std::size_t r = 0;
    std::size_t upto = counts[0];
    while (upto <= lo_rank) upto += counts[++r];
    const double lo_value = distinct[r];
    while (upto <= hi_rank) upto += counts[++r];
    const double hi_value = distinct[r];
    quantile = lo_value * (1.0 - frac) + hi_value * frac;
  }
  pick_interval(quantiles, ci);
  return ci;
}

}  // namespace wakeup::util
