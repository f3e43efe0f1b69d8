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

BootstrapCI BootstrapCI::of_mean(const Sample& sample, double level, std::uint64_t resamples,
                                 std::uint64_t seed) {
  BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.mean();
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  Rng rng(hash_words({seed, 0x424f4f54ULL /* "BOOT" */}));
  std::vector<double> means;
  means.reserve(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += values[rng.uniform(values.size())];
    }
    means.push_back(acc / static_cast<double>(values.size()));
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(means.size() - 1);
    return means[static_cast<std::size_t>(pos)];
  };
  ci.lo = at(alpha);
  ci.hi = at(1.0 - alpha);
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
  // One reused scratch draw per resample; the interpolated quantile needs
  // only the order statistics at positions lo and lo+1, so two selection
  // passes beat a full sort (matches Sample::quantile bit for bit).
  const double clamped_p = std::clamp(p, 0.0, 1.0);
  const double pos = clamped_p * static_cast<double>(values.size() - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const std::size_t hi_rank = std::min(lo_rank + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo_rank);
  std::vector<double> draw(values.size());
  std::vector<double> quantiles;
  quantiles.reserve(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      draw[i] = values[rng.uniform(values.size())];
    }
    std::nth_element(draw.begin(), draw.begin() + static_cast<std::ptrdiff_t>(lo_rank),
                     draw.end());
    const double lo_value = draw[lo_rank];
    const double hi_value =
        hi_rank == lo_rank
            ? lo_value
            : *std::min_element(draw.begin() + static_cast<std::ptrdiff_t>(lo_rank) + 1,
                                draw.end());
    quantiles.push_back(lo_value * (1.0 - frac) + hi_value * frac);
  }
  std::sort(quantiles.begin(), quantiles.end());
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(quantiles.size() - 1);
    return quantiles[static_cast<std::size_t>(pos)];
  };
  ci.lo = at(alpha);
  ci.hi = at(1.0 - alpha);
  return ci;
}

}  // namespace wakeup::util
