#pragma once

/// \file stats.hpp
/// Streaming and batch statistics used by the experiment harness.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wakeup::util {

/// Welford single-pass mean/variance accumulator.
class OnlineStats {
 public:
  void push(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch sample container with quantiles; keeps all observations.
class Sample {
 public:
  void push(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// Linear-interpolated quantile, p in [0,1]. Empty sample yields 0.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Fixed summary of a sample, convenient for table rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  [[nodiscard]] static Summary of(const Sample& s);
};

/// Power-of-two bucketed histogram (bucket b counts values in [2^b, 2^{b+1})).
class Log2Histogram {
 public:
  void push(std::uint64_t x);
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Render as "b:count" pairs, skipping empty buckets.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

struct MeanCIPair;

/// Percentile bootstrap confidence intervals for the mean and for a
/// quantile of a sample.
///
/// Precondition: no sample value is NaN.  The interval ends are quantiles
/// of the resampled statistic's law, and NaN has no order.
///
/// Cost: `of_mean` draws R resamples of n values each, one
/// `Rng::uniform(n)` per draw, so a call is bound by the R * n draws; it
/// sums each resample in draw order (the sums are not integers; reordering
/// them changes bits) and picks the interval ends with two `nth_element`
/// calls.  `of_means` takes two samples at one seed: when their sizes
/// match, both would draw the same index stream, so one pass of R * n
/// draws feeds both sums (about the cost of one `of_mean`, half that of
/// two).  `of_quantile` draws nothing: a resample's quantile interpolates
/// two adjacent order statistics, whose joint law is a closed-form sum
/// over the d distinct sample values (Hutson & Ernst 2000, "The exact
/// bootstrap mean and variance of an L-estimator", JRSS-B 62).  It returns
/// the interval the percentile bootstrap converges to as R grows, in one
/// sort plus O(d) per CDF evaluation; each end bisects over the <= d^2
/// values the resampled quantile takes, about log2(d^2) evaluations (47
/// for both ends at d = n = 4096, 6-16 on integer rounds).
struct BootstrapCI {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double level = 0.95;

  /// Resamples `resamples` times with replacement (seeded, deterministic).
  /// Degenerate samples (size < 2) return [mean, mean].
  [[nodiscard]] static BootstrapCI of_mean(const Sample& sample, double level,
                                           std::uint64_t resamples, std::uint64_t seed);

  /// `of_mean` on each sample at one seed, bit for bit.  Equal sizes
  /// n >= 2 with resamples > 0 share one draw pass; otherwise each sample
  /// is resampled on its own.
  [[nodiscard]] static MeanCIPair of_means(const Sample& first, const Sample& second,
                                           double level, std::uint64_t resamples,
                                           std::uint64_t seed);

  /// Exact percentile bootstrap interval for the p-quantile of a sample
  /// (`mean` holds the point estimate, i.e. sample.quantile(p)).  With
  /// alpha = (1 - level) / 2 and G the CDF of the resampled quantile over
  /// all n^n equally likely resamples, `lo` is the least t with
  /// G(t) >= alpha and `hi` the least t with G(t) >= 1 - alpha; both are
  /// values the resampled quantile takes.  Degenerate samples (size < 2)
  /// return [mean, mean].  The sweep aggregator uses p = 0.5.
  [[nodiscard]] static BootstrapCI of_quantile(const Sample& sample, double p, double level);
};

/// Two mean CIs from `BootstrapCI::of_means`, and the `Rng::uniform`
/// draws they took.
struct MeanCIPair {
  BootstrapCI first;
  BootstrapCI second;
  std::uint64_t draws = 0;
};

}  // namespace wakeup::util
