#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
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

namespace {

/// Linear-interpolated p-quantile of a non-empty ascending vector.
double sorted_quantile(const std::vector<double>& sorted, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double Sample::quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, p);
}

Summary Summary::of(const Sample& s) {
  Summary out;
  out.count = s.size();
  out.mean = s.mean();
  out.stddev = s.stddev();
  if (s.empty()) return out;
  // One sorted copy serves the order statistics (no value is NaN, so its
  // ends are the sample's min and max).
  std::vector<double> sorted = s.values();
  std::sort(sorted.begin(), sorted.end());
  out.min = sorted.front();
  out.median = sorted_quantile(sorted, 0.5);
  out.p95 = sorted_quantile(sorted, 0.95);
  out.p99 = sorted_quantile(sorted, 0.99);
  out.max = sorted.back();
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

/// The degenerate interval [mean, mean] at the clamped level.
BootstrapCI point_ci(const Sample& sample, double level) {
  BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = ci.lo = ci.hi = sample.mean();
  return ci;
}

/// `Rng::uniform` draws `BootstrapCI::of_mean` makes on an n-value sample.
std::uint64_t mean_draws(std::size_t n, std::uint64_t resamples) {
  return n < 2 ? 0 : resamples * n;
}

/// The mean CIs of K samples of one size n >= 2, from one stream of
/// `resamples` x n indices: each `rng.uniform(n)` picks the same position
/// in every sample.  Each sum adds in draw order: the means are not
/// integers, so any other order of the adds would change their bits.
template <std::size_t K>
std::array<BootstrapCI, K> resampled_mean_cis(const std::array<const Sample*, K>& samples,
                                              double level, std::uint64_t resamples,
                                              std::uint64_t seed) {
  Rng rng(hash_words({seed, 0x424f4f54ULL /* "BOOT" */}));
  const std::size_t n = samples[0]->size();
  std::array<const double*, K> values;
  std::array<std::vector<double>, K> means;
  for (std::size_t s = 0; s < K; ++s) {
    values[s] = samples[s]->values().data();
    means[s].resize(resamples);
  }
  for (std::uint64_t r = 0; r < resamples; ++r) {
    std::array<double, K> acc{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = rng.uniform(n);
      for (std::size_t s = 0; s < K; ++s) acc[s] += values[s][at];
    }
    for (std::size_t s = 0; s < K; ++s) means[s][r] = acc[s] / static_cast<double>(n);
  }
  std::array<BootstrapCI, K> cis;
  for (std::size_t s = 0; s < K; ++s) {
    cis[s] = point_ci(*samples[s], level);
    pick_interval(means[s], cis[s]);
  }
  return cis;
}

}  // namespace

BootstrapCI BootstrapCI::of_mean(const Sample& sample, double level, std::uint64_t resamples,
                                 std::uint64_t seed) {
  if (mean_draws(sample.size(), resamples) == 0) return point_ci(sample, level);
  return resampled_mean_cis<1>({&sample}, level, resamples, seed)[0];
}

MeanCIPair BootstrapCI::of_means(const Sample& first, const Sample& second, double level,
                                 std::uint64_t resamples, std::uint64_t seed) {
  const std::uint64_t draws = mean_draws(first.size(), resamples);
  if (draws == 0 || first.size() != second.size()) {
    return {of_mean(first, level, resamples, seed), of_mean(second, level, resamples, seed),
            draws + mean_draws(second.size(), resamples)};
  }
  const auto cis = resampled_mean_cis<2>({&first, &second}, level, resamples, seed);
  return {cis[0], cis[1], draws};
}

namespace {

/// log C(n, k), summed term by term: C(n, k) itself overflows a double past
/// n = 1029, and std::lgamma writes a process-wide global (`signgam`).
double log_choose(std::size_t n, std::size_t k) {
  k = std::min(k, n - k);
  double acc = 0.0;
  for (std::size_t i = 1; i <= k; ++i) {
    acc += std::log(static_cast<double>(n - k + i) / static_cast<double>(i));
  }
  return acc;
}

/// P(Bin(n, f) >= k) for 0 < f < 1 and 1 <= k <= n, given log C(n, k).
/// Sums whichever tail lies beyond the mean outward from k, where its
/// largest term sits, until the terms no longer move the sum; that term
/// comes from log space, so neither C(n, k) nor (1 - f)^n underflows.
double binomial_at_least(std::size_t n, std::size_t k, double f, double log_choose_k) {
  const double odds = f / (1.0 - f);
  const auto term_at = [&](std::size_t i, double log_choose_i) {
    return std::exp(log_choose_i + static_cast<double>(i) * std::log(f) +
                    static_cast<double>(n - i) * std::log1p(-f));
  };
  double sum = 0.0;
  if (static_cast<double>(k) > static_cast<double>(n) * f) {
    // Upper tail i = k..n; term(i+1) = term(i) (n-i)/(i+1) odds.
    double term = term_at(k, log_choose_k);
    for (std::size_t i = k;; ++i) {
      sum += term;
      if (i == n || term <= sum * 1e-17) return sum;
      term *= static_cast<double>(n - i) / static_cast<double>(i + 1) * odds;
    }
  }
  // Lower tail i = k-1..0, then the complement; term(i-1) = term(i) i/(n-i+1)/odds.
  const double log_choose_below =
      log_choose_k + std::log(static_cast<double>(k) / static_cast<double>(n - k + 1));
  double term = term_at(k - 1, log_choose_below);
  for (std::size_t i = k - 1;; --i) {
    sum += term;
    if (i == 0 || term <= sum * 1e-17) return 1.0 - sum;
    term *= static_cast<double>(i) / (static_cast<double>(n - i + 1) * odds);
  }
}

}  // namespace

BootstrapCI BootstrapCI::of_quantile(const Sample& sample, double p, double level) {
  BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.quantile(p);
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2) return ci;

  const std::size_t n = values.size();
  const double clamped_p = std::clamp(p, 0.0, 1.0);
  const double pos = clamped_p * static_cast<double>(n - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo_rank);
  const std::size_t k = lo_rank + 1;  // X(lo_rank) is the k-th smallest draw
  const std::size_t m = n - k;

  // Distinct values v[0] < ... < v[d-1] and share[j] = F_{j+1}, the share
  // of the sample at or below v[j].
  std::vector<double> v(values);
  std::sort(v.begin(), v.end());
  std::vector<double> share;
  std::size_t d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && v[i + 1] == v[i]) continue;
    v[d++] = v[i];
    share.push_back(static_cast<double>(i + 1) / static_cast<double>(n));
  }
  v.resize(d);

  // A resample's statistic is T = atom(a, b) = v[a] (1-frac) + v[b] frac,
  // with X(lo_rank) = v[a] and X(lo_rank+1) = v[b], b >= a: the expression
  // Sample::quantile evaluates, so the estimate is an atom, and monotone in
  // a and in b.  For b > a,
  //   P(a, b) = C(n,k) (F_a^k - F_{a-1}^k) ((1-F_{b-1})^m - (1-F_b)^m),
  // which telescopes over b: the mass of row a at or below its column B
  // is P(X(lo_rank) = v[a]) - row[a] * col[B], with
  //   row[a] = C(n,k) (F_a^k - F_{a-1}^k),  col[B] = (1-F_B)^m,
  // and col[d-1] = 0.  Both factors are kept as logs.
  const double log_ck = log_choose(n, k);
  std::vector<double> log_row(d);
  std::vector<double> log_col(d);
  double log_prev = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < d; ++j) {
    const double log_f = std::log(share[j]);
    log_row[j] = log_ck + static_cast<double>(k) * log_f +
                 std::log(-std::expm1(static_cast<double>(k) * (log_prev - log_f)));
    log_col[j] = static_cast<double>(m) * std::log1p(-share[j]);
    log_prev = log_f;
  }
  // The two products of an atom, each rounded once, as Sample::quantile
  // rounds them.
  std::vector<double> low_part(d);
  std::vector<double> high_part(d);
  for (std::size_t j = 0; j < d; ++j) {
    low_part[j] = v[j] * (1.0 - frac);
    high_part[j] = v[j] * frac;
  }
  const auto atom = [&](std::size_t a, std::size_t b) { return low_part[a] + high_part[b]; };

  // G(t) = P(T <= t), with the largest atom <= t and the smallest atom > t,
  // for t >= atom(0, 0).  Rows a with atom(a, a) <= t form a prefix 0..A;
  // G is their total P(X(lo_rank) <= v[A]) = P(Bin(n, F_A) >= k) minus the
  // row tails above each row's last column B_a, which only falls as a
  // rises (two pointers).
  struct Eval {
    double cdf;
    double below;
    double above;
  };
  const auto eval = [&](double t) {
    Eval e{0.0, -std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()};
    double tails = 0.0;
    std::size_t b = d - 1;
    std::size_t a = 0;
    for (; a < d && atom(a, a) <= t; ++a) {
      while (atom(a, b) > t) --b;
      e.below = std::max(e.below, atom(a, b));
      if (b + 1 < d) {
        e.above = std::min(e.above, atom(a, b + 1));
        tails += std::exp(log_row[a] + log_col[b]);
      }
    }
    if (a < d) e.above = std::min(e.above, atom(a, a));
    const double rows = a == d ? 1.0 : binomial_at_least(n, k, share[a - 1], log_ck);
    e.cdf = rows - tails;
    return e;
  };

  // The least atom t with G(t) >= q, by bisection over T's values: every
  // atom below `floor` misses q, `ceil` is an atom that reaches it, and each
  // step moves one of them past the midpoint onto an atom.  A computed G
  // can miss an exact tie by a few ulps, so a G within kTie of q counts as
  // reaching it: a law that hits q exactly takes the atom where it does, as
  // the >= rule asks.  (Next to q, G's steps are ~1e-4 apart at n = 4096.)
  constexpr double kTie = 1e-9;
  const auto least_atom_reaching = [&](double q, double floor) {
    double ceil = atom(d - 1, d - 1);
    while (floor < ceil) {
      const Eval e = eval(std::midpoint(floor, ceil));
      if (e.cdf >= q - kTie) {
        ceil = e.below;
      } else {
        floor = e.above;
      }
    }
    return ceil;
  };
  const double alpha = (1.0 - ci.level) / 2.0;
  ci.lo = least_atom_reaching(alpha, atom(0, 0));
  ci.hi = least_atom_reaching(1.0 - alpha, ci.lo);
  return ci;
}

}  // namespace wakeup::util
