#pragma once

/// \file aggregator.hpp
/// The per-cell trial reducer.
///
/// An `Aggregator` receives one result per trial (concurrently, from worker
/// threads), storing each trial's observables in its trial slot — never in
/// completion order — so the finalized statistics are bitwise identical for
/// every worker count.  `sim::Run` feeds one per run; `finalize()` produces
/// the cell's `CellStats`: mean / median / p95 / max rounds, success rate,
/// and seeded percentile-bootstrap confidence intervals for the mean and
/// the median (util::BootstrapCI).

#include <cstdint>
#include <vector>

#include "sim/dynamic.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace wakeup::sim {

/// Aggregated outcome of one cell (single runs are 1-trial cells).
struct CellStats {
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;   ///< trials that exhausted the slot budget
  double success_rate = 0.0;    ///< (trials - failures) / trials
  util::Summary rounds;         ///< over successful trials
  util::Summary collisions;
  util::Summary silences;
  /// Full-resolution rounds over successful trials that completed
  /// (SimConfig::full_resolution; empty otherwise).  Not part of the
  /// manifest: sweeps never run full resolution.
  util::Summary completion;
  /// Bootstrap CIs for the mean and the median of the cell's headline
  /// statistic: rounds (over successful trials) for static cells,
  /// per-trial throughput for dynamic ones.  The manifest keys are
  /// mean_ci_lo/hi and median_ci_lo/hi.
  util::BootstrapCI mean_ci;
  util::BootstrapCI median_ci;

  // -- Dynamic traffic (horizon > 0 runs; zero for static cells) ---------
  util::Summary throughput;  ///< delivered packets per slot, per trial
  util::Summary jain;        ///< Jain's fairness index, per trial
  /// Queue latency pooled over every delivered packet of every trial (in
  /// trial order, so the percentiles are thread-count-independent).
  util::Summary latency;
  std::uint64_t packet_arrivals = 0;  ///< total packets arrived, all trials
  std::uint64_t delivered = 0;
  std::uint64_t backlog = 0;  ///< still queued at the horizon, all trials

  // -- Energy accounting (SimConfig::energy != kOff; zero otherwise) -----
  /// Per-trial mean / max station energy (slots transmitting or listening),
  /// summarized over every trial — failed trials included: they burn the
  /// whole budget, which is exactly what an energy measurement must see.
  /// The C-channel model accounts no energy.
  util::Summary energy_mean;
  util::Summary energy_max;
  util::BootstrapCI energy_mean_ci;  ///< bootstrap CI of the per-trial means
};

/// Collects per-trial results of one cell.  `add` may be called
/// concurrently for distinct trial indices; `finalize` must only run after
/// every trial landed.  Construct with `dynamic = true` for dynamic-traffic
/// cells (preallocates the dynamic trial slots, so concurrent adds never
/// resize).
class Aggregator {
 public:
  explicit Aggregator(std::uint64_t trials = 0, bool dynamic = false);

  /// Static trials of either channel model (C-channel results carry no
  /// energy, so their cells finalize with empty energy summaries).
  void add(std::uint64_t trial, const SimResult& result);
  void add(std::uint64_t trial, const DynamicResult& result);

  /// Statistics over the recorded trials, mean CIs from `ci_resamples`
  /// resamples seeded by `ci_seed`, the median CI exact (deterministic:
  /// same trials + seed => identical CellStats, regardless of the order
  /// `add` was called in).  `ci_resamples` == 0 degenerates every CI to
  /// [estimate, estimate].
  [[nodiscard]] CellStats finalize(std::uint64_t ci_resamples, std::uint64_t ci_seed,
                                   double ci_level = 0.95) const;

 private:
  struct TrialSlot {
    bool success = false;
    double rounds = 0;
    double collisions = 0;
    double silences = 0;
    bool completed = false;
    double completion = 0;
    bool has_energy = false;
    double energy_mean = 0;
    double energy_max = 0;
  };
  struct DynamicSlot {
    double throughput = 0;
    double jain = 0;
    double collisions = 0;
    double silences = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t delivered = 0;
    std::uint64_t backlog = 0;
    std::vector<double> latency;
    bool has_energy = false;
    double energy_mean = 0;
    double energy_max = 0;
  };
  std::vector<TrialSlot> slots_;
  std::vector<DynamicSlot> dynamic_slots_;  ///< empty unless dynamic
};

}  // namespace wakeup::sim
