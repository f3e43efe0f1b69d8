#include "sim/run.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/results_sink.hpp"
#include "util/rng.hpp"

namespace wakeup::sim {

namespace {

// Spec-level spellings of the public seed hooks (bottom of this file).
std::uint64_t trial_seed(const RunSpec& spec, std::uint64_t i) {
  return sim::trial_seed(spec.base_seed, spec.cell_tag, i);
}

std::uint64_t cell_protocol_seed(const RunSpec& spec) {
  return sim::cell_protocol_seed(spec.base_seed, spec.cell_tag);
}

/// Per-trial protocol stream for randomized protocols: derived from the
/// trial seed but distinct from the wake pattern's Rng stream, so the
/// pattern alone consumes the trial seed.
std::uint64_t trial_protocol_seed(std::uint64_t seed) {
  return util::hash_words({seed, 0x50524fULL /* "PRO" */});
}

/// Per-trial impairment plan for a static run, covering every slot the
/// trial may walk: [0, first_wake + budget).  The plan seed is the trial
/// seed, so realizations vary per trial like wake patterns do.
ImpairmentPlan compile_static_plan(const RunSpec& spec, std::uint64_t seed,
                                   const mac::WakePattern& pattern,
                                   const std::vector<mac::Slot>* jam_override) {
  if (pattern.empty()) return {};
  const mac::Slot budget = slot_budget(spec.sim.max_slots, pattern);
  return compile_impairment(spec.impairment, seed, pattern.first_wake() + budget, nullptr,
                            jam_override);
}

/// Resolves an adversarial jam spec into the slot list every trial of the
/// cell will face: one hill-climb (sim/adversary.hpp), seeded from the
/// cell identity, against trial 0's pattern.  Returns an empty vector for
/// every other jam schedule (they realize per trial inside the compiler).
std::vector<mac::Slot> resolve_adversarial_jam(const RunSpec& spec,
                                               const proto::Protocol& protocol) {
  if (!spec.impairment.has_jam() ||
      spec.impairment.jam_sched != mac::JamSchedule::kAdversarial) {
    return {};
  }
  mac::WakePattern generated;
  const mac::WakePattern* target = spec.pattern;
  if (spec.make_pattern) {
    util::Rng rng(trial_seed(spec, 0));
    generated = spec.make_pattern(rng);
    target = &generated;
  }
  constexpr std::uint32_t kRestarts = 3;
  constexpr std::uint32_t kSteps = 24;
  return search_worst_jam(protocol, *target, spec.impairment, kRestarts, kSteps,
                          util::hash_words({spec.base_seed, 0x4a414dULL /* "JAM" */,
                                            spec.cell_tag}),
                          spec.sim)
      .slots;
}

/// Adversarial jam is single-channel; validate() rejects it for C channels.
std::vector<mac::Slot> resolve_adversarial_jam(const RunSpec& /*spec*/,
                                               const proto::McProtocol& /*protocol*/) {
  return {};
}

/// What waking pool helpers costs before they contribute: queueing the
/// helper tasks, the condvar notify, and a parked worker getting scheduled.
/// Measured on a 4-core host (gcc, Release, 4-worker pool): a parked worker
/// starts its first chunk a median 14 us after the caller queues it, 25-31
/// us at the 90th percentile; 23 equal trials fanned out break even with
/// the inline loop at about 25 us of total work and win from 50 us on
/// (36 us against 52 us, medians).  Trials whose remaining work is below
/// this cost finish as soon on the caller alone.
constexpr std::chrono::nanoseconds kPoolWakeCost = std::chrono::microseconds(50);

/// Runs every trial.  On a pool with workers, trial 0 runs inline and is
/// timed; the remaining trials fan out onto the pool only when trial 0's
/// time x (trials - 1) pays for waking helpers.  Results are trial-indexed,
/// so where a trial runs never moves a byte.
void for_each_trial(std::uint64_t trials, util::ThreadPool* pool,
                    const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || pool->worker_count() == 0 || trials == 1) {
    for (std::size_t i = 0; i < trials; ++i) body(i);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  body(0);
  // elapsed x (trials - 1) >= cost, divided so the product cannot overflow.
  const bool fan_out = std::chrono::steady_clock::now() - start >=
                       kPoolWakeCost / static_cast<std::int64_t>(trials - 1);
  if (obs::active()) {
    static const auto c_fanned = obs::Counter::get("sim.runs_fanned");
    static const auto c_inline = obs::Counter::get("sim.runs_inline");
    (fan_out ? c_fanned : c_inline).inc();
  }
  if (fan_out) {
    pool->parallel_for(1, trials, body);
  } else {
    for (std::size_t i = 1; i < trials; ++i) body(i);
  }
}

void validate(const RunSpec& spec) {
  const bool multichannel =
      spec.mc_protocol != nullptr || static_cast<bool>(spec.make_mc_protocol);
  const int protocol_sources = (spec.protocol != nullptr ? 1 : 0) +
                               (spec.mc_protocol != nullptr ? 1 : 0) +
                               (spec.make_protocol ? 1 : 0) + (spec.make_mc_protocol ? 1 : 0);
  if (protocol_sources != 1) {
    throw std::invalid_argument(
        "RunSpec: exactly one of protocol / mc_protocol / make_protocol / make_mc_protocol");
  }
  const int pattern_sources =
      (spec.pattern != nullptr ? 1 : 0) + (spec.make_pattern ? 1 : 0);

  // Impairment placement: fault clauses draw their stations from a dynamic
  // scenario's population, and the adversarial jam search climbs over the
  // static single-channel stack — name the offending spec in the rejection.
  const bool adversarial_jam = spec.impairment.has_jam() &&
                               spec.impairment.jam_sched == mac::JamSchedule::kAdversarial;
  if (spec.horizon > 0 && adversarial_jam) {
    throw std::invalid_argument(
        "RunSpec: adversarial jam ('" + spec.impairment.name() +
        "') needs a static single-channel run, not dynamic traffic");
  }
  if (spec.horizon <= 0 && spec.impairment.has_faults()) {
    throw std::invalid_argument("RunSpec: crash/byzantine faults ('" + spec.impairment.name() +
                                "') need dynamic mode (horizon > 0)");
  }
  if (multichannel && adversarial_jam) {
    throw std::invalid_argument("RunSpec: adversarial jam ('" + spec.impairment.name() +
                                "') is single-channel only");
  }

  if (spec.horizon > 0) {
    // Dynamic traffic: single channel, one traffic source, dynamic sinks.
    if (multichannel) {
      throw std::invalid_argument("RunSpec: dynamic traffic (horizon > 0) is single-channel");
    }
    if (pattern_sources != 0) {
      throw std::invalid_argument(
          "RunSpec: dynamic runs take traffic from scenario/arrival, not pattern/make_pattern");
    }
    const bool generated = spec.dynamic_n > 0 && spec.dynamic_k > 0;
    if ((spec.scenario != nullptr) == generated) {
      throw std::invalid_argument(
          "RunSpec: dynamic runs need exactly one of scenario / (arrival + dynamic_n + "
          "dynamic_k)");
    }
    if (spec.scenario == nullptr && spec.arrival.kind == mac::ArrivalKind::kReplay) {
      throw std::invalid_argument(
          "RunSpec: replay arrivals need an explicit scenario (they cannot be generated)");
    }
    if (generated && spec.dynamic_k > spec.dynamic_n) {
      throw std::invalid_argument("RunSpec: dynamic_k must be <= dynamic_n");
    }
    if (spec.sim.record_trace || spec.sim.full_resolution ||
        spec.sim.feedback != mac::FeedbackModel::kNone) {
      throw std::invalid_argument(
          "RunSpec: dynamic runs support neither traces, full resolution, nor CD feedback");
    }
    if (spec.per_trial || spec.per_trial_mc || spec.trial_csv != nullptr) {
      throw std::invalid_argument("RunSpec: dynamic runs report through per_trial_dynamic");
    }
    return;
  }

  if (pattern_sources != 1) {
    throw std::invalid_argument("RunSpec: exactly one of pattern / make_pattern");
  }
  if (spec.scenario != nullptr || spec.per_trial_dynamic) {
    throw std::invalid_argument(
        "RunSpec: scenario / per_trial_dynamic need dynamic mode (horizon > 0)");
  }
  if (multichannel && (spec.sim.record_trace || spec.sim.full_resolution ||
                       spec.sim.feedback != mac::FeedbackModel::kNone)) {
    throw std::invalid_argument(
        "RunSpec: multichannel runs support neither traces, full resolution, nor CD feedback");
  }
}

// ---------------------------------------------------------------- models --
//
// A model names the protocol kind a run serves, where the spec keeps its
// fixed instance and seeded builder, and what one trial runs.

/// Static wake-up of a trial: the pattern flows from the trial stream, an
/// impaired cell compiles its plan from the trial seed.
template <class P>
SimResult static_trial(const RunSpec& spec, const P& protocol, std::uint64_t seed,
                       const std::vector<mac::Slot>* jam_override) {
  util::Rng rng(seed);
  mac::WakePattern generated;
  if (spec.make_pattern) generated = spec.make_pattern(rng);
  const mac::WakePattern& pattern = spec.make_pattern ? generated : *spec.pattern;
  // Clean cells touch no plan: their trial config is spec.sim verbatim.
  SimConfig cfg = spec.sim;
  ImpairmentPlan plan;
  if (!spec.impairment.clean()) {
    plan = compile_static_plan(spec, seed, pattern, jam_override);
    cfg.impairment = &plan;
  }
  return dispatch_wakeup(protocol, pattern, cfg);
}

/// Static per-trial sinks of either channel model.
void report(const RunSpec& spec, std::uint64_t i, const SimResult& r) {
  if (spec.per_trial) spec.per_trial(i, r);
  if (spec.per_trial_mc) spec.per_trial_mc(i, r);
  if (spec.trial_csv != nullptr) spec.trial_csv->write(i, r);
}

void report(const RunSpec& spec, std::uint64_t i, const DynamicResult& r) {
  if (spec.per_trial_dynamic) spec.per_trial_dynamic(i, r);
}

/// The paper's one shared channel, with the interpreted warm-up hybrid,
/// full resolution and energy accounting.
struct SingleChannel {
  using Protocol = proto::Protocol;
  using Ptr = proto::ProtocolPtr;

  static const Protocol* fixed(const RunSpec& spec) { return spec.protocol; }
  static const auto& builder(const RunSpec& spec) { return spec.make_protocol; }
  static bool randomized(const Protocol& protocol) {
    return protocol.requirements().randomized;
  }
  static constexpr auto trial = &static_trial<Protocol>;
};

/// C channels.
struct MultiChannel {
  using Protocol = proto::McProtocol;
  using Ptr = proto::McProtocolPtr;

  static const Protocol* fixed(const RunSpec& spec) { return spec.mc_protocol; }
  static const auto& builder(const RunSpec& spec) { return spec.make_mc_protocol; }
  static bool randomized(const Protocol& protocol) { return protocol.randomized(); }
  static constexpr auto trial = &static_trial<Protocol>;
};

/// Dynamic traffic on the single channel (its protocol source and
/// coins).  A trial cannot fail: the horizon is the budget and every slot
/// of it resolves.
struct DynamicTraffic : SingleChannel {
  static DynamicResult trial(const RunSpec& spec, const Protocol& protocol, std::uint64_t seed,
                             const std::vector<mac::Slot>* /*jam_override*/) {
    // Generated scenarios draw from the trial stream exactly where a wake
    // pattern would, so (base_seed, cell_tag, i) pins the traffic.
    util::Rng rng(seed);
    mac::DynamicScenario generated;
    if (spec.scenario == nullptr) {
      generated = mac::arrivals::generate(spec.arrival, spec.dynamic_n, spec.dynamic_k,
                                          spec.horizon, rng);
    }
    const mac::DynamicScenario& scenario = spec.scenario != nullptr ? *spec.scenario : generated;
    // One impairment realization per trial; fault clauses draw their
    // stations from this trial's scenario population.
    ImpairmentPlan plan;
    const ImpairmentPlan* plan_ptr = spec.sim.impairment;
    if (!spec.impairment.clean()) {
      plan = compile_impairment(spec.impairment, seed, spec.horizon, &scenario.stations());
      plan_ptr = &plan;
    }
    DynamicResult r = dispatch_dynamic(protocol, scenario, spec.sim.engine, plan_ptr,
                                       spec.sim.energy);
    if (obs::active()) {
      static const auto g_backlog = obs::Gauge::get("dynamic.peak_backlog");
      g_backlog.maximize(r.backlog);
    }
    return r;
  }
};

/// One cell in any model: a plain per-trial loop over the model's trial,
/// with the protocol hoisted per the seed contract, each result handed to
/// the sinks and the aggregator, and a 1-trial run's result kept in `single`.
template <class Model, class Result>
void run_trials(const RunSpec& spec, util::ThreadPool* pool, Aggregator& aggregator,
                Result& single) {
  const auto& build = Model::builder(spec);
  typename Model::Ptr owned;
  const typename Model::Protocol* protocol = Model::fixed(spec);
  if (protocol == nullptr) {
    owned = build(cell_protocol_seed(spec));
    protocol = owned.get();
  }
  // Randomized protocols differ per trial (private coins) — but only a
  // seeded builder can rebuild them; a fixed instance is shared as-is.
  const bool randomized = Model::randomized(*protocol) && static_cast<bool>(build);

  // An adversarial jam placement is resolved once per cell, here.
  const std::vector<mac::Slot> jam_slots = resolve_adversarial_jam(spec, *protocol);
  const std::vector<mac::Slot>* jam_override = jam_slots.empty() ? nullptr : &jam_slots;

  for_each_trial(spec.trials, pool, [&](std::size_t i) {
    const std::uint64_t seed = trial_seed(spec, i);
    const typename Model::Ptr rebuilt = randomized ? build(trial_protocol_seed(seed)) : nullptr;
    Result r = Model::trial(spec, rebuilt ? *rebuilt : *protocol, seed, jam_override);
    report(spec, i, r);
    aggregator.add(i, r);
    if (spec.trials == 1) single = std::move(r);
  });
}

}  // namespace

RunOutcome Run(const RunSpec& spec, util::ThreadPool* pool) {
  validate(spec);
  // Multi-trial specs parallelize on the process-wide shared pool when the
  // caller passes none; the pool nests, so this holds inside a pool task too.
  if (pool == nullptr && spec.trials > 1) pool = &util::ThreadPool::shared();
  RunOutcome out;
  out.dynamic_mode = spec.horizon > 0;
  out.trials_ = Aggregator(spec.trials, out.dynamic_mode);
  out.ci_seed_ = ci_seed(spec.base_seed, spec.cell_tag);
  if (out.dynamic_mode) {
    run_trials<DynamicTraffic>(spec, pool, out.trials_, out.dynamic);
  } else if (spec.mc_protocol != nullptr || spec.make_mc_protocol) {
    run_trials<MultiChannel>(spec, pool, out.trials_, out.sim);
  } else {
    run_trials<SingleChannel>(spec, pool, out.trials_, out.sim);
  }
  return out;
}

CellStats RunOutcome::cell(std::uint64_t ci_resamples) const {
  if (!obs::active()) return trials_.finalize(ci_resamples, ci_seed_);
  const auto start = std::chrono::steady_clock::now();
  CellStats stats = trials_.finalize(ci_resamples, ci_seed_);
  static const auto h_finalize = obs::Histogram::get("phase.finalize_us");
  h_finalize.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            start)
          .count()));
  return stats;
}

// Seed derivations — the documented RunSpec contract, stable since the
// pre-facade harness so historical sweep results stay reproducible.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell_tag, std::uint64_t trial) {
  return util::hash_words({base_seed, 0x5452ULL /* "TR" */, cell_tag, trial});
}

std::uint64_t cell_protocol_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x50524f544fULL /* "PROTO" */, cell_tag});
}

std::uint64_t ci_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x4349ULL /* "CI" */, cell_tag});
}

}  // namespace wakeup::sim
