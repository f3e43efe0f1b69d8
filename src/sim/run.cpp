#include "sim/run.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sim/batch_engine.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/results_sink.hpp"
#include "util/rng.hpp"

namespace wakeup::sim {

namespace {

/// Uncached probe trials per batched cell: they size the cache window,
/// the cost gate, and the adaptive warm-up from observed behavior.
constexpr std::uint64_t kProbeTrials = 4;

struct TrialOut {
  bool success = false;
  double rounds = 0;
  double collisions = 0;
  double silences = 0;
  bool completed = false;
  double completion = 0;
  bool has_energy = false;
  double energy_mean = 0;  ///< mean station energy of this trial
  double energy_max = 0;   ///< max station energy of this trial
};

/// Per-trial energy reduction shared by static and dynamic results.
void fold_energy(const std::vector<std::uint64_t>& station_energy, TrialOut& t) {
  if (station_energy.empty()) return;
  t.has_energy = true;
  double sum = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t e : station_energy) {
    sum += static_cast<double>(e);
    max = std::max(max, e);
  }
  t.energy_mean = sum / static_cast<double>(station_energy.size());
  t.energy_max = static_cast<double>(max);
}

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

CellResult aggregate(const RunSpec& spec, const std::vector<TrialOut>& outs) {
  util::Sample rounds, collisions, silences, completion, energy_mean, energy_max;
  CellResult result;
  result.trials = spec.trials;
  for (const TrialOut& out : outs) {
    // Energy is paid whether or not the trial reached wake-up — failed
    // trials burn the whole budget, which is exactly what an energy
    // measurement must see.
    if (out.has_energy) {
      energy_mean.push(out.energy_mean);
      energy_max.push(out.energy_max);
    }
    if (!out.success) {
      ++result.failures;
      continue;
    }
    rounds.push(out.rounds);
    collisions.push(out.collisions);
    silences.push(out.silences);
    if (out.completed) completion.push(out.completion);
  }
  result.rounds = util::Summary::of(rounds);
  result.collisions = util::Summary::of(collisions);
  result.silences = util::Summary::of(silences);
  result.completion = util::Summary::of(completion);
  result.energy_mean = util::Summary::of(energy_mean);
  result.energy_max = util::Summary::of(energy_max);
  return result;
}

void for_each_trial(std::uint64_t trials, util::ThreadPool* pool,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(0, trials, body);
  } else {
    for (std::size_t i = 0; i < trials; ++i) body(i);
  }
}

/// Slots a finished trial actually walked, from its own first wake: to
/// completion (full resolution), to the first success, or the whole budget
/// when the stop condition was never reached.
mac::Slot walked_slots(const SimConfig& sim, const mac::WakePattern& pattern, const TrialOut& t) {
  const bool stopped = sim.full_resolution ? t.completed : t.success;
  if (!stopped) return slot_budget(sim.max_slots, pattern);
  return static_cast<mac::Slot>(sim.full_resolution ? t.completion : t.rounds) + 1;
}

/// Adaptive warm-up: measure the schedule's per-word cost at the engine's
/// tile granularity and the protocol's interpreted slot cost on a sample
/// of `sample`'s arrivals, then pick the kAuto interpreted prefix (a small
/// menu of block multiples) minimizing the modeled cost of a
/// `mean_run`-slot trial.  Interpreted slots pay per slot; the batched
/// remainder pays one word per covered 64-slot block plus the tile-ramp
/// overshoot (the engine's tiles double 1 -> W, so a run buys at most
/// W - 1 words past its last live block — W/2 expected, the term below).
/// Replaces the static words_are_cheap() hint wherever probe trials are
/// available; results are bit-identical for any prefix, only the cost
/// profile moves.
mac::Slot calibrated_warmup(const proto::Protocol& protocol,
                            const proto::ObliviousSchedule& schedule,
                            const mac::WakePattern& sample, double mean_run) {
  if (sample.empty() || mean_run <= 0) return -1;
  const auto& arrivals = sample.arrivals();
  const std::size_t stations = std::min<std::size_t>(arrivals.size(), 16);
  using clock = std::chrono::steady_clock;
  const auto ns_between = [](clock::time_point a, clock::time_point b) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };

  const std::size_t tile = tile_words();  // measure at fetch granularity
  std::uint64_t sink = 0;
  const auto w0 = clock::now();
  for (std::size_t a = 0; a < stations; ++a) {
    std::uint64_t words[kMaxTileWords] = {};
    const mac::Slot from = arrivals[a].wake / 64 * 64;
    schedule.schedule_block(arrivals[a].station, arrivals[a].wake, from, words, tile);
    for (const std::uint64_t w : words) sink ^= w;
  }
  const double word_ns =
      ns_between(w0, clock::now()) / static_cast<double>(stations * tile);

  constexpr mac::Slot kProbeSlots = 256;
  const auto i0 = clock::now();
  for (std::size_t a = 0; a < stations; ++a) {
    auto runtime = protocol.make_runtime(arrivals[a].station, arrivals[a].wake);
    for (mac::Slot t = arrivals[a].wake; t < arrivals[a].wake + kProbeSlots; ++t) {
      sink += runtime->transmits(t) ? 1 : 0;
    }
  }
  const double interp_ns = ns_between(i0, clock::now()) /
                           static_cast<double>(stations * static_cast<std::size_t>(kProbeSlots));
  if (sink == 0x5a5a5a5a5a5a5a5aULL) return -1;  // keep the measured work alive

  const double overshoot = static_cast<double>(tile) / 2.0;  // ramp overshoot, expected
  mac::Slot best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const mac::Slot w : {mac::Slot{0}, mac::Slot{64}, mac::Slot{128}, mac::Slot{256},
                            mac::Slot{512}}) {
    const double batched = std::max(0.0, mean_run - static_cast<double>(w));
    const double interp_cost = std::min(mean_run, static_cast<double>(w)) * interp_ns;
    const double words = batched > 0 ? std::ceil(batched / 64.0) + overshoot : 0;
    const double cost = interp_cost + words * word_ns;
    if (cost < best_cost) {  // strict: ties keep the shorter prefix
      best = w;
      best_cost = cost;
    }
  }
  return best;
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

// -------------------------------------------------------- dynamic traffic --

/// Dynamic cells: a plain per-trial loop.  No schedule memo — post-delivery
/// head starts are as diverse as the traffic, so cross-trial word reuse is
/// gone and the engines fetch schedule blocks directly (the dynamic batch
/// engine's fill_row is the DirectWords path at tile granularity).  A trial
/// cannot fail: the horizon is the budget and every slot of it resolves, so
/// `failures` stays 0 by construction.
void run_dynamic(const RunSpec& spec, util::ThreadPool* pool, RunOutcome& out) {
  proto::ProtocolPtr owned;
  const proto::Protocol* protocol = spec.protocol;
  if (protocol == nullptr) {
    owned = spec.make_protocol(cell_protocol_seed(spec));
    protocol = owned.get();
  }
  const bool randomized =
      protocol->requirements().randomized && static_cast<bool>(spec.make_protocol);

  std::vector<DynamicResult> results(spec.trials);
  for_each_trial(spec.trials, pool, [&](std::size_t i) {
    const std::uint64_t seed = trial_seed(spec, i);
    util::Rng rng(seed);
    // Generated scenarios draw from the trial stream exactly where a wake
    // pattern would, so (base_seed, cell_tag, i) pins the traffic.
    mac::DynamicScenario generated;
    if (spec.scenario == nullptr) {
      generated = mac::arrivals::generate(spec.arrival, spec.dynamic_n, spec.dynamic_k,
                                          spec.horizon, rng);
    }
    const mac::DynamicScenario& scenario =
        spec.scenario != nullptr ? *spec.scenario : generated;
    const proto::ProtocolPtr rebuilt =
        randomized ? spec.make_protocol(trial_protocol_seed(seed)) : nullptr;
    // One impairment realization per trial; fault clauses draw their
    // stations from this trial's scenario population.
    ImpairmentPlan plan;
    const ImpairmentPlan* plan_ptr = spec.sim.impairment;
    if (!spec.impairment.clean()) {
      plan = compile_impairment(spec.impairment, seed, spec.horizon, &scenario.stations());
      plan_ptr = &plan;
    }
    DynamicResult r = dispatch_dynamic(rebuilt ? *rebuilt : *protocol, scenario,
                                       spec.sim.engine, plan_ptr, spec.sim.energy);
    if (spec.per_trial_dynamic) spec.per_trial_dynamic(i, r);
    results[i] = std::move(r);
  });

  util::Sample throughput, jain, collisions, silences, latency, energy_mean, energy_max;
  std::uint64_t peak_backlog = 0;
  CellResult& cell = out.cell;
  cell.trials = spec.trials;
  for (const DynamicResult& r : results) {
    throughput.push(r.throughput());
    jain.push(r.jain());
    collisions.push(static_cast<double>(r.collisions));
    silences.push(static_cast<double>(r.silences));
    for (const double l : r.latency) latency.push(l);
    cell.packet_arrivals += r.arrivals;
    cell.delivered += r.delivered;
    cell.backlog += r.backlog;
    peak_backlog = std::max(peak_backlog, r.backlog);
    TrialOut e;
    fold_energy(r.station_energy, e);
    if (e.has_energy) {
      energy_mean.push(e.energy_mean);
      energy_max.push(e.energy_max);
    }
  }
  cell.throughput = util::Summary::of(throughput);
  cell.jain = util::Summary::of(jain);
  cell.collisions = util::Summary::of(collisions);
  cell.silences = util::Summary::of(silences);
  cell.latency = util::Summary::of(latency);
  cell.energy_mean = util::Summary::of(energy_mean);
  cell.energy_max = util::Summary::of(energy_max);
  if (obs::active()) obs::Gauge::get("dynamic.peak_backlog").maximize(peak_backlog);
  if (spec.trials == 1) out.dynamic = std::move(results.front());
}

// ------------------------------------------- shared sweep-cell plumbing --

/// Per-trial patterns of a cell: pre-generated from the trial streams when
/// a builder is given (the cache census needs them all up front), one
/// shared fixed pattern otherwise.
class CellPatterns {
 public:
  explicit CellPatterns(const RunSpec& spec) : spec_(spec) {
    if (spec.make_pattern) {
      generated_.reserve(spec.trials);
      for (std::uint64_t i = 0; i < spec.trials; ++i) {
        util::Rng rng(trial_seed(spec, i));
        generated_.push_back(spec.make_pattern(rng));
      }
    }
  }
  const mac::WakePattern& operator[](std::uint64_t i) const {
    return spec_.make_pattern ? generated_[i] : *spec_.pattern;
  }

 private:
  const RunSpec& spec_;
  std::vector<mac::WakePattern> generated_;
};

struct ProbeStats {
  std::uint64_t probes = 0;
  mac::Slot observed = 0;  ///< longest probe trial, in walked slots
  mac::Slot horizon = 0;   ///< exclusive slot bound any trial may reach
  double mean_run = 0;     ///< mean walked slots over the probes
};

/// Runs the first few trials uncached to observe real trial lengths
/// (their results are kept — engines are bit-identical).  `run_probe(i)`
/// executes and records trial i, returning its walked slots.
template <class RunProbe>
ProbeStats run_probe_trials(const RunSpec& spec, const CellPatterns& patterns,
                            std::uint64_t probe_cap, RunProbe&& run_probe) {
  ProbeStats stats;
  stats.probes = std::min<std::uint64_t>(spec.trials, probe_cap);
  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    const mac::WakePattern& p = patterns[i];
    if (p.empty()) continue;
    const mac::Slot budget = slot_budget(spec.sim.max_slots, p);
    stats.horizon = std::max<mac::Slot>(stats.horizon, p.first_wake() + budget);
  }
  double run_slots_sum = 0;
  for (std::uint64_t i = 0; i < stats.probes; ++i) {
    const mac::Slot run_slots = run_probe(i);
    stats.observed = std::max<mac::Slot>(stats.observed, run_slots);
    run_slots_sum += static_cast<double>(run_slots);
  }
  if (stats.probes > 0) stats.mean_run = run_slots_sum / static_cast<double>(stats.probes);
  return stats;
}

/// Cache sizing from the probes: window shrunk to a multiple of observed
/// trial lengths instead of the (deliberately generous) failure budget.
ScheduleCache::Config sized_cache_config(const RunSpec& spec, const ProbeStats& stats) {
  ScheduleCache::Config config = spec.cache;
  config.horizon = stats.horizon;
  config.window = std::clamp<mac::Slot>(2 * stats.observed, 256,
                                        std::max<mac::Slot>(spec.cache.window, 256));
  if (config.contended_prefix == 0) {
    // Contended-prefix policy: contention (>= 2 live stations) resolves
    // within roughly the observed probe runs, so 8x that covers the slots
    // with cross-trial reuse while the long solo tail falls back to the
    // implicit generators.  A caller-set value passes through unchanged.
    const mac::Slot cap = stats.horizon > 0 ? stats.horizon : std::numeric_limits<mac::Slot>::max();
    config.contended_prefix =
        std::clamp<mac::Slot>(8 * stats.observed, 4096, std::max<mac::Slot>(cap, 4096));
  }
  return config;
}

/// Probe count for a batched cell.  kForce promises the memo is always
/// populated AND served, so forced cells cap the probes below the trial
/// count (down to zero for a 1-trial cell) — every left-over trial reads
/// the cache.  Unforced cells just probe the first few.
std::uint64_t probe_cap_for(const RunSpec& spec, bool force) {
  if (!force) return kProbeTrials;
  if (spec.trials == 0) return 0;
  return std::min<std::uint64_t>(kProbeTrials, spec.trials - 1);
}

/// Census + shape planning + the population cost gate: filling the memo
/// walks planned_words * 64 schedule slots once; running uncached walks
/// roughly one word per station per live block, per trial.  Returns true
/// when the trials themselves are the cheaper walk (low cross-trial reuse
/// — huge universes, scattered wake classes, short runs) and the fill
/// should be skipped.
bool plan_census_gate_declines(ScheduleCache& cache, const RunSpec& spec,
                               const CellPatterns& patterns, bool force,
                               const ProbeStats& stats) {
  std::vector<std::pair<mac::StationId, mac::Slot>> members;
  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    for (const mac::Arrival& a : patterns[i].arrivals()) {
      members.emplace_back(a.station, a.wake);
    }
  }
  const std::size_t planned_words = cache.plan_members(members);
  const double direct_words = static_cast<double>(members.size()) * stats.mean_run / 64.0;
  return !force && static_cast<double>(planned_words) > direct_words;
}

// ------------------------------------------------ static channel models --

/// The single-channel model of a static cell: the paper's one shared
/// channel, with the interpreted warm-up hybrid, full resolution and
/// energy accounting.
struct SingleChannel {
  using Protocol = proto::Protocol;
  using Ptr = proto::ProtocolPtr;

  static const Protocol* fixed(const RunSpec& spec) { return spec.protocol; }
  static const auto& builder(const RunSpec& spec) { return spec.make_protocol; }
  static bool randomized(const Protocol& protocol) {
    return protocol.requirements().randomized;
  }
  static bool batches(const Protocol& protocol, const SimConfig& sim) {
    return batch_engine_supports(protocol, sim);
  }
  /// Census decline: the kAuto warm-up prefix is re-sized from the probes'
  /// measured schedule-word cost.
  static SimConfig declined_config(const RunSpec& spec, const Protocol& protocol,
                                   const mac::WakePattern& sample, const ProbeStats& stats) {
    SimConfig rest = spec.sim;
    if (rest.engine == Engine::kAuto && rest.warmup_slots < 0 && !rest.full_resolution) {
      rest.warmup_slots =
          calibrated_warmup(protocol, *protocol.oblivious_schedule(), sample, stats.mean_run);
      if (obs::active() && rest.warmup_slots >= 0) {
        obs::Histogram::get("run.warmup_slots")
            .observe(static_cast<std::uint64_t>(rest.warmup_slots));
      }
    }
    return rest;
  }
};

/// The C-channel model of a static cell.  Adapters already ride the
/// single-channel engine stack through the dispatch fast path, so the
/// C-lane memo is for native strategies only.
struct MultiChannel {
  using Protocol = proto::McProtocol;
  using Ptr = proto::McProtocolPtr;

  static const Protocol* fixed(const RunSpec& spec) { return spec.mc_protocol; }
  static const auto& builder(const RunSpec& spec) { return spec.make_mc_protocol; }
  static bool randomized(const Protocol& protocol) { return protocol.randomized(); }
  static bool batches(const Protocol& protocol, const SimConfig& sim) {
    return protocol.single_channel() == nullptr && batch_engine_supports(protocol, sim);
  }
  /// Census decline: the C-channel model has no interpreted warm-up hybrid,
  /// so kAuto's probe-informed counterpart lives here — when trials end
  /// well inside the first block, one expensive schedule word per station
  /// costs more than interpreting the few live slots, so the rest run on
  /// the slot loop (the engines are bit-identical, only the cost profile
  /// moves).
  static SimConfig declined_config(const RunSpec& spec, const Protocol& /*protocol*/,
                                   const mac::WakePattern& /*sample*/,
                                   const ProbeStats& stats) {
    SimConfig rest = spec.sim;
    if (rest.engine == Engine::kAuto && stats.mean_run < 32) rest.engine = Engine::kInterpreter;
    return rest;
  }
};

/// One static sweep cell in either channel model: a plain per-trial loop,
/// or — when the cell is cacheable — probe trials, the cache census gate,
/// the memo fill and the cached trial loop.
template <class Model>
void run_static(const RunSpec& spec, util::ThreadPool* pool, RunOutcome& out) {
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

  std::vector<TrialOut> outs(spec.trials);
  const auto record = [&](std::uint64_t i, const SimResult& r) {
    TrialOut& t = outs[i];
    t.success = r.success;
    t.rounds = static_cast<double>(r.rounds);
    t.collisions = static_cast<double>(r.collisions);
    t.silences = static_cast<double>(r.silences);
    t.completed = r.completed;
    t.completion = static_cast<double>(r.completion_rounds);
    fold_energy(r.station_energy, t);
    if (spec.trials == 1) out.sim = r;
    if (spec.per_trial) spec.per_trial(i, r);
    if (spec.per_trial_mc) spec.per_trial_mc(i, r);
    if (spec.trial_csv != nullptr) spec.trial_csv->write(i, r);
  };

  const proto::ObliviousSchedule* schedule = protocol->oblivious_schedule();
  const bool force = spec.batching == TrialBatching::kForce;
  // Same cost model as the kAuto dispatch: cheap-word schedules (strided
  // bits) recompute faster than a memo can be populated; the cache earns
  // its keep on table-, family- and hash-walking schedules.  Cells with no
  // trials beyond the probes (single runs especially) have nothing to
  // serve from a memo — planning one would be pure overhead.
  const bool cacheable = spec.batching != TrialBatching::kOff && !randomized &&
                         (spec.trials > kProbeTrials || force) &&
                         Model::batches(*protocol, spec.sim) &&
                         (!schedule->words_are_cheap() || force) &&
                         spec.sim.engine != Engine::kInterpreter;

  // Impaired cells compile one plan per trial (and resolve an adversarial
  // jam placement once, here); clean cells touch none of this — their
  // trial configs are spec.sim verbatim.
  const bool impaired = !spec.impairment.clean();
  const std::vector<mac::Slot> jam_slots =
      impaired ? resolve_adversarial_jam(spec, *protocol) : std::vector<mac::Slot>{};
  const std::vector<mac::Slot>* jam_override = jam_slots.empty() ? nullptr : &jam_slots;
  const auto trial_config = [&](std::uint64_t i, const mac::WakePattern& pattern,
                                const SimConfig& base, ImpairmentPlan& plan) {
    SimConfig cfg = base;
    if (impaired) {
      plan = compile_static_plan(spec, trial_seed(spec, i), pattern, jam_override);
      cfg.impairment = &plan;
    }
    return cfg;
  };

  if (!cacheable) {
    // Plain per-trial loop (protocol hoisted per the seed contract).
    for_each_trial(spec.trials, pool, [&](std::size_t i) {
      const std::uint64_t seed = trial_seed(spec, i);
      util::Rng rng(seed);
      mac::WakePattern generated;
      if (spec.make_pattern) generated = spec.make_pattern(rng);
      const mac::WakePattern& pattern = spec.make_pattern ? generated : *spec.pattern;
      const typename Model::Ptr rebuilt =
          randomized ? build(trial_protocol_seed(seed)) : nullptr;
      ImpairmentPlan plan;
      const SimConfig cfg = trial_config(i, pattern, spec.sim, plan);
      record(i, dispatch_wakeup(rebuilt ? *rebuilt : *protocol, pattern, cfg));
    });
    out.cell = aggregate(spec, outs);
    return;
  }

  // Patterns up front: they are cheap relative to simulation, and the
  // cache needs the full (station, wake) census before going read-only.
  const CellPatterns patterns(spec);
  const ProbeStats stats = run_probe_trials(spec, patterns, probe_cap_for(spec, force),
                                            [&](std::uint64_t i) {
    ImpairmentPlan plan;
    const SimConfig cfg = trial_config(i, patterns[i], spec.sim, plan);
    record(i, dispatch_wakeup(*protocol, patterns[i], cfg));
    return walked_slots(spec.sim, patterns[i], outs[i]);
  });

  ScheduleCache cache(*schedule, sized_cache_config(spec, stats));
  const bool declined = plan_census_gate_declines(cache, spec, patterns, force, stats);
  SimConfig rest = spec.sim;
  if (declined) {
    // Gate declined the memo: run the trial loop on the model's engines,
    // re-tuned from the probes.
    if (obs::active()) obs::Counter::get("cache.census_declines").inc();
    rest = Model::declined_config(spec, *protocol, patterns[0], stats);
  } else {
    cache.fill_planned(pool);
  }
  for_each_trial(spec.trials - stats.probes, pool, [&](std::size_t j) {
    const std::size_t i = j + stats.probes;
    ImpairmentPlan plan;
    const SimConfig cfg = trial_config(i, patterns[i], rest, plan);
    record(i, declined ? dispatch_wakeup(*protocol, patterns[i], cfg)
                       : run_wakeup_batch_cached(*protocol, cache, patterns[i], cfg));
  });
  out.cell = aggregate(spec, outs);
}

}  // namespace

RunOutcome Run(const RunSpec& spec, util::ThreadPool* pool) {
  validate(spec);
  // Multi-trial specs parallelize on the process-wide shared pool when the
  // caller passes none — unless this thread already *is* a pool worker
  // (nested Run inside a trial), where queueing on the same pool could
  // deadlock; those run inline, preserving the determinism contract.
  if (pool == nullptr && spec.trials > 1 && util::ThreadPool::current() == nullptr) {
    pool = &util::ThreadPool::shared();
  }
  RunOutcome out;
  out.dynamic_mode = spec.horizon > 0;
  if (out.dynamic_mode) {
    run_dynamic(spec, pool, out);
  } else if (spec.mc_protocol != nullptr || spec.make_mc_protocol) {
    run_static<MultiChannel>(spec, pool, out);
  } else {
    run_static<SingleChannel>(spec, pool, out);
  }
  return out;
}

// Seed derivations — the documented RunSpec contract, stable since the
// pre-facade harness so historical sweep results stay reproducible.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell_tag, std::uint64_t trial) {
  return util::hash_words({base_seed, 0x5452ULL /* "TR" */, cell_tag, trial});
}

std::uint64_t cell_protocol_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x50524f544fULL /* "PROTO" */, cell_tag});
}

}  // namespace wakeup::sim
