/// Dynamic-traffic layer: arrival-spec grammar round-trips, scenario
/// generation determinism, queue-conservation invariants, and — the heart
/// of the file — bit-identity of the word loop against the slot loop under
/// dynamic traffic across protocols × arrival kinds, plus the identity the
/// shared engines rest on:
/// static full resolution is single-shot dynamic traffic drained.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "protocols/registry.hpp"
#include "sim/batch_engine.hpp"
#include "sim/dynamic.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wakeup/wakeup.hpp"

namespace wu = wakeup;
using wu::mac::ArrivalKind;
using wu::mac::ArrivalSpec;
using wu::mac::DynamicScenario;

namespace {

wu::proto::ProtocolPtr make_named(const std::string& name, std::uint32_t n, std::uint32_t k,
                                  std::uint64_t seed) {
  wu::proto::ProtocolSpec spec;
  spec.name = name;
  spec.n = n;
  spec.k = k;
  spec.seed = seed;
  return wu::proto::make_protocol_by_name(spec);
}

DynamicScenario make_scenario(const ArrivalSpec& spec, std::uint32_t n, std::uint32_t k,
                              wu::mac::Slot horizon, std::uint64_t seed) {
  wu::util::Rng rng(seed);
  return wu::mac::arrivals::generate(spec, n, k, horizon, rng);
}

std::vector<ArrivalSpec> generator_kinds() {
  return {
      ArrivalSpec::parse("poisson:0.3"),
      ArrivalSpec::parse("bursty:0.5:0.05"),
      ArrivalSpec::parse("pareto:1.5:0.2"),
  };
}

void expect_identical(const wu::sim::DynamicResult& a, const wu::sim::DynamicResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.horizon, b.horizon) << label;
  EXPECT_EQ(a.arrivals, b.arrivals) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.backlog, b.backlog) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.stations, b.stations) << label;
  EXPECT_EQ(a.delivered_per_station, b.delivered_per_station) << label;
  EXPECT_EQ(a.latency, b.latency) << label;  // delivery order, not just multiset
}

void expect_invariants(const wu::sim::DynamicResult& r, const DynamicScenario& scenario,
                       const std::string& label) {
  // Every slot of the horizon resolves exactly once.
  EXPECT_EQ(r.silences + r.collisions + r.delivered,
            static_cast<std::uint64_t>(r.horizon))
      << label;
  // Queue conservation: nothing is created or lost.
  EXPECT_EQ(r.arrivals, static_cast<std::uint64_t>(scenario.packets_total())) << label;
  EXPECT_EQ(r.arrivals, r.delivered + r.backlog) << label;
  std::uint64_t per_station = 0;
  for (const std::uint64_t d : r.delivered_per_station) per_station += d;
  EXPECT_EQ(per_station, r.delivered) << label;
  EXPECT_EQ(r.latency.size(), r.delivered) << label;
  for (const double l : r.latency) EXPECT_GE(l, 1.0) << label;
}

// ---------------------------------------------------------- arrival specs --

TEST(ArrivalSpec, ParseNameRoundTrip) {
  for (const char* text :
       {"poisson:0.1", "poisson:0.25", "bursty:0.5:0.05", "pareto:1.5:0.1", "replay"}) {
    const ArrivalSpec spec = ArrivalSpec::parse(text);
    EXPECT_EQ(spec.name(), text);
    EXPECT_EQ(ArrivalSpec::parse(spec.name()), spec);
  }
}

TEST(ArrivalSpec, ParseRejectsMalformedSpecs) {
  for (const char* text : {"", "poisson", "poisson:0", "poisson:-0.1", "poisson:abc",
                           "bursty:0.5", "bursty:0.5:0", "bursty:0.5:1.5", "pareto:1.0",
                           "pareto:0.5", "uniform:0.1", "poisson:0.1:0.2"}) {
    EXPECT_THROW((void)ArrivalSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(ArrivalAxis, ParsesCommaSeparatedSpecsAndRejectsReplay) {
  const auto axis = wu::exp::parse_arrival_axis("poisson:0.1,bursty:0.5:0.05,pareto:1.5");
  ASSERT_EQ(axis.size(), 3u);
  EXPECT_EQ(axis[0].kind, ArrivalKind::kPoisson);
  EXPECT_EQ(axis[1].kind, ArrivalKind::kBursty);
  EXPECT_EQ(axis[2].kind, ArrivalKind::kPareto);
  EXPECT_THROW((void)wu::exp::parse_arrival_axis("poisson:0.1,replay"), std::invalid_argument);
}

// ------------------------------------------------------ scenario generation --

TEST(ArrivalGeneration, DeterministicPerSeedAndSensitiveToSeed) {
  for (const ArrivalSpec& spec : generator_kinds()) {
    const DynamicScenario a = make_scenario(spec, 256, 16, 1024, 7);
    const DynamicScenario b = make_scenario(spec, 256, 16, 1024, 7);
    const DynamicScenario c = make_scenario(spec, 256, 16, 1024, 8);
    EXPECT_EQ(a.packets(), b.packets()) << spec.name();
    EXPECT_NE(a.packets(), c.packets()) << spec.name();
    // stations() lists stations with >= 1 realized packet — at most the k drawn.
    EXPECT_GE(a.stations().size(), 1u) << spec.name();
    EXPECT_LE(a.stations().size(), 16u) << spec.name();
    for (const wu::mac::Arrival& p : a.packets()) {
      EXPECT_LT(p.station, 256u) << spec.name();
      EXPECT_GE(p.wake, 0) << spec.name();
      EXPECT_LT(p.wake, 1024) << spec.name();
    }
  }
}

TEST(ArrivalGeneration, PoissonRealizesRoughlyTheOfferedLoad) {
  const DynamicScenario s =
      make_scenario(ArrivalSpec::parse("poisson:0.5"), 512, 32, 8192, 11);
  // 0.5 packets/slot over 8192 slots: expect ~4096 packets, generously
  // bracketed (Bernoulli thinning keeps the mean exact).
  EXPECT_GT(s.packets_total(), 3200u);
  EXPECT_LT(s.packets_total(), 5100u);
}

TEST(ArrivalGeneration, ReplayKindThrows) {
  wu::util::Rng rng(1);
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kReplay;
  EXPECT_THROW((void)wu::mac::arrivals::generate(spec, 64, 4, 128, rng),
               std::invalid_argument);
}

TEST(DynamicScenario, ValidatesAndSortsPackets) {
  std::vector<wu::mac::Arrival> packets = {{3, 9}, {1, 4}, {3, 4}, {1, 0}};
  const DynamicScenario s(8, 16, packets);
  EXPECT_EQ(s.packets_total(), 4u);
  EXPECT_TRUE(std::is_sorted(s.packets().begin(), s.packets().end(),
                             [](const wu::mac::Arrival& a, const wu::mac::Arrival& b) {
                               return a.wake != b.wake ? a.wake < b.wake
                                                      : a.station < b.station;
                             }));
  EXPECT_EQ(s.stations(), (std::vector<wu::mac::StationId>{1, 3}));
  EXPECT_THROW(DynamicScenario(8, 16, {{9, 0}}), std::invalid_argument);   // station >= n
  EXPECT_THROW(DynamicScenario(8, 16, {{1, 16}}), std::invalid_argument);  // slot >= horizon
  EXPECT_THROW(DynamicScenario(8, 0, {}), std::invalid_argument);          // horizon
}

// ------------------------------------------------------- engine bit-identity --

TEST(DynamicEngine, BatchMatchesInterpreterAcrossProtocolsAndArrivals) {
  for (const std::string& name : {std::string("round_robin"), std::string("wakeup_with_k"),
                                  std::string("wakeup_matrix"), std::string("wait_and_go")}) {
    const auto protocol = make_named(name, 128, 8, 5);
    ASSERT_TRUE(wu::sim::batch_engine_supports(*protocol, {})) << name;
    for (const ArrivalSpec& spec : generator_kinds()) {
      std::uint64_t seed = 100;
      const DynamicScenario scenario = make_scenario(spec, 128, 8, 700, ++seed);
      const auto reference =
          wu::sim::dispatch_dynamic(*protocol, scenario, wu::sim::Engine::kInterpreter);
      expect_invariants(reference, scenario, name + "/" + spec.name());
      expect_identical(reference,
                       wu::sim::dispatch_dynamic(*protocol, scenario, wu::sim::Engine::kBatch),
                       name + "/" + spec.name());
    }
  }
}

TEST(DynamicEngine, EmptyAndSinglePacketScenarios) {
  const auto protocol = make_named("round_robin", 32, 4, 1);
  const DynamicScenario empty(32, 64, {});
  const auto r0 = wu::sim::dispatch_dynamic(*protocol, empty);
  EXPECT_EQ(r0.delivered, 0u);
  EXPECT_EQ(r0.silences, 64u);
  EXPECT_EQ(r0.jain(), 1.0);
  expect_identical(wu::sim::dispatch_dynamic(*protocol, empty, wu::sim::Engine::kInterpreter),
                   wu::sim::dispatch_dynamic(*protocol, empty, wu::sim::Engine::kBatch), "empty");

  const DynamicScenario one(32, 64, {{5, 10}});
  const auto r1 = wu::sim::dispatch_dynamic(*protocol, one);
  EXPECT_EQ(r1.delivered, 1u);
  ASSERT_EQ(r1.latency.size(), 1u);
  EXPECT_GE(r1.latency[0], 1.0);
  expect_identical(wu::sim::dispatch_dynamic(*protocol, one, wu::sim::Engine::kInterpreter),
                   wu::sim::dispatch_dynamic(*protocol, one, wu::sim::Engine::kBatch), "one");
}

TEST(DynamicEngine, SaturatedSingleStationDrainsBackToBack) {
  // One station, a burst of 10 packets at slot 0: with no contention every
  // head-of-line packet is delivered at its first scheduled transmission.
  const auto protocol = make_named("round_robin", 16, 1, 1);
  std::vector<wu::mac::Arrival> burst(10, {3, 0});
  const DynamicScenario scenario(16, 16 * 10 + 8, burst);
  const auto r = wu::sim::dispatch_dynamic(*protocol, scenario);
  EXPECT_EQ(r.delivered, 10u);
  EXPECT_EQ(r.collisions, 0u);
  expect_invariants(r, scenario, "saturated");
  expect_identical(wu::sim::dispatch_dynamic(*protocol, scenario, wu::sim::Engine::kInterpreter),
                   r, "saturated");
}

TEST(DynamicEngine, StaticFullResolutionIsSingleShotDynamicTraffic) {
  // The paper's stations contend once each: a static full-resolution run
  // is the one-packet-per-station scenario drained.  Under
  // listen:until_woken both charge a station from its wake (contention
  // start) through its delivery, so every per-packet re-contender must
  // agree station by station on every engine.
  constexpr std::uint32_t n = 128;
  constexpr std::uint32_t k = 8;
  std::size_t compared = 0;
  for (const std::string& name : wu::proto::protocol_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = n;
    spec.k = k;
    spec.s = 0;
    spec.seed = 5;
    wu::proto::ProtocolPtr protocol;
    try {
      protocol = wu::proto::make_protocol_by_name(spec);
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (protocol->make_dynamic_station(0) != nullptr) continue;  // carries state across packets
    ++compared;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      wu::util::Rng rng(seed);
      const wu::mac::WakePattern pattern =
          seed % 3 == 0   ? wu::mac::patterns::simultaneous(n, k, 0, rng)
          : seed % 3 == 1 ? wu::mac::patterns::staggered(n, k, 0, 5, rng)
                          : wu::mac::patterns::poisson(n, k, 0, 12.0, rng);
      wu::sim::SimConfig config;
      config.full_resolution = true;
      config.energy = wu::sim::EnergyModel::kListenUntilWoken;
      const wu::mac::Slot horizon =
          pattern.first_wake() + wu::sim::slot_budget(config.max_slots, pattern);
      const DynamicScenario scenario = DynamicScenario::single_shot(pattern, horizon);
      for (const auto engine : {wu::sim::Engine::kInterpreter, wu::sim::Engine::kBatch}) {
        config.engine = engine;
        if (engine == wu::sim::Engine::kBatch &&
            !wu::sim::batch_engine_supports(*protocol, config)) {
          continue;
        }
        const std::string label = name + "/seed=" + std::to_string(seed) +
                                  "/engine=" + std::to_string(static_cast<int>(engine));
        const wu::sim::SimResult once = wu::sim::dispatch_wakeup(*protocol, pattern, config);
        const wu::sim::DynamicResult queued = wu::sim::dispatch_dynamic(
            *protocol, scenario, engine, nullptr, config.energy);
        EXPECT_EQ(once.successes, queued.delivered) << label;
        EXPECT_EQ(once.completed, queued.backlog == 0) << label;
        ASSERT_EQ(once.station_energy.size(), pattern.k()) << label;
        ASSERT_EQ(queued.station_energy.size(), queued.stations.size()) << label;
        ASSERT_EQ(queued.stations.size(), pattern.k()) << label;
        for (std::size_t i = 0; i < pattern.k(); ++i) {
          const wu::mac::StationId id = pattern.arrivals()[i].station;
          const auto at = std::lower_bound(queued.stations.begin(), queued.stations.end(), id);
          ASSERT_TRUE(at != queued.stations.end() && *at == id) << label;
          const auto j = static_cast<std::size_t>(at - queued.stations.begin());
          EXPECT_EQ(once.station_energy[i], queued.station_energy[j])
              << label << " station " << id;
          EXPECT_EQ(once.station_transmits[i], queued.station_transmits[j])
              << label << " station " << id;
        }
      }
    }
  }
  EXPECT_GE(compared, 8u);
}

TEST(DynamicEngine, InterpreterServesAdaptiveRecontenders) {
  for (const std::string& name :
       {std::string("binary_backoff"), std::string("slotted_aloha"),
        std::string("adaptive_cw")}) {
    const auto protocol = make_named(name, 64, 8, 17);
    EXPECT_FALSE(wu::sim::batch_engine_supports(*protocol, {})) << name;
    const DynamicScenario scenario =
        make_scenario(ArrivalSpec::parse("poisson:0.3"), 64, 8, 600, 23);
    const auto r = wu::sim::dispatch_dynamic(*protocol, scenario, wu::sim::Engine::kInterpreter);
    expect_invariants(r, scenario, name);
    EXPECT_GT(r.delivered, 0u) << name;
    // kAuto falls back to the interpreter; kBatch refuses.
    expect_identical(wu::sim::dispatch_dynamic(*protocol, scenario), r, name);
    EXPECT_THROW((void)wu::sim::dispatch_dynamic(*protocol, scenario, wu::sim::Engine::kBatch),
                 std::invalid_argument)
        << name;
  }
}

// ----------------------------------------------------------- Run facade --

TEST(DynamicRun, SeedContractAndThreadCountDeterminism) {
  wu::sim::RunSpec spec;
  spec.make_protocol = [](std::uint64_t seed) { return make_named("wakeup_with_k", 128, 8, seed); };
  spec.horizon = 512;
  spec.arrival = ArrivalSpec::parse("poisson:0.4");
  spec.dynamic_n = 128;
  spec.dynamic_k = 8;
  spec.trials = 8;
  spec.base_seed = 42;
  spec.cell_tag = 99;

  std::vector<wu::sim::DynamicResult> inline_trials(spec.trials);
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    inline_trials[i] = r;
  };
  wu::util::ThreadPool inline_pool(0);
  const auto inline_out = wu::sim::Run(spec, &inline_pool);

  std::vector<wu::sim::DynamicResult> pooled_trials(spec.trials);
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    pooled_trials[i] = r;
  };
  wu::util::ThreadPool pool(4);
  const auto pooled_out = wu::sim::Run(spec, &pool);

  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    expect_identical(inline_trials[i], pooled_trials[i], "trial " + std::to_string(i));
  }
  EXPECT_TRUE(inline_out.dynamic_mode);
  const auto inline_cell = inline_out.cell();
  const auto pooled_cell = pooled_out.cell();
  EXPECT_EQ(inline_cell.failures, 0u);
  EXPECT_EQ(inline_cell.throughput.mean, pooled_cell.throughput.mean);
  EXPECT_EQ(inline_cell.jain.mean, pooled_cell.jain.mean);
  EXPECT_EQ(inline_cell.latency.p99, pooled_cell.latency.p99);
  EXPECT_EQ(inline_cell.packet_arrivals, pooled_cell.packet_arrivals);

  // Same (base_seed, cell_tag) => same traffic, trial by trial.
  std::vector<wu::sim::DynamicResult> again(spec.trials);
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    again[i] = r;
  };
  const auto rerun = wu::sim::Run(spec, &inline_pool);
  (void)rerun;
  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    expect_identical(inline_trials[i], again[i], "rerun trial " + std::to_string(i));
  }
}

TEST(DynamicRun, FixedScenarioReplayAndValidation) {
  const auto protocol = make_named("round_robin", 32, 4, 1);
  const DynamicScenario scenario(32, 128, {{2, 0}, {7, 3}, {2, 50}});
  wu::sim::RunSpec spec;
  spec.protocol = protocol.get();
  spec.horizon = scenario.horizon();
  spec.scenario = &scenario;
  const auto out = wu::sim::Run(spec);
  EXPECT_TRUE(out.dynamic_mode);
  EXPECT_EQ(out.dynamic.arrivals, 3u);
  EXPECT_EQ(out.dynamic.delivered, 3u);
  EXPECT_EQ(out.cell().packet_arrivals, 3u);

  // Dynamic specs reject pattern sources, mc protocols, and static sinks.
  {
    wu::sim::RunSpec bad = spec;
    wu::mac::WakePattern pattern(32, {{2, 0}});
    bad.pattern = &pattern;
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
  {
    wu::sim::RunSpec bad = spec;
    bad.per_trial = [](std::uint64_t, const wu::sim::SimResult&) {};
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
  {
    wu::sim::RunSpec bad = spec;
    bad.scenario = nullptr;  // neither scenario nor generator parameters
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
  {
    // Static specs reject dynamic-only fields.
    wu::sim::RunSpec bad;
    bad.protocol = protocol.get();
    wu::mac::WakePattern pattern(32, {{2, 0}});
    bad.pattern = &pattern;
    bad.per_trial_dynamic = [](std::uint64_t, const wu::sim::DynamicResult&) {};
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
}

// ------------------------------------------------- capabilities and grids --

TEST(DynamicCapability, MarksPerPacketRecontenders) {
  // Dynamic = no start-time knowledge, no collision detection.
  for (const char* name : {"round_robin", "wakeup_with_k", "wakeup_matrix", "slotted_aloha",
                           "binary_backoff", "adaptive_cw", "rpd_n", "local_doubling"}) {
    EXPECT_TRUE(wu::proto::protocol_capabilities(name).dynamic) << name;
  }
  for (const char* name : {"wakeup_with_s", "select_among_the_first", "tree_splitting"}) {
    EXPECT_FALSE(wu::proto::protocol_capabilities(name).dynamic) << name;
  }
}

TEST(DynamicGrid, ExpandsArrivalAxisWithTaggedCells) {
  wu::exp::SweepSpec spec;
  spec.protocols = {"round_robin", "adaptive_cw"};
  spec.ns = {64};
  spec.ks = {8};
  spec.arrivals = wu::exp::parse_arrival_axis("poisson:0.2,bursty:0.5:0.1");
  spec.horizon = 256;
  spec.trials = 4;
  const auto cells = wu::exp::expand(spec);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.dynamic);
    EXPECT_EQ(cell.horizon, 256);
    EXPECT_NE(cell.tag.find(",arrival=" + cell.arrival.name() + ",horizon=256"),
              std::string::npos)
        << cell.tag;
  }
  // Static tags stay pre-dynamic byte-identical (no arrival suffix).
  wu::exp::SweepSpec static_spec;
  static_spec.protocols = {"round_robin"};
  static_spec.ns = {64};
  static_spec.ks = {8};
  const auto static_cells = wu::exp::expand(static_spec);
  ASSERT_EQ(static_cells.size(), 1u);
  EXPECT_EQ(static_cells[0].tag.find("arrival"), std::string::npos);
}

TEST(DynamicGrid, RejectsStaticOnlyProtocolsAndBadCombos) {
  wu::exp::SweepSpec spec;
  spec.protocols = {"wakeup_with_s"};
  spec.ns = {64};
  spec.ks = {8};
  spec.s = 0;
  spec.arrivals = {ArrivalSpec::parse("poisson:0.2")};
  spec.horizon = 256;
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);

  spec.protocols = {"round_robin"};
  spec.channels = {1, 4};
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);
  spec.channels = {1};

  spec.patterns = {wu::exp::PatternKind::kStaggered};
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);
  spec.patterns = {wu::exp::PatternKind::kUniform};

  spec.arrivals = {ArrivalSpec{.kind = ArrivalKind::kReplay}};
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);
}

}  // namespace
