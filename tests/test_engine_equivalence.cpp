/// Engine equivalence: every oblivious protocol in the registry must
/// produce bit-identical SimResults through the slot-by-slot interpreter
/// and the word-parallel batch engine, over randomized wake patterns with
/// shared seeds — including the full-resolution extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "protocols/registry.hpp"
#include "sim/batch_engine.hpp"
#include "sim/run.hpp"
#include "tests/test_helpers.hpp"
#include "util/rng.hpp"
#include "wakeup/wakeup.hpp"

namespace wu = wakeup;

namespace {

void expect_identical(const wu::sim::SimResult& a, const wu::sim::SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.s, b.s) << label;
  EXPECT_EQ(a.success_slot, b.success_slot) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.successes, b.successes) << label;
  EXPECT_EQ(a.completion_slot, b.completion_slot) << label;
  EXPECT_EQ(a.completion_rounds, b.completion_rounds) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
}


wu::sim::SimResult run_one(const wu::proto::Protocol& protocol,
                           const wu::mac::WakePattern& pattern,
                           const wu::sim::SimConfig& config) {
  return wu::sim::Run({.protocol = &protocol, .pattern = &pattern, .sim = config}).sim;
}

/// Names of the registry protocols that expose an oblivious schedule
/// (checked, not assumed — the test fails if the capability disappears).
std::vector<std::string> oblivious_names() {
  return {"round_robin", "select_among_the_first", "wakeup_with_s",
          "wait_and_go", "wakeup_with_k",          "wakeup_matrix"};
}

struct Shape {
  std::uint32_t n;
  std::uint32_t k;
  wu::mac::Slot s;
};

class EngineEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalence, BitIdenticalAcrossSeededTrials) {
  const std::string name = GetParam();
  const std::vector<Shape> shapes = {{17, 3, 0}, {64, 8, 5}, {200, 16, 7}};
  const auto& kinds = wu::mac::patterns::all_kinds();

  std::uint64_t trials = 0;
  for (const Shape& shape : shapes) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = shape.n;
    spec.k = shape.k;
    spec.s = shape.s;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    ASSERT_NE(protocol->oblivious_schedule(), nullptr) << name;

    for (const auto kind : kinds) {
      for (std::uint64_t trial = 0; trial < 8; ++trial) {
        const std::uint64_t seed = wu::util::hash_words(
            {0x45515549ULL /* "EQUI" */, shape.n, static_cast<std::uint64_t>(kind), trial});
        wu::util::Rng rng_a(seed);
        wu::util::Rng rng_b(seed);  // shared seed: identical patterns
        const auto pattern_a =
            wu::mac::patterns::generate(kind, shape.n, shape.k, shape.s, rng_a);
        const auto pattern_b =
            wu::mac::patterns::generate(kind, shape.n, shape.k, shape.s, rng_b);

        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        wu::sim::SimConfig batch;
        batch.engine = wu::sim::Engine::kBatch;
        wu::sim::SimConfig hybrid;  // kAuto: interpreted first block + batch
        const std::string label = name + " n=" + std::to_string(shape.n) + " kind=" +
                                  wu::mac::patterns::kind_name(kind) + " trial=" +
                                  std::to_string(trial);
        const auto reference = run_one(*protocol, pattern_a, interp);
        expect_identical(reference, run_one(*protocol, pattern_b, batch), label);
        expect_identical(reference, run_one(*protocol, pattern_b, hybrid),
                         label + " auto");

        // Full-resolution extension: winners leave, engines must agree on
        // the whole drain, not just the first success.
        interp.full_resolution = true;
        batch.full_resolution = true;
        expect_identical(run_one(*protocol, pattern_a, interp),
                         run_one(*protocol, pattern_b, batch),
                         label + " full_resolution");
        ++trials;
      }
    }
  }
  EXPECT_GE(trials, 100u) << "acceptance: >= 100 seeded trials per protocol";
}

INSTANTIATE_TEST_SUITE_P(Registry, EngineEquivalence,
                         ::testing::ValuesIn(oblivious_names()),
                         [](const auto& info) { return info.param; });

/// A deterministic "pulse" protocol for exact-slot boundary tests: station
/// u transmits at precisely the absolute slots listed for it, nothing else.
/// words_are_cheap() stays false so Engine::kAuto takes the interpreted
/// warm-up block — the path whose carry/boundary logic is under test.
class PulseProtocol final : public wu::proto::Protocol, public wu::proto::ObliviousSchedule {
 public:
  explicit PulseProtocol(std::vector<std::vector<wu::mac::Slot>> pulses)
      : pulses_(std::move(pulses)) {}

  [[nodiscard]] std::string name() const override { return "pulse"; }
  [[nodiscard]] std::unique_ptr<wu::proto::StationRuntime> make_runtime(
      wu::mac::StationId u, wu::mac::Slot wake) const override {
    (void)wake;
    class Runtime final : public wu::proto::StationRuntime {
     public:
      Runtime(const PulseProtocol& p, wu::mac::StationId u) : p_(p), u_(u) {}
      [[nodiscard]] bool transmits(wu::mac::Slot t) override { return p_.pulse_at(u_, t); }

     private:
      const PulseProtocol& p_;
      wu::mac::StationId u_;
    };
    return std::make_unique<Runtime>(*this, u);
  }
  [[nodiscard]] const wu::proto::ObliviousSchedule* oblivious_schedule() const override {
    return this;
  }
  [[nodiscard]] std::uint64_t schedule_word(wu::mac::StationId u, wu::mac::Slot wake,
                                            wu::mac::Slot from) const override {
    (void)wake;
    std::uint64_t word = 0;
    if (u >= pulses_.size()) return word;
    for (const wu::mac::Slot t : pulses_[u]) {
      if (t >= from && t < from + 64) word |= std::uint64_t{1} << (t - from);
    }
    return word;
  }

 private:
  [[nodiscard]] bool pulse_at(wu::mac::StationId u, wu::mac::Slot t) const {
    return u < pulses_.size() &&
           std::find(pulses_[u].begin(), pulses_[u].end(), t) != pulses_[u].end();
  }
  std::vector<std::vector<wu::mac::Slot>> pulses_;
};

/// Hybrid warm-up boundaries: budgets straddling the 64-slot warm-up block
/// and successes placed exactly at s+63 / s+64 must agree with the pure
/// interpreter — including the silence/collision counters carried from the
/// warm-up prefix into the batched continuation.
TEST(HybridWarmup, BoundaryBudgetsAndSuccessSlotsMatchInterpreter) {
  const wu::mac::Slot s = 5;
  struct Case {
    std::string label;
    std::vector<std::vector<wu::mac::Slot>> pulses;  // absolute slots per station
    std::size_t k;                                   // stations waking at s
  };
  const std::vector<Case> cases = {
      // Success exactly at the last warm-up slot s+63.
      {"success@s+63", {{s + 63}, {s + 10, s + 70}, {s + 10, s + 90}}, 3},
      // Success exactly at the first batched slot s+64, with a warm-up
      // collision (slot s+10) whose counters must carry over.
      {"success@s+64", {{s + 64}, {s + 10, s + 70}, {s + 10, s + 90}}, 3},
      // No success at all inside small budgets.
      {"late", {{s + 200}, {s + 10, s + 201}, {s + 10, s + 202}}, 3},
  };
  for (const auto& c : cases) {
    const PulseProtocol protocol(c.pulses);
    std::vector<wu::mac::Arrival> arrivals;
    for (std::size_t u = 0; u < c.k; ++u) {
      arrivals.push_back({static_cast<wu::mac::StationId>(u), s});
    }
    const wu::mac::WakePattern pattern(16, arrivals);
    for (const wu::mac::Slot budget : {1, 63, 64, 65, 80, 256}) {
      wu::sim::SimConfig interp;
      interp.engine = wu::sim::Engine::kInterpreter;
      interp.max_slots = budget;
      wu::sim::SimConfig batch = interp;
      batch.engine = wu::sim::Engine::kBatch;
      wu::sim::SimConfig hybrid = interp;
      hybrid.engine = wu::sim::Engine::kAuto;
      const std::string label = c.label + " budget=" + std::to_string(budget);
      const auto reference = run_one(protocol, pattern, interp);
      expect_identical(reference, run_one(protocol, pattern, batch),
                       label + " batch");
      expect_identical(reference, run_one(protocol, pattern, hybrid),
                       label + " auto");
    }
  }
}

/// The same boundary budgets on real registry protocols (expensive words,
/// so kAuto interprets the first block): every engine agrees at budgets
/// 1, 63, 64, 65.
TEST(HybridWarmup, RegistryProtocolsAgreeAtBoundaryBudgets) {
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 64;
    spec.k = 8;
    spec.s = 3;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      wu::util::Rng rng(wu::util::hash_words({0x57524dULL /* "WRM" */, trial}));
      const auto pattern = wu::mac::patterns::uniform_window(64, 8, 3, 32, rng);
      for (const wu::mac::Slot budget : {1, 63, 64, 65}) {
        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        interp.max_slots = budget;
        wu::sim::SimConfig batch = interp;
        batch.engine = wu::sim::Engine::kBatch;
        wu::sim::SimConfig hybrid = interp;
        hybrid.engine = wu::sim::Engine::kAuto;
        const std::string label =
            name + " trial=" + std::to_string(trial) + " budget=" + std::to_string(budget);
        const auto reference = run_one(*protocol, pattern, interp);
        expect_identical(reference, run_one(*protocol, pattern, batch),
                         label + " batch");
        expect_identical(reference, run_one(*protocol, pattern, hybrid),
                         label + " auto");
      }
    }
  }
}

/// Sweep cells: the per-trial loop on a pool, through the default engine
/// dispatch, must produce the interpreter-forced loop's SimResult for every
/// trial, across all six oblivious protocols.
TEST(CellTrials, PooledBatchTrialsMatchInterpreter) {
  for (const auto& name : oblivious_names()) {
    for (const bool full_resolution : {false, true}) {
      wu::sim::RunSpec spec;
      spec.make_protocol = [name](std::uint64_t seed) {
        wu::proto::ProtocolSpec p;
        p.name = name;
        p.n = 96;
        p.k = 8;
        p.s = 3;
        p.seed = seed;
        return wu::proto::make_protocol_by_name(p);
      };
      spec.make_pattern = [](wu::util::Rng& rng) {
        return wu::mac::patterns::uniform_window(96, 8, 3, 48, rng);
      };
      spec.trials = 24;
      spec.base_seed = 20130522;
      spec.sim.full_resolution = full_resolution;

      std::vector<wu::sim::SimResult> reference(spec.trials);
      auto plain_spec = spec;
      plain_spec.sim.engine = wu::sim::Engine::kInterpreter;
      plain_spec.per_trial = [&](std::uint64_t i, const wu::sim::SimResult& r) {
        reference[i] = r;
      };
      const auto plain = wu::sim::Run(plain_spec, nullptr).cell();

      std::vector<wu::sim::SimResult> pooled(spec.trials);
      spec.per_trial = [&](std::uint64_t i, const wu::sim::SimResult& r) { pooled[i] = r; };
      wu::util::ThreadPool pool(3);
      const auto batched = wu::sim::Run(spec, &pool).cell();

      for (std::uint64_t i = 0; i < spec.trials; ++i) {
        expect_identical(reference[i], pooled[i],
                         name + (full_resolution ? " full" : "") + " trial " +
                             std::to_string(i));
      }
      EXPECT_EQ(plain.failures, batched.failures) << name;
      EXPECT_EQ(plain.rounds.count, batched.rounds.count) << name;
      EXPECT_DOUBLE_EQ(plain.rounds.mean, batched.rounds.mean) << name;
      EXPECT_DOUBLE_EQ(plain.silences.mean, batched.silences.mean) << name;
      EXPECT_DOUBLE_EQ(plain.collisions.mean, batched.collisions.mean) << name;
    }
  }
}

/// Forced batch engine vs interpreter: every oblivious protocol must
/// produce the interpreter's exact SimResult over mixed patterns, in
/// first-success and full-resolution modes.
TEST(BatchEquivalence, MixedPatternsMatchInterpreterInBothModes) {
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 96;
    spec.k = 8;
    spec.s = 3;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      wu::util::Rng rng(wu::util::hash_words({0x534d4458ULL /* "SMDX" */, trial}));
      const auto pattern = wu::mac::patterns::uniform_window(96, 8, 3, 48, rng);
      for (const bool full_resolution : {false, true}) {
        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        interp.full_resolution = full_resolution;
        const auto reference = run_one(*protocol, pattern, interp);
        wu::sim::SimConfig batch = interp;
        batch.engine = wu::sim::Engine::kBatch;
        expect_identical(reference, run_one(*protocol, pattern, batch),
                         name + " trial=" + std::to_string(trial) +
                             (full_resolution ? " full" : ""));
      }
    }
  }
}

/// Budget edges: budgets on and around the 64-slot word edges (and the
/// 128/192/448/512 edges a word-grouping engine would straddle) must agree
/// with the interpreter on every counter, including budget exhaustion, on
/// the forced batch engine and the kAuto hybrid.
TEST(BatchEquivalence, BudgetEdgesMatchInterpreter) {
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 64;
    spec.k = 8;
    spec.s = 3;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    wu::util::Rng rng(wu::util::hash_words({0x52414d50ULL /* "RAMP" */}));
    const auto pattern = wu::mac::patterns::simultaneous(64, 8, 5, rng);
    for (const wu::mac::Slot budget :
         {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 447, 448, 449, 511, 512, 513}) {
      wu::sim::SimConfig interp;
      interp.engine = wu::sim::Engine::kInterpreter;
      interp.max_slots = budget;
      const auto reference = run_one(*protocol, pattern, interp);
      wu::sim::SimConfig batch = interp;
      batch.engine = wu::sim::Engine::kBatch;
      expect_identical(reference, run_one(*protocol, pattern, batch),
                       name + " budget=" + std::to_string(budget));
      wu::sim::SimConfig hybrid = interp;
      hybrid.engine = wu::sim::Engine::kAuto;
      expect_identical(reference, run_one(*protocol, pattern, hybrid),
                       name + " budget=" + std::to_string(budget) + " auto");
    }
  }
}

/// Whole sweep cells on the default engine must stay bit-identical, trial
/// by trial, to the interpreter-forced cell.
TEST(BatchEquivalence, CellsMatchInterpreterTrialByTrial) {
  for (const auto& name : oblivious_names()) {
    wu::sim::RunSpec spec;
    spec.make_protocol = [name](std::uint64_t seed) {
      wu::proto::ProtocolSpec p;
      p.name = name;
      p.n = 96;
      p.k = 8;
      p.s = 3;
      p.seed = seed;
      return wu::proto::make_protocol_by_name(p);
    };
    spec.make_pattern = [](wu::util::Rng& rng) {
      return wu::mac::patterns::uniform_window(96, 8, 3, 48, rng);
    };
    spec.trials = 12;
    spec.base_seed = 20130522;

    std::vector<wu::sim::SimResult> reference(spec.trials);
    auto plain_spec = spec;
    plain_spec.sim.engine = wu::sim::Engine::kInterpreter;
    plain_spec.per_trial = [&](std::uint64_t i, const wu::sim::SimResult& r) {
      reference[i] = r;
    };
    (void)wu::sim::Run(plain_spec, nullptr);

    std::vector<wu::sim::SimResult> batched(spec.trials);
    auto batched_spec = spec;
    batched_spec.per_trial = [&](std::uint64_t i, const wu::sim::SimResult& r) {
      batched[i] = r;
    };
    (void)wu::sim::Run(batched_spec, nullptr);
    for (std::uint64_t i = 0; i < spec.trials; ++i) {
      expect_identical(reference[i], batched[i], name + " trial " + std::to_string(i));
    }
  }
}

TEST(EngineDispatch, AutoSelectsBatchForOblivious) {
  wu::proto::ProtocolSpec spec;
  spec.name = "round_robin";
  spec.n = 64;
  const auto protocol = wu::proto::make_protocol_by_name(spec);
  wu::sim::SimConfig config;
  EXPECT_TRUE(wu::sim::batch_engine_supports(*protocol, config));
  config.record_trace = true;  // traces are interpreter-only
  EXPECT_FALSE(wu::sim::batch_engine_supports(*protocol, config));
}

TEST(EngineDispatch, RandomizedProtocolsStayOnInterpreter) {
  wu::proto::ProtocolSpec spec;
  spec.name = "rpd_n";
  spec.n = 64;
  const auto protocol = wu::proto::make_protocol_by_name(spec);
  EXPECT_EQ(protocol->oblivious_schedule(), nullptr);
  wu::sim::SimConfig config;
  EXPECT_FALSE(wu::sim::batch_engine_supports(*protocol, config));

  // Forcing the batch engine on a non-oblivious protocol is an error.
  config.engine = wu::sim::Engine::kBatch;
  wu::util::Rng rng(1);
  const auto pattern = wu::mac::patterns::staggered(64, 4, 0, 3, rng);
  EXPECT_THROW((void)run_one(*protocol, pattern, config), std::invalid_argument);
}

TEST(EngineDispatch, ScheduleWordsMatchRuntimes) {
  // Direct word-level check of every oblivious schedule against its own
  // runtime, one schedule_word call per 64-slot block over a window
  // crossing several block boundaries.  Wakes at s put the word straddling
  // s (SATF, wakeup_with_s) at an odd (s = 3) and an even (s = 70) offset.
  for (const auto& name : oblivious_names()) {
    for (const wu::mac::Slot s : {wu::mac::Slot{3}, wu::mac::Slot{70}}) {
      wu::proto::ProtocolSpec spec;
      spec.name = name;
      spec.n = 37;  // deliberately not a power of two or multiple of 64
      spec.k = 5;
      spec.s = s;
      const auto protocol = wu::proto::make_protocol_by_name(spec);
      const auto* schedule = protocol->oblivious_schedule();
      ASSERT_NE(schedule, nullptr) << name;
      for (const wu::mac::Slot wake : {s, s + 7, wu::mac::Slot{129}}) {
        // 45 >= n: out-of-universe stations must stay silent in both engines.
        for (const wu::mac::StationId u : {0u, 1u, 17u, 36u, 45u}) {
          auto runtime = protocol->make_runtime(u, wake);
          const wu::mac::Slot from = (wake / 64) * 64;  // block containing wake
          for (wu::mac::Slot block = from; block < from + 256; block += 64) {
            const std::uint64_t word = schedule->schedule_word(u, wake, block);
            for (wu::mac::Slot t = std::max(wake, block); t < block + 64; ++t) {
              const bool batch_says = (word >> (t - block)) & 1u;
              ASSERT_EQ(batch_says, runtime->transmits(t))
                  << name << " s=" << s << " u=" << u << " wake=" << wake << " t=" << t;
            }
          }
        }
      }
    }
  }
}

TEST(EngineDispatch, ScheduleWordsMatchScheduleWord) {
  // One schedule_words call per block, for stations whose wakes fall
  // before, inside and after the block, must give each station its own
  // schedule_word bits (which ScheduleWordsMatchRuntimes ties to the
  // runtimes).  Every oblivious registry protocol, both family kinds with
  // a dedicated word path, and s = 3 / 70 so the SATF words straddle s at
  // both parities.
  std::uint64_t ones = 0;
  for (const auto& name : wu::proto::protocol_names()) {
    if (!wu::proto::protocol_capabilities(name).oblivious) continue;
    for (const auto kind : {wu::comb::FamilyKind::kRandomized, wu::comb::FamilyKind::kModPrime}) {
      for (const wu::mac::Slot s : {wu::mac::Slot{3}, wu::mac::Slot{70}}) {
        wu::proto::ProtocolSpec spec;
        spec.name = name;
        spec.n = 37;
        spec.k = 5;
        spec.s = s;
        spec.family_kind = kind;
        const auto protocol = wu::proto::make_protocol_by_name(spec);
        const auto* schedule = protocol->oblivious_schedule();
        ASSERT_NE(schedule, nullptr) << name;
        std::vector<wu::proto::ObliviousSchedule::StationWake> stations;
        for (const wu::mac::Slot wake : {wu::mac::Slot{0}, s, s + 7, wu::mac::Slot{129},
                                         wu::mac::Slot{200}, wu::mac::Slot{700}}) {
          // 45 >= n: out-of-universe stations.  Over 64 stations in all,
          // so the calls run in several chunks.
          for (wu::mac::StationId u = 0; u < 46; u += 3) stations.push_back({u, wake});
        }
        stations.push_back(stations.front());  // a repeated station
        const std::string label = name + " kind=" +
                                  std::string(wu::comb::family_kind_name(kind)) +
                                  " s=" + std::to_string(s);
        for (wu::mac::Slot from = 0; from < 768; from += 64) {
          ones += wakeup::test::expect_words_match_word(*schedule, stations, from, label);
        }
      }
    }
  }
  EXPECT_GT(ones, 0u);
}

}  // namespace
