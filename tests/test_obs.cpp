/// Observability layer: registry semantics (counters/gauges/histograms,
/// runtime enable, reset), deterministic metrics.json ordering regardless
/// of thread interleaving, the trace-event recorder + shard merge, and the
/// ExecutionTrace ring-buffer memory cap.  Every test also compiles (and
/// the exporter tests pass) in WAKEUP_OBS=OFF builds, where the registry
/// collapses to stubs.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mac/trace.hpp"
#include "mac/types.hpp"
#include "mac/wake_pattern.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "protocols/round_robin.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"

namespace wu = wakeup;
namespace obs = wakeup::obs;

namespace {

std::string tmp_path(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("wakeup_obs_test_" + name)).string();
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Clears registry + recorder state around each test so ordering assertions
/// see only their own metrics (names stay interned — that is the contract).
struct ObsReset {
  ObsReset() {
    obs::reset();
    obs::trace_clear();
  }
  ~ObsReset() {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::reset();
    obs::trace_clear();
  }
};

}  // namespace

// --------------------------------------------------------------- registry --

TEST(ObsRegistry, CompileFlagIsVisible) {
  // Informational: both build flavors are valid; the remaining tests branch.
  SUCCEED() << "WAKEUP_OBS compiled: " << (obs::kCompiled ? "yes" : "no");
}

TEST(ObsRegistry, CountersGaugesHistogramsRoundTripThroughSnapshot) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  ObsReset guard;
  obs::set_enabled(true);

  const auto counter = obs::Counter::get("test.counter");
  counter.add(40);
  counter.inc();
  counter.inc();

  const auto gauge = obs::Gauge::get("test.gauge");
  gauge.set(7);
  gauge.maximize(12);
  gauge.maximize(3);  // below the peak: ignored

  const auto hist = obs::Histogram::get("test.hist");
  hist.observe(1);
  hist.observe(5);
  hist.observe(1000);

  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.count("test.counter"));
  EXPECT_EQ(snap.at("test.counter").value, 42u);
  ASSERT_TRUE(snap.count("test.gauge"));
  EXPECT_EQ(snap.at("test.gauge").value, 12u);
  ASSERT_TRUE(snap.count("test.hist"));
  const auto& h = snap.at("test.hist");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1006u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_FALSE(h.buckets.empty());

  obs::reset();
  const obs::Snapshot cleared = obs::snapshot();
  EXPECT_EQ(cleared.at("test.counter").value, 0u);
  EXPECT_EQ(cleared.at("test.gauge").value, 0u);
  EXPECT_EQ(cleared.at("test.hist").count, 0u);
}

TEST(ObsRegistry, GetIsIdempotentAcrossHandles) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  ObsReset guard;
  const auto a = obs::Counter::get("test.same_name");
  const auto b = obs::Counter::get("test.same_name");
  a.add(2);
  b.add(3);
  EXPECT_EQ(obs::snapshot_value(obs::snapshot(), "test.same_name"), 5u);
}

TEST(ObsRegistry, CountsSurviveThreadExit) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  ObsReset guard;
  const auto counter = obs::Counter::get("test.thread_exit");
  {
    std::thread t([&counter] { counter.add(100); });
    t.join();  // the thread's shard detaches; its total must be retired
  }
  EXPECT_EQ(obs::snapshot_value(obs::snapshot(), "test.thread_exit"), 100u);
}

TEST(ObsRegistry, SnapshotHelpersHandleAbsentNames) {
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(obs::snapshot_value(snap, "test.never_interned"), 0u);
  EXPECT_EQ(obs::snapshot_ratio(snap, "test.no_hits", "test.no_misses"), 0.0);
}

// -------------------------------------------------- deterministic export --

TEST(ObsExport, MetricsJsonOrderingIsIndependentOfThreadInterleaving) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  // Same totals reached single-threaded vs. via racing threads (which
  // intern in scrambled orders) must export byte-identical JSON.
  const std::vector<std::string> names = {"test.ord.zeta", "test.ord.alpha", "test.ord.mid"};

  ObsReset guard;
  for (const auto& name : names) obs::Counter::get(name).add(10);
  const std::string single = obs::metrics_json_text(obs::snapshot());

  obs::reset();
  std::vector<std::thread> threads;
  threads.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&names, i] {
      // Each thread interns in a different rotation and adds in two steps.
      for (std::size_t j = 0; j < names.size(); ++j) {
        const auto c = obs::Counter::get(names[(i + j) % names.size()]);
        if (j == i) {
          c.add(6);
          c.add(4);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string threaded = obs::metrics_json_text(obs::snapshot());

  EXPECT_EQ(single, threaded);
  // Lexicographic order: alpha before mid before zeta.
  const auto alpha = threaded.find("test.ord.alpha");
  const auto mid = threaded.find("test.ord.mid");
  const auto zeta = threaded.find("test.ord.zeta");
  ASSERT_NE(alpha, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
}

TEST(ObsExport, MetricsJsonAndObjectTextAreWellFormed) {
  // Runs in both flavors: OFF builds export the empty skeleton.
  ObsReset guard;
  obs::Counter::get("test.export.count").add(3);
  obs::Histogram::get("test.export.hist").observe(17);
  const obs::Snapshot snap = obs::snapshot();

  const std::string json = obs::metrics_json_text(snap);
  EXPECT_EQ(json.find("{\n  \"metrics\": {"), 0u);
  EXPECT_EQ(json.back(), '\n');

  const std::string object = obs::metrics_object_text(snap);
  EXPECT_EQ(object.front(), '{');
  EXPECT_EQ(object.back(), '}');
  EXPECT_EQ(object.find('\n'), std::string::npos);  // single line, embeddable

  if (obs::kCompiled) {
    EXPECT_NE(json.find("\"test.export.count\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);   // histogram body
    EXPECT_NE(object.find("\"test.export.count\": 3"), std::string::npos);
  } else {
    EXPECT_EQ(object, "{}");
  }

  const std::string path = tmp_path("metrics.json");
  obs::write_metrics_json(path);
  EXPECT_FALSE(slurp(path).empty());
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- trace events --

TEST(ObsTrace, RecordsDurationsAndInstantsAndWritesOnePerLine) {
  ObsReset guard;
  obs::set_trace_enabled(true);
  obs::trace_set_process(3, "worker-3");
  const std::uint64_t t0 = obs::trace_now_us();
  obs::trace_duration("cell-a", "cell", t0, 25, {{"protocol", "round_robin"}, {"n", "64"}});
  obs::trace_instant("ping", "slot", t0 + 5);
  obs::set_trace_enabled(false);
  obs::trace_duration("ignored", "cell", t0, 1);  // disabled: dropped

  const std::string path = tmp_path("trace.json");
  obs::write_trace_json(path);
  const std::string text = slurp(path);
  std::filesystem::remove(path);

  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(text.find("]}"), std::string::npos);
  if (!obs::kCompiled) return;  // OFF: empty event list is all we require

  EXPECT_EQ(obs::trace_event_count(), 3u);  // process_name + duration + instant
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(text.find("worker-3"), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\": 25"), std::string::npos);
  EXPECT_NE(text.find("\"protocol\": \"round_robin\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_EQ(text.find("ignored"), std::string::npos);
  EXPECT_NE(text.find("\"pid\": 3"), std::string::npos);
}

TEST(ObsTrace, MergeShardsConcatenatesAndSkipsMissing) {
  ObsReset guard;
  const std::string shard0 = tmp_path("shard0.json");
  const std::string shard1 = tmp_path("shard1.json");
  const std::string missing = tmp_path("shard_missing.json");
  const std::string dest = tmp_path("merged.json");

  obs::set_trace_enabled(true);
  obs::trace_instant("from-zero", "slot", 1);
  obs::write_trace_json(shard0);
  obs::trace_clear();
  obs::trace_instant("from-one", "slot", 2);
  obs::write_trace_json(shard1);
  obs::set_trace_enabled(false);

  obs::merge_trace_shards({shard0, missing, shard1}, dest);
  const std::string text = slurp(dest);
  for (const auto& p : {shard0, shard1, dest}) std::filesystem::remove(p);

  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u);
  if (obs::kCompiled) {
    const auto zero = text.find("from-zero");
    const auto one = text.find("from-one");
    ASSERT_NE(zero, std::string::npos);
    ASSERT_NE(one, std::string::npos);
    EXPECT_LT(zero, one);  // shard order preserved
  }
}

TEST(ObsTrace, ExecutionTraceRendersAsInstantEvents) {
  ObsReset guard;
  wu::mac::ExecutionTrace trace(/*record_transmitters=*/true);
  trace.add(0, wu::mac::SlotOutcome::kSilence, {});
  trace.add(1, wu::mac::SlotOutcome::kCollision, {2, 5});
  trace.add(2, wu::mac::SlotOutcome::kSuccess, {4});

  obs::set_trace_enabled(true);
  obs::trace_execution(trace, /*base_ts_us=*/100);
  obs::set_trace_enabled(false);
  if (obs::kCompiled) {
    EXPECT_EQ(obs::trace_event_count(), 3u);
  }
}

// --------------------------------------------- ExecutionTrace ring buffer --

TEST(ExecutionTraceRing, KeepsTheLastCapacityRecordsInOrder) {
  wu::mac::ExecutionTrace trace(false, 8, /*capacity=*/4);
  for (wu::mac::Slot slot = 0; slot < 10; ++slot) {
    trace.add(slot, wu::mac::SlotOutcome::kSilence, {});
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto ordered = trace.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].slot, static_cast<wu::mac::Slot>(6 + i));  // the tail survives
  }
}

TEST(ExecutionTraceRing, UnboundedTraceNeverDrops) {
  wu::mac::ExecutionTrace trace;  // capacity 0 = unbounded
  for (wu::mac::Slot slot = 0; slot < 100; ++slot) {
    trace.add(slot, wu::mac::SlotOutcome::kSilence, {});
  }
  EXPECT_EQ(trace.size(), 100u);
  EXPECT_EQ(trace.dropped(), 0u);
  const auto ordered = trace.ordered();
  EXPECT_EQ(ordered.front().slot, 0);
  EXPECT_EQ(ordered.back().slot, 99);
}

TEST(ExecutionTraceRing, PartiallyFilledRingIsChronological) {
  wu::mac::ExecutionTrace trace(false, 8, /*capacity=*/16);
  for (wu::mac::Slot slot = 0; slot < 5; ++slot) {
    trace.add(slot, wu::mac::SlotOutcome::kSilence, {});
  }
  EXPECT_EQ(trace.dropped(), 0u);
  const auto ordered = trace.ordered();
  ASSERT_EQ(ordered.size(), 5u);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].slot, static_cast<wu::mac::Slot>(i));
  }
}

// ------------------------------------------------- hot-path instrumentation --

TEST(ObsInstrumentation, MultichannelCellEmitsBatchCounters) {
  // C-channel cells run the same word loop as single-channel ones, so a
  // striped round-robin cell at C = 4 must report its rounds ("tiles") and
  // fetched words like any other batched cell.
  ObsReset guard;
  obs::set_enabled(true);

  wu::sim::RunSpec spec;
  spec.make_mc_protocol = [](std::uint64_t /*seed*/) {
    return wu::proto::make_striped_round_robin(256, 4);
  };
  spec.make_pattern = [](wu::util::Rng& rng) {
    return wu::mac::patterns::uniform_window(256, 16, 0, 64, rng);
  };
  spec.base_seed = 20130522;
  spec.trials = 16;
  const auto out = wu::sim::Run(spec, nullptr);
  EXPECT_EQ(out.cell().failures, 0u);

  const auto snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_GT(obs::snapshot_value(snap, "batch.tiles"), 0u);
    EXPECT_GT(obs::snapshot_value(snap, "batch.words_fetched"), 0u);
  } else {
    EXPECT_TRUE(snap.empty());
  }
}

TEST(ObsInstrumentation, BatchFetchesNoWordPastTheResolvingWord) {
  // The batch engine resolves one 64-slot word per round, so a run whose
  // first success lands in word success_slot/64 fetches exactly the words
  // from s/64 through it, one per live station per round — none past it.
  ObsReset guard;
  obs::set_enabled(true);

  const wu::proto::RoundRobinProtocol protocol(1024);
  const wu::mac::WakePattern pattern(1024, {{300, 0}, {500, 0}, {700, 0}, {900, 0}});
  wu::sim::SimConfig config;
  config.engine = wu::sim::Engine::kBatch;
  const wu::sim::SimResult r =
      wu::sim::Run({.protocol = &protocol, .pattern = &pattern, .sim = config}).sim;
  ASSERT_TRUE(r.success);
  ASSERT_GT(r.success_slot, 192);  // the run spans several words

  const auto snap = obs::snapshot();
  if (obs::kCompiled) {
    const auto rounds = static_cast<std::uint64_t>(r.success_slot / 64 - r.s / 64 + 1);
    EXPECT_EQ(obs::snapshot_value(snap, "batch.tiles"), rounds);
    EXPECT_EQ(obs::snapshot_value(snap, "batch.words_fetched"), pattern.k() * rounds);
  } else {
    EXPECT_TRUE(snap.empty());
  }
}

TEST(ObsInstrumentation, AutoRunsRecordTheirWarmup) {
  // Every kAuto run observes the slots it interpreted in run.warmup_slots:
  // 0 for cheap-word schedules, which batch from slot one; for the others
  // the default 16-slot prefix, or fewer when the run resolves inside it,
  // which sim.resolved_in_warmup counts.  Forced engines observe nothing.
  ObsReset guard;
  obs::set_enabled(true);

  wu::proto::ProtocolSpec pspec;
  pspec.name = "wait_and_go";
  pspec.n = 200;
  pspec.k = 64;
  const auto protocol = wu::proto::make_protocol_by_name(pspec);
  std::uint64_t runs = 0;
  std::uint64_t slots = 0;
  std::uint64_t resolved = 0;
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    wu::util::Rng rng(wu::util::hash_words({0x5752554eULL /* "WRUN" */, trial}));
    const auto pattern = wu::mac::patterns::uniform_window(200, 1 + 5 * trial, 0, 8, rng);
    wu::sim::SimConfig interp;
    interp.engine = wu::sim::Engine::kInterpreter;
    const auto reference =
        wu::sim::Run({.protocol = protocol.get(), .pattern = &pattern, .sim = interp}).sim;
    const auto got = wu::sim::Run({.protocol = protocol.get(), .pattern = &pattern}).sim;
    ASSERT_EQ(reference.success_slot, got.success_slot);
    ++runs;
    if (reference.success && reference.rounds < 16) {
      slots += static_cast<std::uint64_t>(reference.rounds) + 1;
      ++resolved;
    } else {
      slots += 16;
    }
  }
  const wu::proto::RoundRobinProtocol rr(96);
  const wu::mac::WakePattern two(96, {{10, 0}, {50, 3}});
  (void)wu::sim::Run({.protocol = &rr, .pattern = &two});
  ++runs;

  const auto snap = obs::snapshot();
  if (obs::kCompiled) {
    const auto it = snap.find("run.warmup_slots");
    ASSERT_NE(it, snap.end());
    EXPECT_EQ(it->second.count, runs);
    EXPECT_EQ(it->second.sum, slots);
    EXPECT_EQ(it->second.min, 0u);  // the round-robin run
    EXPECT_EQ(obs::snapshot_value(snap, "sim.resolved_in_warmup"), resolved);
    EXPECT_GT(resolved, 0u);
    EXPECT_LT(resolved, runs - 1);  // some runs reached the batch tail
  } else {
    EXPECT_TRUE(snap.empty());
  }
}
