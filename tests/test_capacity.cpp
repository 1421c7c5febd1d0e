// capacity/: the CompactAllocator equivalence contract -- under the one
// serve::EpochLoop, byte-identical loads, counters, and gap trajectories
// against the dense OnlineAllocator across a (trace, seed) differential
// matrix -- plus the compact layout's internal invariants, resident-byte
// accounting, the budget-gate estimator, and serve_capacity's list-param
// parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "capacity/compact_allocator.hpp"
#include "report/json.hpp"
#include "scenario/scenario.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"

namespace rlslb::capacity {
namespace {

constexpr std::int64_t kBins = 48;
constexpr std::int64_t kEvents = 6000;
constexpr std::int64_t kEpochEvents = 256;
constexpr int kRepair = 4;

workload::OpenTraceOptions traceOptions() {
  workload::OpenTraceOptions o;
  o.bins = kBins;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.ballWeight = 1;  // the compact layout is unit-weight by design
  o.maxEvents = kEvents;
  return o;
}

struct Outcome {
  std::vector<std::int64_t> loads;
  serve::ServeCounters counters;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::int64_t flushedBins = 0;
  std::vector<std::int64_t> gapTrajectory;
  std::int64_t residentBytes = 0;
};

void expectEqualOutcomes(const Outcome& compact, const Outcome& dense,
                         const std::string& label) {
  EXPECT_EQ(compact.loads, dense.loads) << label;
  EXPECT_EQ(compact.liveBalls, dense.liveBalls) << label;
  EXPECT_EQ(compact.totalLoad, dense.totalLoad) << label;
  EXPECT_EQ(compact.flushedBins, dense.flushedBins) << label;
  EXPECT_EQ(compact.gapTrajectory, dense.gapTrajectory) << label;
  const serve::ServeCounters& a = compact.counters;
  const serve::ServeCounters& b = dense.counters;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.arrivals, b.arrivals) << label;
  EXPECT_EQ(a.departures, b.departures) << label;
  EXPECT_EQ(a.resamples, b.resamples) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.rejectedMoves, b.rejectedMoves) << label;
  EXPECT_EQ(a.repairAttempts, b.repairAttempts) << label;
  EXPECT_EQ(a.repairMigrations, b.repairMigrations) << label;
}

Outcome runCompact(const std::string& spec, std::uint64_t seed) {
  workload::ComposedTrace trace(traceOptions(), spec, seed);
  serve::AllocatorOptions options;
  options.bins = kBins;
  options.arrivalChoices = 2;
  CompactAllocator allocator(options);
  serve::LoopOptions loopOptions;
  loopOptions.epochEvents = kEpochEvents;
  loopOptions.repairMovesPerEpoch = kRepair;
  loopOptions.seed = seed;
  serve::EpochLoop loop(allocator, loopOptions);
  Outcome out;
  const auto result = loop.run(trace, [&](const serve::EpochStats& s) {
    out.gapTrajectory.push_back(s.gap());
  });
  EXPECT_EQ(result.events, kEvents);
  EXPECT_TRUE(allocator.validate());
  out.loads = allocator.loadsCopy();
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  out.flushedBins = allocator.flushedBins();
  out.residentBytes = allocator.residentBytes();
  return out;
}

Outcome runDense(const std::string& spec, std::uint64_t seed) {
  workload::ComposedTrace trace(traceOptions(), spec, seed);
  serve::AllocatorOptions options;
  options.bins = kBins;
  options.arrivalChoices = 2;
  serve::OnlineAllocator allocator(options);
  serve::LoopOptions loopOptions;
  loopOptions.epochEvents = kEpochEvents;
  loopOptions.repairMovesPerEpoch = kRepair;
  loopOptions.seed = seed;
  serve::EpochLoop loop(allocator, loopOptions);
  Outcome out;
  const auto result = loop.run(trace, [&](const serve::EpochStats& s) {
    out.gapTrajectory.push_back(s.gap());
  });
  EXPECT_EQ(result.events, kEvents);
  EXPECT_TRUE(allocator.validate());
  out.loads = allocator.loads();
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  out.flushedBins = allocator.flushedBins();
  out.residentBytes = allocator.residentBytes();
  return out;
}

// The equivalence contract: for every trace shape and seed, the compact
// allocator equals the dense one.
TEST(CompactAllocator, MatchesDenseAcrossTheDifferentialMatrix) {
  const std::vector<std::string> specs = {
      "poisson",
      "diurnal(0.8,64)",
      "bursty(8,0.05,0.5)",
      "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,8,1)",
  };
  const std::vector<std::uint64_t> seeds = {1, 20170529};
  for (const std::string& spec : specs) {
    for (const std::uint64_t seed : seeds) {
      const Outcome compact = runCompact(spec, seed);
      EXPECT_GT(compact.counters.events, 0);
      expectEqualOutcomes(compact, runDense(spec, seed),
                          spec + " seed=" + std::to_string(seed));
    }
  }
}

TEST(CompactAllocator, RepairStreamMatchesDense) {
  // Heavier repair pressure: the repair draw sequence (ticket -> Fenwick
  // upperBound -> in-bin slot -> candidate bin) is where the chunked lists
  // and the global Fenwick must reproduce the dense order exactly.
  workload::ComposedTrace compactTrace(traceOptions(), "poisson", 11);
  serve::AllocatorOptions copt;
  copt.bins = kBins;
  CompactAllocator compact(copt);
  serve::LoopOptions clo;
  clo.epochEvents = 64;
  clo.repairMovesPerEpoch = 32;
  clo.seed = 11;
  serve::EpochLoop cloop(compact, clo);
  cloop.run(compactTrace);

  workload::ComposedTrace denseTrace(traceOptions(), "poisson", 11);
  serve::AllocatorOptions dopt;
  dopt.bins = kBins;
  serve::OnlineAllocator dense(dopt);
  serve::LoopOptions dlo;
  dlo.epochEvents = 64;
  dlo.repairMovesPerEpoch = 32;
  dlo.seed = 11;
  serve::EpochLoop dloop(dense, dlo);
  dloop.run(denseTrace);

  EXPECT_EQ(compact.loadsCopy(), dense.loads());
  EXPECT_EQ(compact.counters().repairAttempts, dense.counters().repairAttempts);
  EXPECT_EQ(compact.counters().repairMigrations, dense.counters().repairMigrations);
  EXPECT_TRUE(compact.validate());
}

TEST(CompactAllocator, InvertedAcceptanceStaysEquivalent) {
  const std::uint64_t seed = 5;
  workload::ComposedTrace compactTrace(traceOptions(), "poisson", seed);
  serve::AllocatorOptions copt;
  copt.bins = kBins;
  copt.invertAcceptance = true;
  CompactAllocator compact(copt);
  serve::LoopOptions clo;
  clo.epochEvents = kEpochEvents;
  clo.seed = seed;
  serve::EpochLoop cloop(compact, clo);
  cloop.run(compactTrace);

  workload::ComposedTrace denseTrace(traceOptions(), "poisson", seed);
  serve::AllocatorOptions dopt;
  dopt.bins = kBins;
  dopt.invertAcceptance = true;
  serve::OnlineAllocator dense(dopt);
  serve::LoopOptions dlo;
  dlo.epochEvents = kEpochEvents;
  dlo.seed = seed;
  serve::EpochLoop dloop(dense, dlo);
  dloop.run(denseTrace);

  EXPECT_EQ(compact.loadsCopy(), dense.loads());
  EXPECT_EQ(compact.counters().migrations, dense.counters().migrations);
}

TEST(CompactAllocator, ResidentBytesBeatDenseAndEstimateTracksActual) {
  const Outcome compact = runCompact("poisson", 2);
  const Outcome dense = runDense("poisson", 2);
  // The whole point of the compact layout: materially fewer bytes for the same
  // observable state.
  EXPECT_LT(compact.residentBytes, dense.residentBytes);
  EXPECT_GT(compact.residentBytes, 0);

  // The budget-gate estimator should land within ~2x of a real run (it
  // sizes the gate, not the ledger).
  const std::int64_t ballsEver = compact.counters.arrivals;
  const std::int64_t estimate =
      CompactAllocator::estimateBytes(kBins, ballsEver, compact.liveBalls);
  EXPECT_GT(estimate, compact.residentBytes / 3);
  EXPECT_LT(estimate, compact.residentBytes * 3);
  // Monotone in every argument.
  EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins * 2, ballsEver, compact.liveBalls));
  EXPECT_LE(estimate, CompactAllocator::estimateBytes(kBins, ballsEver * 2, compact.liveBalls));
  EXPECT_LE(estimate,
            CompactAllocator::estimateBytes(kBins, ballsEver, compact.liveBalls * 2));
}

TEST(CompactAllocator, ValidateCatchesFreshAndRunStates) {
  serve::AllocatorOptions options;
  options.bins = 8;
  CompactAllocator allocator(options);
  EXPECT_TRUE(allocator.validate());
  EXPECT_EQ(allocator.numBins(), 8);
  EXPECT_EQ(allocator.totalLoad(), 0);
  EXPECT_EQ(allocator.liveBalls(), 0);
  EXPECT_EQ(allocator.gap(), 0);

  // Drive a tiny hand-built batch: arrivals, a resample, a departure.
  rng::Xoshiro256pp eng(3);
  std::vector<workload::Event> events;
  std::vector<serve::Decision> decisions;
  for (std::int64_t ball = 0; ball < 6; ++ball) {
    events.push_back({static_cast<double>(ball), workload::EventKind::kArrive, ball, 1});
  }
  events.push_back({6.0, workload::EventKind::kResample, 2, 0});
  events.push_back({7.0, workload::EventKind::kDepart, 0, 0});
  decisions.resize(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    decisions[i] = allocator.decide(events[i], eng);
  }
  allocator.applyBatch(events.data(), decisions.data(), events.size());
  allocator.flush();
  EXPECT_TRUE(allocator.validate());
  EXPECT_EQ(allocator.totalLoad(), 5);
  EXPECT_EQ(allocator.liveBalls(), 5);
  EXPECT_EQ(allocator.counters().arrivals, 6);
  EXPECT_EQ(allocator.counters().departures, 1);
  EXPECT_EQ(allocator.maxWeightSeen(), 1);
}

// ------------------------------------------- serve_capacity list params

/// Runs serve_capacity with `params` and returns its JSONL output.
std::string runCapacityScenario(const std::vector<std::string>& params) {
  scenario::ScenarioRegistry registry;
  scenario::registerBuiltinScenarios(registry);
  std::ostringstream out;
  report::ResultSink sink(&out);
  scenario::ScenarioContext ctx;
  ctx.sink = &sink;
  ctx.console = nullptr;
  std::string error;
  EXPECT_TRUE(scenario::ScenarioParams::fromTokens(params, &ctx.params, &error)) << error;
  registry.runOne("serve_capacity", ctx);
  EXPECT_TRUE(ctx.params.unusedKeys().empty());
  return out.str();
}

TEST(ServeCapacityParams, ScientificListEntryIsParsedExactly) {
  // A numeric-prefix parse would read "2e3" as 2; list entries go through
  // the same parser as scalar int params, which takes the shorthand exactly.
  const std::string jsonl =
      runCapacityScenario({"n_list=2e3", "load_list=1", "epb=1"});
  std::vector<std::int64_t> cellBins;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    if (rec.at("type").asString() != "frontier") continue;
    cellBins.push_back(rec.at("n").asInt());
    EXPECT_EQ(rec.at("events").asInt(), 2000);
  }
  EXPECT_EQ(cellBins, (std::vector<std::int64_t>{2000}));
}

/// The diagnostic a malformed serve_capacity param throws ("" if none).
std::string thrownBy(const std::vector<std::string>& params) {
  try {
    (void)runCapacityScenario(params);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ServeCapacityParams, MalformedListEntryThrowsTheParameterDiagnostic) {
  EXPECT_EQ(thrownBy({"n_list=64", "load_list=2x", "epb=1"}),
            "parameter load_list=2x: not a number");
  EXPECT_EQ(thrownBy({"n_list=64x", "load_list=1", "epb=1"}),
            "parameter n_list=64x: not an integer");
  EXPECT_EQ(thrownBy({"n_list=64,,128", "load_list=1", "epb=1"}),
            "parameter n_list=64,,128: empty list entry");
  EXPECT_EQ(thrownBy({"n_list=64", "load_list=1", "epb=1", "traces=poisson;"}),
            "parameter traces=poisson;: empty list entry");
}

TEST(ServeCapacityParams, OutOfRangeValuesThrowTheParameterDiagnostic) {
  EXPECT_EQ(thrownBy({"n_list=0", "epb=1"}),
            "parameter n_list=0: entries must be in [1, 2147483647]");
  EXPECT_EQ(thrownBy({"n_list=100", "load_list=-1", "epb=1"}),
            "parameter load_list=-1: entries must be finite numbers > 0");
  EXPECT_EQ(thrownBy({"n_list=100", "epoch=0", "epb=1"}),
            "parameter epoch=0: must be >= 1");
  EXPECT_EQ(thrownBy({"n_list=100", "epb=0"}), "parameter epb=0: must be >= 1");
  EXPECT_EQ(thrownBy({"traces=bogus", "n_list=100", "epb=1"}),
            "parameter traces=bogus: unknown factor 'bogus' at offset 5; see `rlslb traces`");
  EXPECT_EQ(thrownBy({"traces=poisson;hotspot(16,32,8)", "n_list=100", "epb=1"}),
            "parameter traces=poisson;hotspot(16,32,8): capacity sweeps run unit weights; "
            "use hotspot(period,size,1)");
  // Every cell is checked before the first one (n=1000) runs.
  EXPECT_EQ(thrownBy({"n_list=1000,1", "load_list=0.5", "epb=1"}),
            "parameter load_list=0.5: cell n=1 load=0.5 has no events (load * n < 1); "
            "raise load or n");
  EXPECT_EQ(thrownBy({"n_list=100", "load_list=1", "epb=1", "repair=-1"}),
            "parameter repair=-1: must be in [0, 2147483647]");
}

}  // namespace
}  // namespace rlslb::capacity
