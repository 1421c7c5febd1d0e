// serve/: OnlineAllocator state invariants, the event loop's epoch
// observer, RLS's balance benefit over placement-only serving, and the
// serve_* scenarios' byte-determinism (across runs and --threads) through
// the JSONL sink.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "scenario/scenario.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {
namespace {

workload::OpenTraceOptions traceOptions(std::int64_t events) {
  workload::OpenTraceOptions o;
  o.bins = 32;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.maxEvents = events;
  return o;
}

struct LoopOutcome {
  std::vector<std::int64_t> loads;
  ServeCounters counters;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::int64_t gap = 0;
};

LoopOutcome runLoop(std::int64_t events, std::uint64_t seed = 99) {
  workload::PoissonTrace trace(traceOptions(events), seed);
  AllocatorOptions allocOptions;
  allocOptions.bins = 32;
  allocOptions.arrivalChoices = 2;
  OnlineAllocator allocator(allocOptions);
  LoopOptions loopOptions;
  loopOptions.epochEvents = 256;
  loopOptions.repairMovesPerEpoch = 4;
  loopOptions.seed = seed;
  EpochLoop loop(allocator, loopOptions);
  const auto result = loop.run(trace);
  EXPECT_EQ(result.events, events);
  EXPECT_TRUE(allocator.validate());
  return {allocator.loads(), allocator.counters(), allocator.liveBalls(),
          allocator.totalLoad(), allocator.gap()};
}

TEST(OnlineAllocator, ConservesMassAndTracksLevels) {
  const LoopOutcome out = runLoop(/*events=*/8000);
  EXPECT_EQ(out.counters.events, 8000);
  EXPECT_EQ(out.liveBalls, out.counters.arrivals - out.counters.departures);
  std::int64_t total = 0;
  std::int64_t lo = out.loads[0];
  std::int64_t hi = out.loads[0];
  for (const std::int64_t v : out.loads) {
    total += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(total, out.totalLoad);
  EXPECT_EQ(out.gap, hi - lo);
  EXPECT_EQ(out.counters.resamples,
            out.counters.migrations + out.counters.rejectedMoves);
}

TEST(EpochLoop, EpochObserverSeesEveryEvent) {
  workload::PoissonTrace trace(traceOptions(1000), 7);
  OnlineAllocator allocator(AllocatorOptions{.bins = 16, .arrivalChoices = 1});
  EpochLoop loop(allocator, LoopOptions{.epochEvents = 128});
  std::int64_t observed = 0;
  std::int64_t epochs = 0;
  std::int64_t lastEpoch = -1;
  const auto result = loop.run(trace, [&](const EpochStats& s) {
    observed += s.events;
    EXPECT_EQ(s.epoch, lastEpoch + 1);
    lastEpoch = s.epoch;
    ++epochs;
    EXPECT_EQ(s.totalLoad, allocator.totalLoad());
  });
  EXPECT_EQ(observed, 1000);
  EXPECT_EQ(result.epochs, epochs);
  EXPECT_EQ(result.epochs, (1000 + 127) / 128);
}

TEST(EpochLoop, RlsMigrationShrinksTheGapVersusPlacementOnly) {
  // Same arrivals/departures rates; with the RLS clocks off the gap is the
  // raw d-choice band, with them on the allocator must hold a tighter one.
  const auto gapWith = [](double resampleRate, std::uint64_t seed) {
    workload::OpenTraceOptions o = traceOptions(40000);
    o.arrivalRatePerBin = 4.0;  // mean load/bin ~ 16: room for imbalance
    o.departureRate = 0.25;
    o.resampleRate = resampleRate;
    workload::PoissonTrace trace(o, seed);
    OnlineAllocator allocator(AllocatorOptions{.bins = 32, .arrivalChoices = 1});
    LoopOptions loopOptions;
    loopOptions.repairMovesPerEpoch = 0;  // isolate the per-event rule
    loopOptions.seed = seed;
    EpochLoop loop(allocator, loopOptions);
    double gapSum = 0.0;
    std::int64_t samples = 0;
    loop.run(trace, [&](const EpochStats& s) {
      gapSum += static_cast<double>(s.gap());
      ++samples;
    });
    return gapSum / static_cast<double>(samples);
  };
  double off = 0.0;
  double on = 0.0;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    off += gapWith(0.0, seed);
    on += gapWith(1.0, seed);
  }
  EXPECT_LT(on, 0.6 * off) << "RLS on: " << on / 3 << " off: " << off / 3;
}

// ------------------------------------------------- scenario determinism

/// The deterministic record types of one serve_* run ("table" and
/// "scenario_start"; wall-clock lives in timing/throughput/scenario_end).
std::string deterministicRecords(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    const std::string& type = rec.at("type").asString();
    if (type == "table" || type == "scenario_start") {
      out += line;
      out.push_back('\n');
    }
  }
  return out;
}

std::string runServeScenario(const std::string& name, std::uint64_t seed, int threads,
                             const std::vector<std::string>& params) {
  scenario::ScenarioRegistry registry;
  scenario::registerBuiltinScenarios(registry);
  std::ostringstream out;
  report::ResultSink sink(&out);
  scenario::ScenarioContext ctx;
  ctx.seed = seed;
  ctx.threads = threads;
  ctx.sink = &sink;
  ctx.console = nullptr;
  std::string error;
  EXPECT_TRUE(scenario::ScenarioParams::fromTokens(params, &ctx.params, &error)) << error;
  registry.runOne(name, ctx);
  EXPECT_TRUE(ctx.params.unusedKeys().empty());
  return out.str();
}

TEST(ServeScenarios, ByteIdenticalAcrossRunsAndThreads) {
  const std::vector<std::string> params = {"n=32", "events=20000", "epoch=256"};
  for (const std::string name : {"serve_poisson", "serve_adversarial"}) {
    const std::string a = deterministicRecords(runServeScenario(name, 5, 1, params));
    const std::string b = deterministicRecords(runServeScenario(name, 5, 1, params));
    const std::string c = deterministicRecords(runServeScenario(name, 5, 4, params));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << name << ": same seed, same threads";
    EXPECT_EQ(a, c) << name << ": same seed, different threads";
    const std::string e = deterministicRecords(runServeScenario(name, 6, 1, params));
    EXPECT_NE(a, e) << name << ": a different seed must change the tables";
  }
}

TEST(ServeScenarios, RemovedExecutionKnobsAreUnknownParams) {
  // The serving loop has one execution path; shards= and partitioned= are
  // not read, so the driver rejects them as unknown params.
  for (const std::string knob : {"shards=8", "partitioned=0"}) {
    scenario::ScenarioRegistry registry;
    scenario::registerBuiltinScenarios(registry);
    scenario::ScenarioContext ctx;
    ctx.console = nullptr;
    std::string error;
    ASSERT_TRUE(scenario::ScenarioParams::fromTokens({"n=16", "events=2000", knob},
                                                     &ctx.params, &error))
        << error;
    registry.runOne("serve_poisson", ctx);
    EXPECT_EQ(ctx.params.unusedKeys(),
              (std::vector<std::string>{knob.substr(0, knob.find('='))}));
  }
}

TEST(ServeScenarios, ThroughputRecordEmitted) {
  const std::string jsonl =
      runServeScenario("serve_bursty", 3, 1, {"n=16", "events=4000"});
  bool sawThroughput = false;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    if (rec.at("type").asString() != "throughput") continue;
    sawThroughput = true;
    EXPECT_EQ(rec.at("scenario").asString(), "serve_bursty");
    EXPECT_EQ(rec.at("events").asInt(), 4000);
    EXPECT_GT(rec.at("events_per_sec").asDouble(), 0.0);
  }
  EXPECT_TRUE(sawThroughput);
}

}  // namespace
}  // namespace rlslb::serve
