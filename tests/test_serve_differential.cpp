// The serving loop's differential layer: ShardedEventLoop must be
// byte-identical -- final load vector, every semantic counter, and the
// per-epoch gap trajectory -- to the frozen reference loop
// (tests/serve_reference.hpp) across epoch granularities, trace kinds,
// and seeds. Plus LoopOptions validation death tests and the
// EpochStats/RunResult timing contract, pinned for both allocators the
// loop drives.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runner/thread_pool.hpp"
#include "capacity/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "serve_reference.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {
namespace {

enum class TraceKind { kPoisson, kBursty, kDiurnal, kAdversarial };
constexpr TraceKind kAllKinds[] = {TraceKind::kPoisson, TraceKind::kBursty,
                                   TraceKind::kDiurnal, TraceKind::kAdversarial};

std::unique_ptr<workload::TraceGenerator> makeTrace(TraceKind kind, std::int64_t bins,
                                                    std::int64_t events,
                                                    std::uint64_t seed) {
  workload::OpenTraceOptions base;
  base.bins = bins;
  base.arrivalRatePerBin = 1.0;
  base.departureRate = 0.25;
  base.resampleRate = 1.0;
  base.maxEvents = events;
  switch (kind) {
    case TraceKind::kPoisson:
      return std::make_unique<workload::PoissonTrace>(base, seed);
    case TraceKind::kBursty:
      return std::make_unique<workload::BurstyTrace>(
          workload::BurstyTraceOptions{.base = base}, seed);
    case TraceKind::kDiurnal:
      return std::make_unique<workload::DiurnalTrace>(
          workload::DiurnalTraceOptions{.base = base}, seed);
    case TraceKind::kAdversarial:
      return std::make_unique<workload::HotspotTrace>(
          workload::HotspotTraceOptions{.base = base}, seed);
  }
  return nullptr;
}

/// Everything the differential compares: the semantic outcome of a run.
struct Outcome {
  std::vector<std::int64_t> loads;
  ServeCounters counters;
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  std::vector<std::int64_t> gapTrajectory;
};

bool countersEqual(const ServeCounters& a, const ServeCounters& b) {
  return a.events == b.events && a.arrivals == b.arrivals &&
         a.departures == b.departures && a.resamples == b.resamples &&
         a.migrations == b.migrations && a.rejectedMoves == b.rejectedMoves &&
         a.repairAttempts == b.repairAttempts &&
         a.repairMigrations == b.repairMigrations;
}

struct Config {
  TraceKind kind = TraceKind::kPoisson;
  std::int64_t bins = 24;
  std::int64_t events = 2048;
  std::int64_t epochEvents = 256;
  std::uint64_t seed = 1;
};

Outcome runReference(const Config& c) {
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  reference::ReferenceAllocator allocator(
      AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  runner::ThreadPool pool(1);
  reference::ReferenceEventLoop loop(
      allocator,
      reference::ReferenceEventLoop::Options{
          .shards = 4, .epochEvents = c.epochEvents, .repairMovesPerEpoch = 4,
          .seed = c.seed},
      pool);
  Outcome out;
  const auto result =
      loop.run(*trace, [&](const reference::ReferenceEpochStats& s) {
        out.gapTrajectory.push_back(s.gap());
      });
  EXPECT_EQ(result.events, c.events);
  out.loads = allocator.loads();
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  return out;
}

Outcome runFused(const Config& c) {
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.repairMovesPerEpoch = 4;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  Outcome out;
  const auto result = loop.run(*trace, [&](const EpochStats& s) {
    out.gapTrajectory.push_back(s.gap());
  });
  EXPECT_EQ(result.events, c.events);
  EXPECT_TRUE(allocator.validate());
  out.loads = allocator.loads();
  out.counters = allocator.counters();
  out.liveBalls = allocator.liveBalls();
  out.totalLoad = allocator.totalLoad();
  return out;
}

void expectIdentical(const Outcome& ref, const Outcome& got, const char* axis,
                     std::int64_t a, std::int64_t b) {
  EXPECT_EQ(ref.loads, got.loads) << axis << "=(" << a << "," << b << ")";
  EXPECT_TRUE(countersEqual(ref.counters, got.counters))
      << axis << "=(" << a << "," << b << ")";
  EXPECT_EQ(ref.liveBalls, got.liveBalls) << axis << "=(" << a << "," << b << ")";
  EXPECT_EQ(ref.totalLoad, got.totalLoad) << axis << "=(" << a << "," << b << ")";
  EXPECT_EQ(ref.gapTrajectory, got.gapTrajectory)
      << axis << "=(" << a << "," << b << ")";
}

void expectMatchesReference(const Config& c, const char* axis, std::int64_t a,
                            std::int64_t b) {
  expectIdentical(runReference(c), runFused(c), axis, a, b);
}

// ------------------------------------------------ differential

// The batched hot path -- snapshot-free decision phase, per-event engine
// reseed, deferred Fenwick flush, batched apply -- against the frozen
// reference loop. Every semantic observable, including the per-epoch gap
// trajectory, must be byte-identical.
TEST(FusedDifferential, MatchesReferenceAcrossKindsAndSeeds) {
  for (const TraceKind kind : kAllKinds) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Config c;
      c.kind = kind;
      c.seed = seed;
      expectMatchesReference(c, "kind,seed", static_cast<std::int64_t>(kind),
                             static_cast<std::int64_t>(seed));
    }
  }
}

TEST(FusedDifferential, EpochGranularities) {
  // epochEvents is a semantic knob, so each granularity gets its own
  // reference; the loop must track every one, including the
  // degenerate one-event epoch (every event sees a fresh snapshot) and an
  // epoch larger than the whole trace.
  const struct {
    std::int64_t epochEvents;
    std::int64_t events;
  } grid[] = {{1, 300}, {7, 700}, {1024, 2048}};
  for (const TraceKind kind : {TraceKind::kPoisson, TraceKind::kAdversarial}) {
    for (const auto& g : grid) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Config c;
        c.kind = kind;
        c.epochEvents = g.epochEvents;
        c.events = g.events;
        c.seed = seed;
        expectMatchesReference(c, "epoch,seed", g.epochEvents,
                               static_cast<std::int64_t>(seed));
      }
    }
  }
}

TEST(FusedDifferential, AllTraceKinds) {
  for (const TraceKind kind : kAllKinds) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Config c;
      c.kind = kind;
      c.events = 1500;
      c.epochEvents = 128;
      c.seed = seed;
      expectMatchesReference(c, "kind,seed", static_cast<std::int64_t>(kind),
                             static_cast<std::int64_t>(seed));
    }
  }
}

// ------------------------------------------------ option validation

TEST(ServeLoopDeathTest, RejectsInvalidLoopOptions) {
  OnlineAllocator allocator(AllocatorOptions{.bins = 8, .arrivalChoices = 1});
  const auto makeLoop = [&](std::int64_t epochEvents, int repair) {
    LoopOptions o;
    o.epochEvents = epochEvents;
    o.repairMovesPerEpoch = repair;
    EpochLoop loop(allocator, o);
  };
  EXPECT_DEATH(makeLoop(0, 4), "LoopOptions.epochEvents must be >= 1");
  EXPECT_DEATH(makeLoop(-1, 4), "LoopOptions.epochEvents must be >= 1");
  EXPECT_DEATH(makeLoop(1024, -1), "LoopOptions.repairMovesPerEpoch must be >= 0");
}

// ------------------------------------------------ timing contract

// The contract belongs to the one epoch loop, so it is pinned for both of
// its allocators (the Poisson trace is unit-weight, as compact requires).
template <class Allocator>
class TimingContract : public ::testing::Test {};
using LoopAllocators = ::testing::Types<OnlineAllocator, capacity::CompactAllocator>;
TYPED_TEST_SUITE(TimingContract, LoopAllocators);

TYPED_TEST(TimingContract, RunResultIsTheExactSumOfEpochWallSeconds) {
  Config c;
  c.events = 2048;
  c.epochEvents = 128;
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  TypeParam allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  double sum = 0.0;
  std::int64_t epochs = 0;
  const auto result = loop.run(*trace, [&](const EpochStats& s) {
    EXPECT_GE(s.wallSeconds, 0.0);
    sum += s.wallSeconds;
    ++epochs;
  });
  EXPECT_EQ(epochs, result.epochs);
  // Exact: both sides accumulate the identical per-epoch doubles in the
  // identical order, so this is bitwise equality, not a tolerance check.
  EXPECT_EQ(sum, result.wallSeconds);
}

TYPED_TEST(TimingContract, OnEpochCallbackTimeIsExcluded) {
  Config c;
  c.events = 256;
  c.epochEvents = 64;
  auto trace = makeTrace(c.kind, c.bins, c.events, c.seed);
  TypeParam allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  const auto result = loop.run(*trace, [&](const EpochStats&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  EXPECT_EQ(result.epochs, 4);
  // 4 x 10ms of callback sleep; the measured epochs do ~256 events of real
  // work (microseconds). Half the sleep budget is an ocean of margin.
  EXPECT_LT(result.wallSeconds, 0.020);
}

/// Wraps a trace and sleeps inside next(): trace *generation* cost, which
/// the timing contract says is not the serving loop's to report.
class SlowTrace final : public workload::TraceGenerator {
 public:
  SlowTrace(workload::TraceGenerator& inner, std::chrono::microseconds delay)
      : inner_(&inner), delay_(delay) {}
  bool next(workload::Event* out) override {
    if (!inner_->next(out)) return false;
    std::this_thread::sleep_for(delay_);
    return true;
  }
  [[nodiscard]] std::string name() const override { return "slow"; }

 private:
  workload::TraceGenerator* inner_;
  std::chrono::microseconds delay_;
};

TYPED_TEST(TimingContract, TraceGenerationTimeIsExcluded) {
  Config c;
  c.events = 64;
  c.epochEvents = 16;
  auto inner = makeTrace(c.kind, c.bins, c.events, c.seed);
  SlowTrace trace(*inner, std::chrono::microseconds(500));
  TypeParam allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
  LoopOptions options;
  options.epochEvents = c.epochEvents;
  options.seed = c.seed;
  EpochLoop loop(allocator, options);
  const auto result = loop.run(trace);
  EXPECT_EQ(result.events, 64);
  // 64 x 0.5ms = 32ms of generation sleep; the 4 epochs of real work are
  // microseconds.
  EXPECT_LT(result.wallSeconds, 0.016);
}

// ------------------------------------------------ high-contention stress

TEST(FusedDifferential, HighContentionLongEpochs) {
  // Long epochs + a hot resample clock: most events are migrations checked
  // against loads many events staler than the decision snapshot.
  Config c;
  c.bins = 64;
  c.events = 3 * 8192;
  c.epochEvents = 8192;
  c.seed = 2017;
  workload::OpenTraceOptions base;
  base.bins = c.bins;
  base.arrivalRatePerBin = 2.0;
  base.departureRate = 0.25;
  base.resampleRate = 4.0;  // high contention: most events are migrations
  base.maxEvents = c.events;

  Outcome ref;
  {
    workload::PoissonTrace trace(base, c.seed);
    reference::ReferenceAllocator allocator(
        AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
    runner::ThreadPool pool(1);
    reference::ReferenceEventLoop loop(
        allocator,
        reference::ReferenceEventLoop::Options{
            .shards = 4, .epochEvents = c.epochEvents, .repairMovesPerEpoch = 4,
            .seed = c.seed},
        pool);
    loop.run(trace, [&](const reference::ReferenceEpochStats& s) {
      ref.gapTrajectory.push_back(s.gap());
    });
    ref.loads = allocator.loads();
    ref.counters = allocator.counters();
    ref.liveBalls = allocator.liveBalls();
    ref.totalLoad = allocator.totalLoad();
  }
  {
    workload::PoissonTrace trace(base, c.seed);
    OnlineAllocator allocator(AllocatorOptions{.bins = c.bins, .arrivalChoices = 2});
    LoopOptions options;
    options.epochEvents = c.epochEvents;
    options.seed = c.seed;
    EpochLoop loop(allocator, options);
    Outcome got;
    loop.run(trace, [&](const EpochStats& s) { got.gapTrajectory.push_back(s.gap()); });
    EXPECT_TRUE(allocator.validate());
    got.loads = allocator.loads();
    got.counters = allocator.counters();
    got.liveBalls = allocator.liveBalls();
    got.totalLoad = allocator.totalLoad();
    expectIdentical(ref, got, "stress bins,epoch", c.bins, c.epochEvents);
  }
}

}  // namespace
}  // namespace rlslb::serve
