// Hot-path regression coverage for the batched serving pipeline:
//   - the multi-run contract (each ShardedEventLoop::run() resets its
//     ordinal/epoch counters, so a reused loop draws exactly the streams a
//     fresh loop would);
//   - the zero-allocation claim (steady-state epochs — balanced system,
//     resample-only traffic — perform no heap allocation at all, pinned by
//     a global operator new counting hook);
//   - the deferred-accounting lazy flush (merged-view accessors agree with
//     eager bookkeeping without an explicit flush call).
// The byte-identity of the snapshot-free decision phase and the deferred
// Fenwick flush against the frozen reference loop is pinned separately by
// the differentials in tests/test_serve_differential.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/generators.hpp"

// ------------------------------------------------------------------------
// Allocation-counting hook: replaces the replaceable global allocation
// functions for this test binary. Counting is off by default so gtest's
// own bookkeeping never trips it; tests toggle it around the region under
// scrutiny. (Aligned-new overloads fall through to the default library
// implementations; nothing on the serving hot path uses them.)
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::int64_t> g_allocCount{0};

std::int64_t allocCount() { return g_allocCount.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rlslb::serve {
namespace {

// ------------------------------------------------------------------------
// A deterministic steady-state trace: `resamples` resample events cycling
// over a pre-placed universe of `balls` live balls. Fed to a perfectly
// balanced allocator, the strict RLS rule rejects every event from the
// first one on, so every epoch is pure steady state: no load change, no
// structure work, no allocation.
class ResampleOnlyTrace final : public workload::TraceGenerator {
 public:
  ResampleOnlyTrace(std::int64_t balls, std::int64_t resamples)
      : balls_(balls), resamples_(resamples) {}

  bool next(workload::Event* out) override {
    if (emitted_ >= resamples_) return false;
    out->time = static_cast<double>(emitted_);
    out->kind = workload::EventKind::kResample;
    out->ball = emitted_ % balls_;
    out->weight = 0;
    ++emitted_;
    return true;
  }

  [[nodiscard]] std::string name() const override { return "resample-only"; }

 private:
  std::int64_t balls_;
  std::int64_t resamples_;
  std::int64_t emitted_ = 0;
};

// Shifts ball ids by a fixed offset so a second trace consumed by the same
// allocator cannot collide with balls the first trace left live (trace
// generators assign ids from 0).
class OffsetBalls final : public workload::TraceGenerator {
 public:
  OffsetBalls(std::unique_ptr<workload::TraceGenerator> inner, std::int64_t offset)
      : inner_(std::move(inner)), offset_(offset) {}

  bool next(workload::Event* out) override {
    if (!inner_->next(out)) return false;
    out->ball += offset_;
    return true;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<workload::TraceGenerator> inner_;
  std::int64_t offset_;
};

std::unique_ptr<workload::TraceGenerator> makePoisson(std::int64_t bins,
                                                      std::int64_t events,
                                                      std::uint64_t seed) {
  workload::OpenTraceOptions base;
  base.bins = bins;
  base.arrivalRatePerBin = 1.0;
  base.departureRate = 0.25;
  base.resampleRate = 1.0;
  base.maxEvents = events;
  return std::make_unique<workload::PoissonTrace>(base, seed);
}

bool countersEqual(const ServeCounters& a, const ServeCounters& b) {
  return a.events == b.events && a.arrivals == b.arrivals &&
         a.departures == b.departures && a.resamples == b.resamples &&
         a.migrations == b.migrations && a.rejectedMoves == b.rejectedMoves &&
         a.repairAttempts == b.repairAttempts &&
         a.repairMigrations == b.repairMigrations;
}

LoopOptions hotpathOptions() {
  LoopOptions options;
  options.epochEvents = 256;
  options.repairMovesPerEpoch = 4;
  options.seed = 11;
  return options;
}

// ------------------------------------------------------------ multi-run

// A reused loop must behave exactly like a fresh one on the same trace:
// run() resets the event-ordinal and epoch counters that key the decision
// and repair rng streams. Before the reset contract this diverged — the
// second run of a reused loop continued the ordinal sequence and drew
// different streams than a fresh loop.
TEST(MultiRunContract, ReusedLoopMatchesFreshLoopOnTheSecondTrace) {
  const AllocatorOptions allocOpts{.bins = 24, .arrivalChoices = 2};
  const LoopOptions options = hotpathOptions();

  // Universe A: one loop reused across both traces.
  OnlineAllocator reusedAlloc(allocOpts);
  EpochLoop reusedLoop(reusedAlloc, options);
  auto traceA1 = makePoisson(24, 2048, 3);
  reusedLoop.run(*traceA1);
  OffsetBalls traceA2(makePoisson(24, 1536, 7), 1'000'000);
  const auto reusedResult = reusedLoop.run(traceA2);

  // Universe B: same allocator lifetime, but a fresh loop per trace.
  OnlineAllocator freshAlloc(allocOpts);
  {
    EpochLoop first(freshAlloc, options);
    auto traceB1 = makePoisson(24, 2048, 3);
    first.run(*traceB1);
  }
  EpochLoop second(freshAlloc, options);
  OffsetBalls traceB2(makePoisson(24, 1536, 7), 1'000'000);
  const auto freshResult = second.run(traceB2);

  EXPECT_EQ(reusedAlloc.loads(), freshAlloc.loads());
  EXPECT_TRUE(countersEqual(reusedAlloc.counters(), freshAlloc.counters()));
  EXPECT_EQ(reusedAlloc.liveBalls(), freshAlloc.liveBalls());
  EXPECT_EQ(reusedResult.events, freshResult.events);
  EXPECT_EQ(reusedResult.epochs, freshResult.epochs);
  EXPECT_TRUE(reusedAlloc.validate());
}

// ------------------------------------------------------- zero allocation

// Steady-state epochs allocate nothing: against a perfectly balanced
// allocator (built below with explicit placement decisions, so the balance
// is by construction, not by stochastic convergence), a resample-only
// trace is rejected by the strict rule from the first event on. The
// deferred accounting never marks a bin dirty, and all epoch-scoped
// storage (batch, decisions) is reused at its first-epoch capacity — so
// every epoch after the first must perform zero heap allocations.
TEST(SteadyStateAllocations, FusedPathIsAllocationFree) {
  constexpr std::int64_t kBins = 64;
  constexpr std::int64_t kBalls = 256;  // exactly 4 per bin: gap 0
  constexpr std::int64_t kEpochEvents = 256;
  constexpr std::int64_t kResampleEpochs = 16;

  OnlineAllocator allocator(AllocatorOptions{.bins = kBins, .arrivalChoices = 2});
  for (std::int64_t ball = 0; ball < kBalls; ++ball) {
    workload::Event e;
    e.kind = workload::EventKind::kArrive;
    e.ball = ball;
    e.weight = 1;
    allocator.apply(e, Decision{static_cast<std::int32_t>(ball % kBins)});
  }
  ASSERT_EQ(allocator.gap(), 0);

  LoopOptions options = hotpathOptions();
  options.epochEvents = kEpochEvents;
  EpochLoop loop(allocator, options);

  ResampleOnlyTrace trace(kBalls, kEpochEvents * kResampleEpochs);

  // Per-epoch allocation counts, recorded inside the callback. Reserved up
  // front so the recording itself never allocates while counting is live.
  std::vector<std::int64_t> perEpoch;
  perEpoch.reserve(64);
  std::int64_t last = 0;
  g_allocCount.store(0);
  g_countAllocs.store(true);
  const auto result = loop.run(trace, [&](const EpochStats&) {
    const std::int64_t now = allocCount();
    perEpoch.push_back(now - last);
    last = now;
  });
  g_countAllocs.store(false);

  ASSERT_EQ(result.epochs, kResampleEpochs);
  // Steady state by construction: nothing moved, gap stayed 0.
  EXPECT_EQ(allocator.gap(), 0);
  EXPECT_EQ(allocator.counters().migrations, 0);
  EXPECT_EQ(allocator.counters().repairMigrations, 0);
  // Epoch 0 may allocate (buffers grow to capacity); every later epoch
  // must be allocation-free.
  ASSERT_EQ(perEpoch.size(), static_cast<std::size_t>(kResampleEpochs));
  for (std::size_t i = 1; i < perEpoch.size(); ++i) {
    EXPECT_EQ(perEpoch[i], 0) << "epoch " << i << " allocated";
  }
  EXPECT_TRUE(allocator.validate());
}

// ---------------------------------------------------------- lazy flush

// The deferred accounting must be invisible through the public API: after
// raw apply() calls with no event loop (and therefore no explicit flush),
// the merged views reconcile lazily and agree with first-principles
// bookkeeping.
TEST(DeferredAccounting, AccessorsReconcileWithoutAnExplicitFlush) {
  OnlineAllocator allocator(AllocatorOptions{.bins = 8, .arrivalChoices = 1});
  rng::Xoshiro256pp eng(5);
  const std::vector<std::int64_t>& live = allocator.loads();
  for (std::int64_t ball = 0; ball < 40; ++ball) {
    workload::Event e;
    e.kind = workload::EventKind::kArrive;
    e.ball = ball;
    e.weight = 1 + (ball % 3);
    allocator.apply(e, allocator.decide(e, eng));
  }
  std::int64_t lo = live[0];
  std::int64_t hi = live[0];
  std::int64_t total = 0;
  for (const std::int64_t v : live) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    total += v;
  }
  EXPECT_EQ(allocator.balanceState().minLoad, lo);
  EXPECT_EQ(allocator.balanceState().maxLoad, hi);
  EXPECT_EQ(allocator.gap(), hi - lo);
  EXPECT_EQ(allocator.totalLoad(), total);
  EXPECT_TRUE(allocator.validate());

  // A delta left pending by a later apply() reconciles lazily too.
  workload::Event depart;
  depart.kind = workload::EventKind::kDepart;
  depart.ball = 0;
  allocator.apply(depart, Decision{});
  EXPECT_TRUE(allocator.validate());
  EXPECT_EQ(allocator.totalLoad(), total - 1);
}

}  // namespace
}  // namespace rlslb::serve
