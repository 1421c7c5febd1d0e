// Distribution tests for the serving layer's random choices, written
// against what both the load-weighted and the unit-rate-clock repair share
// in law, so they hold across a re-specification of the streams:
//   - RepairPick: with unit weights, the ball a repair activation picks is
//     uniform over the live balls (chi-square over balls, jointly with the
//     uniform candidate bin and the strict rule), for both allocators;
//   - FrozenBaseline: the production loop's per-run mean epoch gap and
//     repair-accept ratio over 40 seeds are two-sample-KS indistinguishable
//     from the frozen load-weighted reference (tests/serve_reference.hpp,
//     Semantics::kLoadWeightedRepair) over 40 other seeds.
// Byte-exactness against the reference's current mode is pinned separately
// by tests/test_serve_differential.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capacity/compact_allocator.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "runner/thread_pool.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "serve_reference.hpp"
#include "stats/tests.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {
namespace {

// ------------------------------------------------ repair pick

constexpr std::int64_t kPickBins = 10;
constexpr std::int64_t kPickArrivals = 70;
constexpr std::int64_t kPickTrials = 30000;

/// Bin of arrival `ball`: bin b is listed b + 1 times, walked with a
/// stride coprime to the list length, so loads range over ~1..12 and each
/// bin's balls arrive interleaved with the others'.
std::int32_t pickBinOf(std::int64_t ball) {
  std::vector<std::int32_t> list;
  for (std::int32_t b = 0; b < kPickBins; ++b) list.insert(list.end(), b + 1, b);
  return list[static_cast<std::size_t>((ball * 7) % static_cast<std::int64_t>(list.size()))];
}

/// Departed after all arrivals, so the live-ball bookkeeping has seen
/// swap-removes from the middle.
bool pickDeparts(std::int64_t ball) { return ball % 6 == 3; }

template <class Allocator>
std::int64_t loadOf(const Allocator& a, std::int32_t bin) {
  return static_cast<std::int64_t>(a.loads()[static_cast<std::size_t>(bin)]);
}

template <class Allocator>
void applyOne(Allocator& a, workload::EventKind kind, std::int64_t ball, std::int32_t bin) {
  const workload::Event event{0.0, kind, ball, kind == workload::EventKind::kArrive ? 1 : 0};
  const Decision decision{bin};
  a.applyBatch(&event, &decision, 1);
}

template <class Allocator>
class RepairPick : public ::testing::Test {};
using Allocators = ::testing::Types<OnlineAllocator, capacity::CompactAllocator>;
TYPED_TEST_SUITE(RepairPick, Allocators);

// P(ball b moves) = (1/m) * a(bin(b)), where a(s) is the share of candidate
// bins d != s with load(d) + 1 < load(s): a uniform ball, an independent
// uniform candidate, the strict rule. The moved ball is identified by
// departing each ball of the source bin from a copy of the post-repair
// state and seeing which bin loses it.
TYPED_TEST(RepairPick, ActivatedBallIsUniformOverLiveBalls) {
  TypeParam base(AllocatorOptions{.bins = kPickBins, .arrivalChoices = 1});
  std::vector<std::int32_t> binOf(kPickArrivals, -1);
  for (std::int64_t ball = 0; ball < kPickArrivals; ++ball) {
    binOf[static_cast<std::size_t>(ball)] = pickBinOf(ball);
    applyOne(base, workload::EventKind::kArrive, ball, pickBinOf(ball));
  }
  for (std::int64_t ball = 0; ball < kPickArrivals; ++ball) {
    if (!pickDeparts(ball)) continue;
    applyOne(base, workload::EventKind::kDepart, ball, -1);
    binOf[static_cast<std::size_t>(ball)] = -1;
  }
  base.flush();
  ASSERT_TRUE(base.validate());
  const std::int64_t live = base.liveBalls();

  // Expected move probability per live ball; balls that can never move
  // (no strictly lighter-by-two bin) get their own zero check.
  std::vector<std::int64_t> liveIds;
  std::vector<double> moveProb;
  double anyMove = 0.0;
  for (std::int64_t ball = 0; ball < kPickArrivals; ++ball) {
    const std::int32_t src = binOf[static_cast<std::size_t>(ball)];
    if (src < 0) continue;
    std::int64_t accepting = 0;
    for (std::int32_t d = 0; d < kPickBins; ++d) {
      if (d != src && loadOf(base, d) + 1 < loadOf(base, src)) ++accepting;
    }
    liveIds.push_back(ball);
    moveProb.push_back(static_cast<double>(accepting) /
                       static_cast<double>(kPickBins * live));
    anyMove += moveProb.back();
  }
  ASSERT_EQ(static_cast<std::int64_t>(liveIds.size()), live);

  std::vector<std::int64_t> moved(liveIds.size(), 0);
  std::int64_t stayed = 0;
  for (std::int64_t t = 0; t < kPickTrials; ++t) {
    TypeParam trial = base;
    rng::Xoshiro256pp eng(rng::streamSeed(0x7069636bULL, static_cast<std::uint64_t>(t)));
    if (!trial.repairMove(eng)) {
      ++stayed;
      continue;
    }
    std::int32_t src = -1;
    std::int32_t dst = -1;
    for (std::int32_t b = 0; b < kPickBins; ++b) {
      if (loadOf(trial, b) < loadOf(base, b)) src = b;
      if (loadOf(trial, b) > loadOf(base, b)) dst = b;
    }
    ASSERT_GE(src, 0);
    ASSERT_GE(dst, 0);
    int found = 0;
    for (std::size_t i = 0; i < liveIds.size(); ++i) {
      if (binOf[static_cast<std::size_t>(liveIds[i])] != src) continue;
      TypeParam probe = trial;
      applyOne(probe, workload::EventKind::kDepart, liveIds[i], -1);
      probe.flush();
      if (loadOf(probe, dst) < loadOf(trial, dst)) {
        ++moved[i];
        ++found;
      }
    }
    ASSERT_EQ(found, 1) << "trial " << t;
  }

  std::vector<std::int64_t> observed = {stayed};
  std::vector<double> expected = {(1.0 - anyMove) * static_cast<double>(kPickTrials)};
  std::int64_t movable = 0;
  for (std::size_t i = 0; i < liveIds.size(); ++i) {
    if (moveProb[i] == 0.0) {
      EXPECT_EQ(moved[i], 0) << "ball " << liveIds[i] << " cannot legally move";
      continue;
    }
    ++movable;
    observed.push_back(moved[i]);
    expected.push_back(moveProb[i] * static_cast<double>(kPickTrials));
  }
  ASSERT_GE(movable, 20);
  const stats::TestResult chi = stats::chiSquareGof(observed, expected);
  EXPECT_GT(chi.pValue, 1e-3) << "chi2 = " << chi.statistic << " over " << observed.size()
                              << " categories";
}

// ------------------------------------------------ frozen baseline

constexpr int kSeeds = 40;

workload::OpenTraceOptions baselineTrace() {
  workload::OpenTraceOptions o;
  o.bins = 32;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 0.25;
  o.ballWeight = 1;
  o.maxEvents = 8192;
  return o;
}

std::unique_ptr<workload::TraceGenerator> makeBaselineTrace(bool bursty,
                                                            std::uint64_t seed) {
  if (bursty) {
    return std::make_unique<workload::BurstyTrace>(
        workload::BurstyTraceOptions{.base = baselineTrace()}, seed);
  }
  return std::make_unique<workload::PoissonTrace>(baselineTrace(), seed);
}

constexpr std::int64_t kBaselineEpochEvents = 256;
constexpr int kBaselineRepair = 16;
constexpr std::int64_t kBaselineWarmupEpochs = 8;
// d = 1 (uniform arrivals) and a slow resample clock leave imbalance for
// the repair budget to act on, so both statistics are far from degenerate.
constexpr AllocatorOptions kBaselineAllocator{.bins = 32, .arrivalChoices = 1};

/// Per-run statistics: the mean post-warmup epoch gap and the share of
/// repair activations that moved a ball.
struct RunStats {
  double meanGap = 0.0;
  double repairAccept = 0.0;
};

template <class Stats>
struct GapMean {
  double sum = 0.0;
  std::int64_t epochs = 0;
  void operator()(const Stats& s) {
    if (s.epoch < kBaselineWarmupEpochs) return;
    sum += static_cast<double>(s.gap());
    ++epochs;
  }
};

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

RunStats runProduction(bool bursty, std::uint64_t seed) {
  auto trace = makeBaselineTrace(bursty, seed);
  OnlineAllocator allocator(kBaselineAllocator);
  LoopOptions options;
  options.epochEvents = kBaselineEpochEvents;
  options.repairMovesPerEpoch = kBaselineRepair;
  options.seed = seed;
  EpochLoop loop(allocator, options);
  GapMean<EpochStats> gaps;
  loop.run(*trace, std::ref(gaps));
  const ServeCounters& c = allocator.counters();
  return {gaps.sum / static_cast<double>(gaps.epochs),
          ratio(c.repairMigrations, c.repairAttempts)};
}

RunStats runFrozenReference(bool bursty, std::uint64_t seed) {
  auto trace = makeBaselineTrace(bursty, seed);
  reference::ReferenceAllocator allocator(kBaselineAllocator,
                                          reference::Semantics::kLoadWeightedRepair);
  runner::ThreadPool pool(1);
  reference::ReferenceEventLoop loop(
      allocator,
      reference::ReferenceEventLoop::Options{.shards = 4,
                                             .epochEvents = kBaselineEpochEvents,
                                             .repairMovesPerEpoch = kBaselineRepair,
                                             .seed = seed},
      pool);
  GapMean<reference::ReferenceEpochStats> gaps;
  loop.run(*trace, std::ref(gaps));
  const ServeCounters& c = allocator.counters();
  return {gaps.sum / static_cast<double>(gaps.epochs),
          ratio(c.repairMigrations, c.repairAttempts)};
}

void expectSameLawAsFrozenReference(bool bursty) {
  std::vector<double> gapProd;
  std::vector<double> gapRef;
  std::vector<double> acceptProd;
  std::vector<double> acceptRef;
  for (int i = 0; i < kSeeds; ++i) {
    const RunStats prod = runProduction(bursty, static_cast<std::uint64_t>(1 + i));
    const RunStats ref = runFrozenReference(bursty, static_cast<std::uint64_t>(1001 + i));
    gapProd.push_back(prod.meanGap);
    gapRef.push_back(ref.meanGap);
    acceptProd.push_back(prod.repairAccept);
    acceptRef.push_back(ref.repairAccept);
  }
  const stats::TestResult gap = stats::ksTwoSample(gapProd, gapRef);
  const stats::TestResult accept = stats::ksTwoSample(acceptProd, acceptRef);
  EXPECT_GT(gap.pValue, 1e-3) << "epoch gap KS D = " << gap.statistic;
  EXPECT_GT(accept.pValue, 1e-3) << "repair-accept KS D = " << accept.statistic;
  // Not degenerate: the repair budget does act, and not always.
  const double acceptMean = [&] {
    double s = 0.0;
    for (const double v : acceptProd) s += v;
    return s / static_cast<double>(acceptProd.size());
  }();
  EXPECT_GT(acceptMean, 0.02);
  EXPECT_LT(acceptMean, 0.98);
}

TEST(FrozenBaseline, PoissonGapAndRepairAcceptMatchInLaw) {
  expectSameLawAsFrozenReference(false);
}

TEST(FrozenBaseline, BurstyGapAndRepairAcceptMatchInLaw) {
  expectSameLawAsFrozenReference(true);
}

}  // namespace
}  // namespace rlslb::serve
