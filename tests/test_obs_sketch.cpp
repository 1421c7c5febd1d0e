// Streaming-sketch coverage (src/obs/sketch.hpp):
//   - bucket geometry: sketchBucketOf/Lo/Hi are a consistent partition of
//     the non-negative int64 range, exact below 2^(kSubBits+1);
//   - differential quantile accuracy against exact order statistics for
//     uniform, exponential, and adversarial-burst inputs (the documented
//     ~3.1% relative-error bound plus the midpoint half-width);
//   - order independence: the same values observed in a different order
//     render a byte-identical snapshot;
//   - CUSUM: detects a genuine level shift quickly, stays quiet on the
//     baseline process (no false positives), and rearms cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/sketch.hpp"
#include "rng/xoshiro256pp.hpp"

namespace rlslb::obs {
namespace {

// ------------------------------------------------------------- geometry

TEST(SketchBuckets, ExactRegionAndPartitionConsistency) {
  // Values below the sub-bucket region map to themselves.
  for (std::int64_t v = 0; v < (1 << (kSketchSubBits + 1)); ++v) {
    EXPECT_EQ(sketchBucketOf(v), static_cast<int>(v));
    EXPECT_EQ(sketchBucketLo(static_cast<int>(v)), v);
  }
  // Every value lands inside its bucket's [lo, hi] range, and bucket
  // edges tile without gaps.
  for (std::int64_t v : {std::int64_t{64}, std::int64_t{65}, std::int64_t{100},
                         std::int64_t{1023}, std::int64_t{1024}, std::int64_t{1025},
                         std::int64_t{1} << 40, (std::int64_t{1} << 62) + 12345,
                         INT64_MAX}) {
    const int b = sketchBucketOf(v);
    EXPECT_GE(v, sketchBucketLo(b)) << "v=" << v;
    EXPECT_LE(v, sketchBucketHi(b)) << "v=" << v;
  }
  for (int b = 1; b + 1 < kSketchSlots; ++b) {
    EXPECT_EQ(sketchBucketHi(b) + 1, sketchBucketLo(b + 1)) << "bucket " << b;
    EXPECT_LE(sketchBucketLo(b), sketchBucketHi(b)) << "bucket " << b;
  }
  // Negatives collapse to bucket 0.
  EXPECT_EQ(sketchBucketOf(-5), 0);
  EXPECT_EQ(sketchBucketOf(0), 0);
}

TEST(SketchBuckets, RelativeWidthIsBounded) {
  // Above the exact region, (hi - lo) / lo <= 2^-kSubBits (~3.1%).
  for (int b = (1 << (kSketchSubBits + 1)); b + 1 < kSketchSlots; ++b) {
    const double lo = static_cast<double>(sketchBucketLo(b));
    const double hi = static_cast<double>(sketchBucketHi(b));
    EXPECT_LE((hi - lo) / lo, 1.0 / (1 << kSketchSubBits) + 1e-12) << "bucket " << b;
  }
}

// ------------------------------------------------- differential accuracy

/// Exact order statistic with the sketch's rank convention:
/// the ceil(q * N)-th smallest (1-based), clamped to [1, N].
std::int64_t exactQuantile(std::vector<std::int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

void expectQuantilesClose(const std::vector<std::int64_t>& values, const char* label) {
  QuantileSketch sketch;
  for (const std::int64_t v : values) sketch.observe(v);
  ASSERT_EQ(sketch.count(), static_cast<std::int64_t>(values.size()));
  EXPECT_EQ(sketch.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.max(), *std::max_element(values.begin(), values.end()));
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const std::int64_t exact = exactQuantile(values, q);
    const std::int64_t approx = sketch.quantile(q);
    // The exact answer lives in some bucket; the sketch returns that
    // bucket's midpoint, so the error is at most one bucket width:
    // <= max(1, exact / 2^kSubBits), doubled for slack at bucket edges.
    const double tol =
        std::max(1.0, static_cast<double>(exact) / (1 << kSketchSubBits)) * 2.0 + 1.0;
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact), tol)
        << label << " q=" << q;
  }
}

TEST(QuantileSketch_, UniformInputMatchesExactQuantiles) {
  rng::Xoshiro256pp eng(42);
  std::vector<std::int64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<std::int64_t>(eng.next() % 1'000'000));
  }
  expectQuantilesClose(values, "uniform");
}

TEST(QuantileSketch_, ExponentialInputMatchesExactQuantiles) {
  rng::Xoshiro256pp eng(7);
  std::vector<std::int64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double u =
        (static_cast<double>(eng.next() >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
    values.push_back(static_cast<std::int64_t>(-50'000.0 * std::log(u)));
  }
  expectQuantilesClose(values, "exponential");
}

TEST(QuantileSketch_, AdversarialBurstsMatchExactQuantiles) {
  // Heavy duplicate mass at a handful of spikes with a huge dynamic
  // range -- the shape that breaks order-dependent sketches.
  std::vector<std::int64_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back(3);
  for (int i = 0; i < 5000; ++i) values.push_back(1'000'000);
  for (int i = 0; i < 200; ++i) values.push_back(std::int64_t{1} << 50);
  for (int i = 0; i < 50; ++i) values.push_back(0);
  expectQuantilesClose(values, "bursts");
}

// -------------------------------------------------- order independence

TEST(QuantileSketch_, SnapshotIsIndependentOfObservationOrder) {
  constexpr std::int64_t kOps = 8192;
  const auto valueAt = [](std::int64_t i) {
    return (i * 2654435761LL) % 1'000'003;  // fixed pseudo-random workload
  };
  QuantileSketch forward;
  QuantileSketch backward;
  for (std::int64_t i = 0; i < kOps; ++i) forward.observe(valueAt(i));
  for (std::int64_t i = kOps - 1; i >= 0; --i) backward.observe(valueAt(i));
  EXPECT_EQ(forward.count(), kOps);
  EXPECT_EQ(forward.toJson().dump(), backward.toJson().dump());
}

TEST(QuantileSketch_, ClearEmptiesCounts) {
  QuantileSketch sketch;
  sketch.observe(100);
  ASSERT_FALSE(sketch.empty());
  sketch.clear();
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.quantile(0.5), 0);
  EXPECT_EQ(sketch.min(), 0);
  EXPECT_EQ(sketch.max(), 0);
}

// -------------------------------------------------------------- drift

TEST(Ewma_, FirstSamplePrimesDirectly) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.primed());
  EXPECT_EQ(ewma.update(10.0), 10.0);
  EXPECT_TRUE(ewma.primed());
  EXPECT_EQ(ewma.update(20.0), 15.0);
}

/// Deterministic jittered baseline around `mean`: +/- jitter alternating
/// with a 4-phase pattern so the fitted sigma is positive.
double baselineSample(std::int64_t i, double mean, double jitter) {
  static constexpr double kPhase[4] = {1.0, -0.5, 0.25, -0.75};
  return mean + jitter * kPhase[i % 4];
}

TEST(CusumDetector_, DetectsALevelShiftQuickly) {
  CusumDetector detector;  // warmup 32, slack 0.5 sigma, threshold 8 sigma
  for (std::int64_t i = 0; i < 64; ++i) {
    ASSERT_FALSE(detector.update(baselineSample(i, 100.0, 4.0))) << "i=" << i;
  }
  ASSERT_TRUE(detector.baselineFrozen());
  EXPECT_NEAR(detector.baselineMean(), 100.0, 1.0);

  // Shift the level far above the fitted sigma: must trigger within a
  // handful of samples, and exactly once until rearmed.
  bool fired = false;
  std::int64_t firedAt = -1;
  for (std::int64_t i = 0; i < 32; ++i) {
    if (detector.update(baselineSample(i, 160.0, 4.0))) {
      ASSERT_FALSE(fired) << "update() must report the crossing only once";
      fired = true;
      firedAt = i;
    }
  }
  EXPECT_TRUE(fired);
  EXPECT_LE(firedAt, 16);
  EXPECT_TRUE(detector.triggered());

  // rearm() keeps the baseline and can detect a second shift.
  detector.rearm();
  EXPECT_FALSE(detector.triggered());
  bool refired = false;
  for (std::int64_t i = 0; i < 32; ++i) {
    refired = detector.update(baselineSample(i, 40.0, 4.0)) || refired;
  }
  EXPECT_TRUE(refired) << "downward shifts must trip the two-sided statistic";
}

TEST(CusumDetector_, NoFalsePositivesOnTheBaselineProcess) {
  CusumDetector detector;
  for (std::int64_t i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(detector.update(baselineSample(i, 100.0, 4.0))) << "i=" << i;
  }
  EXPECT_FALSE(detector.triggered());
}

TEST(CusumDetector_, SigmaFloorTamesNearConstantBaselines) {
  // A baseline with zero variance would standardize any later change to
  // an infinite z; the minSigmaFraction floor keeps it finite but the
  // detector must still fire on a real (multi-percent) shift.
  CusumDetector detector;
  for (std::int64_t i = 0; i < 32; ++i) ASSERT_FALSE(detector.update(100.0));
  ASSERT_TRUE(detector.baselineFrozen());
  bool fired = false;
  for (std::int64_t i = 0; i < 64 && !fired; ++i) fired = detector.update(110.0);
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace rlslb::obs
