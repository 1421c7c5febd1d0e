// Streaming sketches for the telemetry layer: a log-bucketed quantile
// sketch plus EWMA / CUSUM drift detectors.
//
// QuantileSketch follows the MetricsRegistry discipline exactly:
//   - The hot-path write is an index computation plus one bucket
//     increment (plus two branch-predictable min/max compares) into a
//     preallocated array -- no maps, no strings, no locks, no allocation
//     after construction.
//   - Buckets are HDR-histogram style: values 0..63 are exact, larger
//     values share an exponent block subdivided into 32 sub-buckets,
//     bounding the relative quantile error at ~3.1% while keeping the
//     whole table at a fixed 1888 slots. Answers depend only on the
//     multiset of observed values, never on their order.
//
// Ewma and CusumDetector are tiny sequential-state detectors meant to
// run at epoch/stride boundaries (see obs/monitor.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "report/json.hpp"

namespace rlslb::obs {

/// Bucket geometry: 2^kSketchSubBits sub-buckets per exponent block.
inline constexpr int kSketchSubBits = 5;
/// Total slots: exact region [0, 2^(kSubBits+1)) plus 57 log blocks of
/// 32 sub-buckets covering the rest of the non-negative int64 range.
inline constexpr int kSketchSlots =
    ((62 - kSketchSubBits) << kSketchSubBits) + (1 << (kSketchSubBits + 1));

/// Bucket index for a value. <= 0 collapses to bucket 0 (the sketch
/// tracks non-negative magnitudes: gaps, nanoseconds, queue depths).
[[nodiscard]] constexpr int sketchBucketOf(std::int64_t value) {
  if (value <= 0) return 0;
  const auto u = static_cast<std::uint64_t>(value);
  const int e = std::bit_width(u) - 1;  // floor(log2(u))
  if (e <= kSketchSubBits) return static_cast<int>(u);
  const int shift = e - kSketchSubBits;
  return ((e - kSketchSubBits) << kSketchSubBits) + static_cast<int>(u >> shift);
}

/// Inclusive lower edge of a bucket (inverse of sketchBucketOf).
[[nodiscard]] constexpr std::int64_t sketchBucketLo(int bucket) {
  if (bucket < (1 << (kSketchSubBits + 1))) return bucket;
  const int shift = (bucket >> kSketchSubBits) - 1;
  const std::int64_t sub =
      (bucket & ((1 << kSketchSubBits) - 1)) | (1 << kSketchSubBits);
  return sub << shift;
}

/// Inclusive upper edge of a bucket.
[[nodiscard]] constexpr std::int64_t sketchBucketHi(int bucket) {
  if (bucket + 1 >= kSketchSlots) return INT64_MAX;
  return sketchBucketLo(bucket + 1) - 1;
}

class QuantileSketch {
 public:
  QuantileSketch() : buckets_(static_cast<std::size_t>(kSketchSlots), 0) {}

  /// Hot-path write: bucket index + one increment, plus exact min/max
  /// maintenance.
  void observe(std::int64_t value) {
    buckets_[static_cast<std::size_t>(sketchBucketOf(value))] += 1;
    count_ += 1;
    if (value < minValue_) minValue_ = value;
    if (value > maxValue_) maxValue_ = value;
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  /// Exact extremes over every observed value (0 when empty).
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : minValue_; }
  [[nodiscard]] std::int64_t max() const { return count_ == 0 ? 0 : maxValue_; }
  /// Bucket-representative value at quantile q in [0,1]: the midpoint of
  /// the bucket containing the ceil(q * count)-th smallest observation.
  /// Relative error is bounded by the bucket width (~3.1%). 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Zero every bucket. Allocation-free.
  void clear();

  /// {"count":N,"min":..,"max":..,"p50":..,"p90":..,"p99":..,"p999":..}
  /// -- all integers, so equal sketches render byte-identically.
  [[nodiscard]] report::Json toJson() const;

 private:
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  std::int64_t minValue_ = INT64_MAX;
  std::int64_t maxValue_ = INT64_MIN;
};

/// Exponentially-weighted moving average. The first sample primes the
/// average directly so there is no zero-bias warmup.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}

  double update(double x) {
    value_ = primed_ ? value_ + alpha_ * (x - value_) : x;
    primed_ = true;
    return value_;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool primed() const { return primed_; }
  void reset() {
    value_ = 0.0;
    primed_ = false;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Two-sided CUSUM change detector. The first `warmup` samples fit a
/// baseline (Welford mean/sigma, then frozen); afterwards each sample is
/// standardized against that baseline and accumulated into the classic
/// g+/g- statistics. update() returns true on the sample that pushes
/// either statistic across `threshold`; the detector then stays
/// triggered until rearm() (new drift from the same baseline) or
/// reset() (refit the baseline too).
class CusumDetector {
 public:
  struct Options {
    std::int64_t warmup = 32;  ///< samples used to fit the frozen baseline
    double slack = 0.5;        ///< k: per-sample drift allowance, in sigmas
    double threshold = 8.0;    ///< h: trigger level, in sigmas
    /// Sigma floor as a fraction of |baseline mean|, so near-constant
    /// baselines with tiny jitter don't make every later sample an
    /// infinite-z outlier.
    double minSigmaFraction = 0.01;
  };

  // Two constructors instead of one defaulted argument: a `= Options()`
  // default would need the nested struct's member initializers inside the
  // enclosing class's complete-class context, which GCC rejects.
  CusumDetector();
  explicit CusumDetector(Options options) : options_(options) {}

  /// Feed one sample; true exactly when this sample crosses threshold.
  bool update(double x);

  [[nodiscard]] bool triggered() const { return triggered_; }
  /// Current max(g+, g-), in sigmas.
  [[nodiscard]] double statistic() const { return gPos_ > gNeg_ ? gPos_ : gNeg_; }
  [[nodiscard]] std::int64_t samples() const { return samples_; }
  [[nodiscard]] bool baselineFrozen() const { return samples_ >= options_.warmup; }
  [[nodiscard]] double baselineMean() const { return mean_; }
  [[nodiscard]] double baselineSigma() const { return sigma_; }

  /// Clear the drift statistics but keep the fitted baseline.
  void rearm() {
    gPos_ = gNeg_ = 0.0;
    triggered_ = false;
  }
  /// Back to an unfitted detector.
  void reset() {
    samples_ = 0;
    mean_ = m2_ = sigma_ = 0.0;
    rearm();
  }

 private:
  Options options_;
  std::int64_t samples_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sigma_ = 0.0;
  double gPos_ = 0.0;
  double gNeg_ = 0.0;
  bool triggered_ = false;
};

inline CusumDetector::CusumDetector() : CusumDetector(Options()) {}

}  // namespace rlslb::obs
