#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>

namespace rlslb::obs {

std::int64_t QuantileSketch::quantile(double q) const {
  const std::int64_t total = count_;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based; q=0 is the 1st (min side).
  const auto target =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total))));
  std::int64_t cum = 0;
  for (int b = 0; b < kSketchSlots; ++b) {
    cum += buckets_[static_cast<std::size_t>(b)];
    if (cum >= target) {
      const std::int64_t lo = sketchBucketLo(b);
      const std::int64_t hi = sketchBucketHi(b);
      return lo + (hi - lo) / 2;
    }
  }
  return max();  // unreachable: cum == total covers every target
}

void QuantileSketch::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  minValue_ = INT64_MAX;
  maxValue_ = INT64_MIN;
}

report::Json QuantileSketch::toJson() const {
  report::Json j = report::Json::object();
  j.set("count", count());
  j.set("min", min());
  j.set("max", max());
  j.set("p50", quantile(0.50));
  j.set("p90", quantile(0.90));
  j.set("p99", quantile(0.99));
  j.set("p999", quantile(0.999));
  return j;
}

bool CusumDetector::update(double x) {
  if (samples_ < options_.warmup) {
    // Welford accumulation while the baseline is still being fitted.
    ++samples_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(samples_);
    m2_ += delta * (x - mean_);
    if (samples_ == options_.warmup) {
      const double variance =
          samples_ > 1 ? m2_ / static_cast<double>(samples_ - 1) : 0.0;
      sigma_ = std::sqrt(std::max(variance, 0.0));
      const double floor = options_.minSigmaFraction * std::abs(mean_);
      sigma_ = std::max({sigma_, floor, 1e-12});
    }
    return false;
  }
  ++samples_;
  const double z = (x - mean_) / sigma_;
  gPos_ = std::max(0.0, gPos_ + z - options_.slack);
  gNeg_ = std::max(0.0, gNeg_ - z - options_.slack);
  const bool crossed =
      !triggered_ && (gPos_ > options_.threshold || gNeg_ > options_.threshold);
  if (crossed) triggered_ = true;
  return crossed;
}

}  // namespace rlslb::obs
