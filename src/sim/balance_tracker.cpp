#include "sim/balance_tracker.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"

namespace rlslb::sim {

BalanceTracker::BalanceTracker(std::int64_t numBins) : counts_(1, 0) {
  RLSLB_ASSERT_MSG(numBins >= 1 && numBins <= INT32_MAX,
                   "BalanceTracker needs 1..INT32_MAX bins");
  counts_[0] = static_cast<std::int32_t>(numBins);
  state_.numBins = numBins;
}

void BalanceTracker::reset(const std::vector<std::int64_t>& loads) {
  RLSLB_ASSERT_MSG(!loads.empty(), "BalanceTracker needs at least one bin");
  state_ = BalanceState{};
  state_.numBins = static_cast<std::int64_t>(loads.size());
  std::int64_t maxLoad = 0;
  for (const std::int64_t v : loads) {
    RLSLB_ASSERT(v >= 0);
    maxLoad = std::max(maxLoad, v);
    state_.numBalls += v;
  }
  counts_.assign(static_cast<std::size_t>(maxLoad) + 1, 0);
  state_.minLoad = maxLoad;
  state_.maxLoad = 0;
  for (const std::int64_t v : loads) {
    ++counts_[static_cast<std::size_t>(v)];
    state_.minLoad = std::min(state_.minLoad, v);
    state_.maxLoad = std::max(state_.maxLoad, v);
  }
  ceilAvg_ = (state_.numBalls + state_.numBins - 1) / state_.numBins;
  recomputeOverloaded();
}

void BalanceTracker::recomputeOverloaded() {
  state_.overloadedBalls = 0;
  for (std::int64_t v = ceilAvg_ + 1; v <= state_.maxLoad; ++v) {
    state_.overloadedBalls +=
        (v - ceilAvg_) * counts_[static_cast<std::size_t>(v)];
  }
}

void BalanceTracker::grow(std::int64_t level) {
  counts_.resize(std::max<std::size_t>(static_cast<std::size_t>(level) + 1,
                                       counts_.size() * 2),
                 0);
}

void BalanceTracker::resetCeiling() {
  ceilAvg_ = (state_.numBalls + state_.numBins - 1) / state_.numBins;
  recomputeOverloaded();
}

}  // namespace rlslb::sim
