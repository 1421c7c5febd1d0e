#include "capacity/compact_allocator.hpp"

#include "util/assert.hpp"

namespace rlslb::capacity {

CompactAllocator::CompactAllocator(const serve::AllocatorOptions& options)
    : options_(options),
      loads_(static_cast<std::size_t>(options.bins), 0),
      dirtyMark_(static_cast<std::size_t>(options.bins), 0),
      tracker_(options.bins) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.bins <= INT32_MAX,
                   "compact backend addresses bins with int32");
  RLSLB_ASSERT_MSG(options_.arrivalChoices >= 1,
                   "AllocatorOptions.arrivalChoices must be >= 1");
}

void CompactAllocator::changeLoad(std::int32_t bin, std::int32_t delta) {
  const auto g = static_cast<std::size_t>(bin);
  const std::int32_t before = loads_[g];
  loads_[g] = before + delta;
  RLSLB_ASSERT(loads_[g] >= 0);
  std::uint8_t& mark = dirtyMark_[g];
  if (mark == 0) {
    mark = 1;
    dirty_.push_back(DirtyBin{bin, before});
  }
}

void CompactAllocator::placeBall(std::int64_t ball, std::int32_t bin) {
  RLSLB_ASSERT_MSG(ball >= 0 && ball < INT32_MAX,
                   "compact backend requires sequential int32-range ball ids");
  if (static_cast<std::size_t>(ball) >= slotOf_.size()) {
    slotOf_.resize(static_cast<std::size_t>(ball) + 1, -1);
  }
  std::int32_t& slot = slotOf_[static_cast<std::size_t>(ball)];
  RLSLB_ASSERT_MSG(slot < 0, "arrive event for a ball id that is already live");
  slot = static_cast<std::int32_t>(live_.size());
  live_.push_back(LiveBall{static_cast<std::int32_t>(ball), bin});
  changeLoad(bin, +1);
}

void CompactAllocator::removeBall(std::int64_t ball) {
  // Swap-remove from the live array, patching the moved ball's position
  // (a no-op when the ball was last), then retire the ball's index entry.
  std::int32_t& slot = slotOf_[static_cast<std::size_t>(ball)];
  const std::int32_t bin = live_[static_cast<std::size_t>(slot)].bin;
  const LiveBall moved = live_.back();
  live_[static_cast<std::size_t>(slot)] = moved;
  live_.pop_back();
  slotOf_[static_cast<std::size_t>(moved.ball)] = slot;
  slot = -1;
  changeLoad(bin, -1);
}

CompactAllocator::LiveBall& CompactAllocator::liveEntry(std::int64_t ball,
                                                        const char* notLive) {
  RLSLB_ASSERT(ball >= 0 && static_cast<std::size_t>(ball) < slotOf_.size());
  const std::int32_t slot = slotOf_[static_cast<std::size_t>(ball)];
  RLSLB_ASSERT_MSG(slot >= 0, notLive);
  return live_[static_cast<std::size_t>(slot)];
}

namespace {
// Look-ahead distances of applyBatch's prefetch pipeline, in events. Each
// stage needs the line the stage before fetched: the index entry, then the
// live-array entry it names, then the loads and dirty marks of the bins.
constexpr std::size_t kIndexAhead = 16;
constexpr std::size_t kEntryAhead = 8;
constexpr std::size_t kBinsAhead = 4;
}  // namespace

std::int32_t CompactAllocator::slotHint(std::int64_t ball) const {
  if (ball < 0 || static_cast<std::uint64_t>(ball) >= slotOf_.size()) return -1;
  return slotOf_[static_cast<std::size_t>(ball)];  // -1 while not live
}

void CompactAllocator::applyBatch(const workload::Event* events,
                                  const serve::Decision* decisions, std::size_t count) {
  // Same register-accumulated counters as the dense fused hot loop.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;
  std::int64_t rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // The look-ahead prefetch pipeline, written out in the loop body: GCC
    // drops a call to an out-of-line helper whose only effect is
    // prefetching, as side-effect free. Hints only: a slot or bin read here
    // may be stale by the time event i gets there (an earlier swap-remove
    // moves entries), which costs a miss, never a wrong result. Every
    // index is range-checked.
    if (i + kIndexAhead < count) {
      const std::int64_t ball = events[i + kIndexAhead].ball;
      if (ball >= 0 && static_cast<std::uint64_t>(ball) < slotOf_.size()) {
        __builtin_prefetch(slotOf_.data() + ball);
      }
    }
    if (i + kEntryAhead < count) {
      const std::int32_t slot = slotHint(events[i + kEntryAhead].ball);
      if (slot >= 0) __builtin_prefetch(live_.data() + slot);
    }
    if (i + kBinsAhead < count) {
      const workload::Event& e = events[i + kBinsAhead];
      const std::int32_t slot = slotHint(e.ball);
      const std::int32_t bins[2] = {
          e.kind == workload::EventKind::kDepart ? -1 : decisions[i + kBinsAhead].bin,
          slot < 0 ? -1 : live_[static_cast<std::size_t>(slot)].bin};
      for (const std::int32_t bin : bins) {
        if (bin >= 0 && static_cast<std::size_t>(bin) < loads_.size()) {
          __builtin_prefetch(loads_.data() + bin);
          __builtin_prefetch(dirtyMark_.data() + bin);
        }
      }
    }

    const workload::Event& event = events[i];
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        const serve::Decision& decision = decisions[i];
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        RLSLB_ASSERT_MSG(event.weight == 1,
                         "CompactAllocator serves unit-weight traffic only (use "
                         "serve::OnlineAllocator for weighted traces)");
        ++arrivals;
        maxWeightSeen_ = 1;
        placeBall(event.ball, decision.bin);
        break;
      }
      case workload::EventKind::kDepart: {
        ++departures;
        (void)liveEntry(event.ball, "depart event for a ball that is not live");
        removeBall(event.ball);
        break;
      }
      case workload::EventKind::kResample: {
        const serve::Decision& decision = decisions[i];
        ++resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        LiveBall& entry = liveEntry(event.ball, "resample event for a ball that is not live");
        const std::int32_t src = entry.bin;
        const std::int32_t dst = decision.bin;
        // Strict rule on live loads, unit weight: the dense acceptance
        // check with w = 1, value for value.
        if (dst != src && ((loads_[static_cast<std::size_t>(dst)] + 1 <
                            loads_[static_cast<std::size_t>(src)]) !=
                           options_.invertAcceptance)) {
          ++migrations;
          entry.bin = dst;
          changeLoad(src, -1);
          changeLoad(dst, +1);
        } else {
          ++rejected;
        }
        break;
      }
    }
  }
  counters_.events += static_cast<std::int64_t>(count);
  counters_.arrivals += arrivals;
  counters_.departures += departures;
  counters_.resamples += resamples;
  counters_.migrations += migrations;
  counters_.rejectedMoves += rejected;
}

void CompactAllocator::flush() {
  for (const DirtyBin& d : dirty_) {
    const auto g = static_cast<std::size_t>(d.bin);
    const std::int32_t after = loads_[g];
    dirtyMark_[g] = 0;
    if (after == d.before) continue;  // net-zero over the batch
    tracker_.onLoadChange(d.before, after);
    ++flushedBins_;
  }
  dirty_.clear();
}

bool CompactAllocator::repairMove(rng::Xoshiro256pp& eng) {
  if (live_.empty()) return false;
  ++counters_.repairAttempts;
  // The dense draw sequence: live-array position, then candidate bin.
  LiveBall& entry = live_[static_cast<std::size_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(live_.size())))];
  const auto dst = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
  const std::int32_t src = entry.bin;
  if (dst == src || ((loads_[static_cast<std::size_t>(dst)] + 1 <
                      loads_[static_cast<std::size_t>(src)]) ==
                     options_.invertAcceptance)) {
    return false;
  }
  ++counters_.repairMigrations;
  entry.bin = dst;
  changeLoad(src, -1);
  changeLoad(dst, +1);
  return true;
}

sim::BalanceState CompactAllocator::balanceState() const {
  // Settle deltas a raw applyBatch() left pending; a no-op under the
  // event loop, which flushes every epoch.
  if (!dirty_.empty()) const_cast<CompactAllocator*>(this)->flush();
  return tracker_.state();
}

std::int64_t CompactAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  return vecBytes(loads_) + vecBytes(slotOf_) + vecBytes(live_) + vecBytes(dirty_) +
         vecBytes(dirtyMark_) + tracker_.heapBytes();
}

std::int64_t CompactAllocator::estimateBytes(std::int64_t bins, std::int64_t ballsEver,
                                             std::int64_t liveBalls) {
  // Per bin: load (4 B) + dirty mark (1 B). Implicit ball index: 4 B per
  // ball ever arrived. Live array: one {ball, bin} pair (8 B) per live
  // ball. The dirty list and the tracker's level array are O(epoch) and
  // O(max load), noise at the sizes the budget gate guards.
  return bins * 5 + ballsEver * 4 +
         liveBalls * static_cast<std::int64_t>(sizeof(LiveBall));
}

bool CompactAllocator::validate() const {
  const_cast<CompactAllocator*>(this)->flush();
  std::vector<std::int32_t> counted(loads_.size(), 0);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const LiveBall& entry = live_[i];
    if (entry.ball < 0 || static_cast<std::size_t>(entry.ball) >= slotOf_.size()) {
      return false;
    }
    if (slotOf_[static_cast<std::size_t>(entry.ball)] != static_cast<std::int32_t>(i)) {
      return false;
    }
    if (entry.bin < 0 || entry.bin >= static_cast<std::int32_t>(loads_.size())) return false;
    ++counted[static_cast<std::size_t>(entry.bin)];
  }
  if (counted != loads_) return false;
  // Every ball the index calls live sits in the live array (the count
  // check closes the loop: no ball is live twice or missing).
  std::size_t indexedLive = 0;
  for (const std::int32_t slot : slotOf_) indexedLive += slot >= 0 ? 1 : 0;
  if (indexedLive != live_.size()) return false;
  for (const std::uint8_t mark : dirtyMark_) {
    if (mark != 0) return false;  // flushed above: nothing may stay dirty
  }
  return true;
}

}  // namespace rlslb::capacity
