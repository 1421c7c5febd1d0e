#include "serve/online_allocator.hpp"

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::serve {

OnlineAllocator::OnlineAllocator(const AllocatorOptions& options)
    : options_(options),
      loads_(static_cast<std::size_t>(options.bins), 0),
      dirtyMark_(static_cast<std::size_t>(options.bins), 0),
      tracker_(options.bins) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.arrivalChoices >= 1,
                   "AllocatorOptions.arrivalChoices must be >= 1");
}

void OnlineAllocator::apply(const workload::Event& event, const Decision& decision) {
  applyBatch(&event, &decision, 1);
}

void OnlineAllocator::applyBatch(const workload::Event* events, const Decision* decisions,
                                 std::size_t count) {
  // The fused hot loop. Counters accumulate in locals so they live in
  // registers across the batch instead of bouncing through memory per
  // event; the logic per event is exactly apply()'s (which forwards here
  // with count 1). Depart slots of `decisions` are never read.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;
  std::int64_t rejected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Event& event = events[i];
    switch (event.kind) {
      case workload::EventKind::kArrive: {
        const Decision& decision = decisions[i];
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        ++arrivals;
        placeBall(event.ball, event.weight, decision.bin);
        break;
      }
      case workload::EventKind::kDepart: {
        ++departures;
        BallRec* it = balls_.find(event.ball);
        RLSLB_ASSERT_MSG(it != nullptr, "depart event for a ball that is not live");
        const BallRec rec = *it;
        balls_.erase(it);
        eraseLive(rec);
        changeLoad(rec.bin, -rec.weight);
        break;
      }
      case workload::EventKind::kResample: {
        const Decision& decision = decisions[i];
        ++resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        BallRec* it = balls_.find(event.ball);
        RLSLB_ASSERT_MSG(it != nullptr, "resample event for a ball that is not live");
        const std::int32_t src = it->bin;
        const std::int32_t dst = decision.bin;
        // Strict local-search rule on *live* loads: the sampled candidate
        // came from the epoch snapshot stream, but the acceptance must never
        // worsen balance, so it is re-checked here.
        if (dst != src && ((loads_[static_cast<std::size_t>(dst)] + it->weight <
                            loads_[static_cast<std::size_t>(src)]) !=
                           options_.invertAcceptance)) {
          ++migrations;
          moveBall(it, dst);
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

bool OnlineAllocator::repairMove(rng::Xoshiro256pp& eng) {
  if (live_.empty()) return false;
  ++counters_.repairAttempts;
  // Unit-rate ball clocks: activate a uniformly random live ball.
  const std::int64_t ball = live_[static_cast<std::size_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(live_.size())))];
  const auto dst = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
  BallRec* it = balls_.find(ball);
  RLSLB_ASSERT(it != nullptr);
  const std::int32_t src = it->bin;
  if (dst == src || ((loads_[static_cast<std::size_t>(dst)] + it->weight <
                      loads_[static_cast<std::size_t>(src)]) ==
                     options_.invertAcceptance)) {
    return false;
  }
  ++counters_.repairMigrations;
  moveBall(it, dst);
  return true;
}

void OnlineAllocator::changeLoad(std::int32_t bin, std::int64_t delta) {
  const auto g = static_cast<std::size_t>(bin);
  const std::int64_t before = loads_[g];
  const std::int64_t after = before + delta;
  RLSLB_ASSERT(after >= 0);
  loads_[g] = after;
  totalLoad_ += delta;
  std::uint8_t& mark = dirtyMark_[g];
  if (mark == 0) {
    mark = 1;
    dirty_.push_back(DirtyBin{bin, before});
  }
}

void OnlineAllocator::flush() {
  for (const DirtyBin& d : dirty_) {
    const auto b = static_cast<std::size_t>(d.bin);
    const std::int64_t after = loads_[b];
    dirtyMark_[b] = 0;
    if (after == d.before) continue;  // net-zero over the batch: nothing to do
    tracker_.onLoadChange(d.before, after);
    ++flushedBins_;
  }
  dirty_.clear();
}

void OnlineAllocator::placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin) {
  RLSLB_ASSERT(weight >= 1);
  if (weight > maxWeightSeen_) maxWeightSeen_ = weight;
  const auto [it, inserted] =
      balls_.emplace(ball, BallRec{bin, static_cast<std::int32_t>(live_.size()), weight});
  RLSLB_ASSERT_MSG(inserted, "arrive event for a ball id that is already live");
  (void)it;
  live_.push_back(ball);
  changeLoad(bin, weight);
}

void OnlineAllocator::eraseLive(const BallRec& rec) {
  const std::int64_t moved = live_.back();
  live_[static_cast<std::size_t>(rec.slot)] = moved;
  live_.pop_back();
  if (static_cast<std::size_t>(rec.slot) < live_.size()) balls_.at(moved).slot = rec.slot;
}

void OnlineAllocator::moveBall(BallRec* rec, std::int32_t toBin) {
  const std::int32_t fromBin = rec->bin;
  rec->bin = toBin;
  changeLoad(fromBin, -rec->weight);
  changeLoad(toBin, rec->weight);
}

std::int64_t OnlineAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  return vecBytes(loads_) + vecBytes(live_) + vecBytes(dirty_) + vecBytes(dirtyMark_) +
         static_cast<std::int64_t>(balls_.heapBytes()) + tracker_.heapBytes();
}

sim::BalanceState OnlineAllocator::balanceState() const {
  // Settle deltas a raw apply() left pending, as validate() does; the
  // event loop flushes every epoch, so this is a no-op there.
  if (!dirty_.empty()) const_cast<OnlineAllocator*>(this)->flush();
  return tracker_.state();
}

bool OnlineAllocator::validate() const {
  const_cast<OnlineAllocator*>(this)->flush();
  if (balls_.size() != live_.size()) return false;
  std::vector<std::int64_t> binLoad(loads_.size(), 0);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const BallRec* it = balls_.find(live_[i]);
    if (it == nullptr) return false;
    if (it->slot != static_cast<std::int32_t>(i)) return false;
    if (it->bin < 0 || it->bin >= static_cast<std::int32_t>(loads_.size())) return false;
    binLoad[static_cast<std::size_t>(it->bin)] += it->weight;
  }
  if (binLoad != loads_) return false;
  std::int64_t total = 0;
  for (const std::int64_t load : loads_) total += load;
  if (total != totalLoad_) return false;
  for (const std::uint8_t mark : dirtyMark_) {
    if (mark != 0) return false;  // flushed above: nothing may stay dirty
  }
  return true;
}

}  // namespace rlslb::serve
