#include "serve/online_allocator.hpp"

#include "rng/distributions.hpp"
#include "util/assert.hpp"

namespace rlslb::serve {

OnlineAllocator::OnlineAllocator(const AllocatorOptions& options)
    : options_(options),
      loads_(static_cast<std::size_t>(options.bins), 0),
      binLoad_(static_cast<std::size_t>(options.bins), 0),
      mass_(static_cast<std::size_t>(options.bins)),
      binBalls_(static_cast<std::size_t>(options.bins)),
      dirtyMark_(static_cast<std::size_t>(options.bins), 0) {
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
        eraseBall(event.ball, rec);
        changeLoad(rec.bin, -rec.weight);
        --liveBalls_;
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
          moveBall(event.ball, it, dst);
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
  const std::int64_t total = totalLoad_;
  if (total == 0) return false;
  // The weighted walk below reads the Fenwick tree, so any deferred deltas
  // must land first. After one repair's own move, the next call's flush
  // touches at most two bins.
  flush();
  ++counters_.repairAttempts;
  // Load-weighted bin pick, then a uniform ball within the bin: with unit
  // weights this composes to a uniform pick over live balls (the RLS
  // activation); with weights it biases toward heavy bins, which is the
  // direction a repair pass wants anyway.
  const auto ticket = static_cast<std::int64_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(total)));
  const auto src = static_cast<std::int32_t>(mass_.upperBound(ticket));
  auto& srcBalls = binBalls_[static_cast<std::size_t>(src)];
  RLSLB_ASSERT(!srcBalls.empty());
  const auto pick = static_cast<std::size_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(srcBalls.size())));
  const std::int64_t ball = srcBalls[pick];
  const auto dst = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
  BallRec* it = balls_.find(ball);
  RLSLB_ASSERT(it != nullptr);
  if (dst == src || ((loads_[static_cast<std::size_t>(dst)] + it->weight <
                      loads_[static_cast<std::size_t>(src)]) ==
                     options_.invertAcceptance)) {
    return false;
  }
  ++counters_.repairMigrations;
  moveBall(ball, it, dst);
  return true;
}

void OnlineAllocator::changeLoad(std::int32_t bin, std::int64_t delta) {
  const auto g = static_cast<std::size_t>(bin);
  const std::int64_t after = loads_[g] + delta;
  RLSLB_ASSERT(after >= 0);
  loads_[g] = after;
  totalLoad_ += delta;
  markDirty(bin);
}

void OnlineAllocator::markDirty(std::int32_t bin) {
  std::uint8_t& mark = dirtyMark_[static_cast<std::size_t>(bin)];
  if (mark == 0) {
    mark = 1;
    dirty_.push_back(bin);
  }
}

void OnlineAllocator::flush() {
  for (const std::int32_t bin : dirty_) {
    const auto b = static_cast<std::size_t>(bin);
    const std::int64_t after = loads_[b];
    const std::int64_t before = binLoad_[b];
    dirtyMark_[b] = 0;
    if (after == before) continue;  // net-zero over the batch: nothing to do
    binLoad_[b] = after;
    mass_.add(b, after - before);
    ++flushedBins_;
  }
  dirty_.clear();
}

void OnlineAllocator::placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin) {
  RLSLB_ASSERT(weight >= 1);
  if (weight > maxWeightSeen_) maxWeightSeen_ = weight;
  auto& slot = binBalls_[static_cast<std::size_t>(bin)];
  const auto [it, inserted] =
      balls_.emplace(ball, BallRec{bin, weight, static_cast<std::int32_t>(slot.size())});
  RLSLB_ASSERT_MSG(inserted, "arrive event for a ball id that is already live");
  (void)it;
  slot.push_back(ball);
  changeLoad(bin, weight);
  ++liveBalls_;
}

void OnlineAllocator::eraseBall(std::int64_t ball, const BallRec& rec) {
  auto& slot = binBalls_[static_cast<std::size_t>(rec.bin)];
  RLSLB_ASSERT(slot[static_cast<std::size_t>(rec.slot)] == ball);
  const std::int64_t moved = slot.back();
  slot[static_cast<std::size_t>(rec.slot)] = moved;
  slot.pop_back();
  if (moved != ball) balls_.at(moved).slot = rec.slot;
}

void OnlineAllocator::moveBall(std::int64_t ball, BallRec* rec, std::int32_t toBin) {
  const BallRec old = *rec;
  eraseBall(ball, old);
  auto& dstSlot = binBalls_[static_cast<std::size_t>(toBin)];
  *rec = BallRec{toBin, old.weight, static_cast<std::int32_t>(dstSlot.size())};
  dstSlot.push_back(ball);
  changeLoad(old.bin, -old.weight);
  changeLoad(toBin, old.weight);
}

std::int64_t OnlineAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  std::int64_t bytes = vecBytes(loads_) + vecBytes(dirtyMark_);
  bytes += vecBytes(binLoad_) + vecBytes(dirty_);
  // Fenwick: n + 1 nodes of the element type.
  bytes += static_cast<std::int64_t>((mass_.size() + 1) * sizeof(std::int64_t));
  bytes += static_cast<std::int64_t>(binBalls_.capacity() *
                                     sizeof(std::vector<std::int64_t>));
  for (const auto& slot : binBalls_) bytes += vecBytes(slot);
  bytes += static_cast<std::int64_t>(balls_.heapBytes());
  return bytes;
}

sim::BalanceState OnlineAllocator::balanceState() const {
  return scanBalance(loads_, totalLoad_);
}

bool OnlineAllocator::validate() const {
  const_cast<OnlineAllocator*>(this)->flush();
  std::int64_t total = 0;
  for (std::size_t bin = 0; bin < binBalls_.size(); ++bin) {
    std::int64_t binLoad = 0;
    for (std::size_t i = 0; i < binBalls_[bin].size(); ++i) {
      const BallRec* it = balls_.find(binBalls_[bin][i]);
      if (it == nullptr) return false;
      if (it->bin != static_cast<std::int32_t>(bin)) return false;
      if (it->slot != static_cast<std::int32_t>(i)) return false;
      binLoad += it->weight;
    }
    if (binLoad != binLoad_[bin]) return false;
    if (binLoad != loads_[bin]) return false;
    if (mass_.get(bin) != binLoad) return false;
    total += binLoad;
  }
  if (mass_.total() != total) return false;
  if (total != totalLoad_) return false;
  if (static_cast<std::int64_t>(balls_.size()) != liveBalls_) return false;
  return true;
}

}  // namespace rlslb::serve
