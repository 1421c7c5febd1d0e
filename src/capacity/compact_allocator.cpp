#include "capacity/compact_allocator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlslb::capacity {

CompactAllocator::CompactAllocator(const serve::AllocatorOptions& options)
    : options_(options),
      loads_(static_cast<std::size_t>(options.bins), 0),
      flushedLoad_(static_cast<std::size_t>(options.bins), 0),
      mass_(static_cast<std::size_t>(options.bins)),
      dirtyMark_(static_cast<std::size_t>(options.bins), 0),
      binHead_(static_cast<std::size_t>(options.bins), -1),
      binTail_(static_cast<std::size_t>(options.bins), -1) {
  RLSLB_ASSERT_MSG(options_.bins >= 1, "AllocatorOptions.bins must be >= 1");
  RLSLB_ASSERT_MSG(options_.bins <= INT32_MAX,
                   "compact backend addresses bins with int32");
  RLSLB_ASSERT_MSG(options_.arrivalChoices >= 1,
                   "AllocatorOptions.arrivalChoices must be >= 1");
}

std::int32_t CompactAllocator::allocChunk() {
  if (freeChunk_ >= 0) {
    const std::int32_t index = freeChunk_;
    freeChunk_ = arena_[static_cast<std::size_t>(index)].next;
    return index;
  }
  RLSLB_ASSERT_MSG(arena_.size() < static_cast<std::size_t>(INT32_MAX),
                   "chunk arena exceeds int32 addressing");
  arena_.emplace_back();
  return static_cast<std::int32_t>(arena_.size() - 1);
}

void CompactAllocator::freeChunk(std::int32_t index) {
  arena_[static_cast<std::size_t>(index)].next = freeChunk_;
  freeChunk_ = index;
}

std::int32_t CompactAllocator::listAt(std::int32_t bin, std::int32_t slot) const {
  std::int32_t chunk = binHead_[static_cast<std::size_t>(bin)];
  std::int32_t remaining = slot;
  while (remaining >= kChunkSlots) {
    chunk = arena_[static_cast<std::size_t>(chunk)].next;
    remaining -= kChunkSlots;
  }
  RLSLB_ASSERT(chunk >= 0);
  return arena_[static_cast<std::size_t>(chunk)].slots[remaining];
}

void CompactAllocator::listPush(std::int32_t bin, std::int32_t ball) {
  // The new ball's slot is the pre-increment count == current load (unit
  // weights make count and load the same number).
  const std::int32_t count = loads_[static_cast<std::size_t>(bin)];
  const std::int32_t offset = count % kChunkSlots;
  std::int32_t tail = binTail_[static_cast<std::size_t>(bin)];
  if (offset == 0) {
    const std::int32_t fresh = allocChunk();
    Chunk& c = arena_[static_cast<std::size_t>(fresh)];
    c.next = -1;
    c.prev = tail;
    if (tail >= 0) {
      arena_[static_cast<std::size_t>(tail)].next = fresh;
    } else {
      binHead_[static_cast<std::size_t>(bin)] = fresh;
    }
    binTail_[static_cast<std::size_t>(bin)] = fresh;
    tail = fresh;
  }
  arena_[static_cast<std::size_t>(tail)].slots[offset] = ball;
}

void CompactAllocator::listSwapRemove(std::int32_t bin, std::int32_t slot) {
  const std::int32_t count = loads_[static_cast<std::size_t>(bin)];
  RLSLB_ASSERT(count >= 1 && slot < count);
  const std::int32_t tail = binTail_[static_cast<std::size_t>(bin)];
  const std::int32_t lastOffset = (count - 1) % kChunkSlots;
  Chunk& tailChunk = arena_[static_cast<std::size_t>(tail)];
  const std::int32_t moved = tailChunk.slots[lastOffset];
  if (slot != count - 1) {
    // Overwrite the removed slot with the last ball and repoint its index
    // entry — the dense swap-remove, so later uniform picks see the same
    // per-bin order the dense allocator maintains.
    std::int32_t chunk = binHead_[static_cast<std::size_t>(bin)];
    std::int32_t remaining = slot;
    while (remaining >= kChunkSlots) {
      chunk = arena_[static_cast<std::size_t>(chunk)].next;
      remaining -= kChunkSlots;
    }
    arena_[static_cast<std::size_t>(chunk)].slots[remaining] = moved;
    ballSlot_[static_cast<std::size_t>(moved)] = slot;
  }
  if (lastOffset == 0) {
    // The tail chunk emptied: return it to the freelist.
    const std::int32_t prev = tailChunk.prev;
    if (prev >= 0) {
      arena_[static_cast<std::size_t>(prev)].next = -1;
    } else {
      binHead_[static_cast<std::size_t>(bin)] = -1;
    }
    binTail_[static_cast<std::size_t>(bin)] = prev;
    freeChunk(tail);
  }
}

void CompactAllocator::markDirty(std::int32_t bin) {
  std::uint8_t& mark = dirtyMark_[static_cast<std::size_t>(bin)];
  if (mark == 0) {
    mark = 1;
    dirty_.push_back(bin);
  }
}

void CompactAllocator::placeBall(std::int64_t ball, std::int32_t bin) {
  RLSLB_ASSERT_MSG(ball >= 0 && ball < INT32_MAX,
                   "compact backend requires sequential int32-range ball ids");
  if (static_cast<std::size_t>(ball) >= ballBin_.size()) {
    ballBin_.resize(static_cast<std::size_t>(ball) + 1, -1);
    ballSlot_.resize(static_cast<std::size_t>(ball) + 1, 0);
  }
  RLSLB_ASSERT_MSG(ballBin_[static_cast<std::size_t>(ball)] < 0,
                   "arrive event for a ball id that is already live");
  listPush(bin, static_cast<std::int32_t>(ball));
  ballBin_[static_cast<std::size_t>(ball)] = bin;
  ballSlot_[static_cast<std::size_t>(ball)] = loads_[static_cast<std::size_t>(bin)];
  ++loads_[static_cast<std::size_t>(bin)];
  ++totalLoad_;
  markDirty(bin);
}

void CompactAllocator::removeBall(std::int64_t ball, std::int32_t bin,
                                  std::int32_t slot) {
  listSwapRemove(bin, slot);
  ballBin_[static_cast<std::size_t>(ball)] = -1;
  --loads_[static_cast<std::size_t>(bin)];
  RLSLB_ASSERT(loads_[static_cast<std::size_t>(bin)] >= 0);
  --totalLoad_;
  markDirty(bin);
}

void CompactAllocator::moveBall(std::int64_t ball, std::int32_t fromBin,
                                std::int32_t toBin) {
  listSwapRemove(fromBin, ballSlot_[static_cast<std::size_t>(ball)]);
  --loads_[static_cast<std::size_t>(fromBin)];
  markDirty(fromBin);
  listPush(toBin, static_cast<std::int32_t>(ball));
  ballBin_[static_cast<std::size_t>(ball)] = toBin;
  ballSlot_[static_cast<std::size_t>(ball)] = loads_[static_cast<std::size_t>(toBin)];
  ++loads_[static_cast<std::size_t>(toBin)];
  markDirty(toBin);
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
        RLSLB_ASSERT(event.ball >= 0 &&
                     static_cast<std::size_t>(event.ball) < ballBin_.size());
        const std::int32_t bin = ballBin_[static_cast<std::size_t>(event.ball)];
        RLSLB_ASSERT_MSG(bin >= 0, "depart event for a ball that is not live");
        removeBall(event.ball, bin, ballSlot_[static_cast<std::size_t>(event.ball)]);
        break;
      }
      case workload::EventKind::kResample: {
        const serve::Decision& decision = decisions[i];
        ++resamples;
        RLSLB_ASSERT(decision.bin >= 0 && decision.bin < options_.bins);
        RLSLB_ASSERT(event.ball >= 0 &&
                     static_cast<std::size_t>(event.ball) < ballBin_.size());
        const std::int32_t src = ballBin_[static_cast<std::size_t>(event.ball)];
        RLSLB_ASSERT_MSG(src >= 0, "resample event for a ball that is not live");
        const std::int32_t dst = decision.bin;
        // Strict rule on live loads, unit weight: the dense acceptance
        // check with w = 1, value for value.
        if (dst != src && ((loads_[static_cast<std::size_t>(dst)] + 1 <
                            loads_[static_cast<std::size_t>(src)]) !=
                           options_.invertAcceptance)) {
          ++migrations;
          moveBall(event.ball, src, dst);
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
  for (const std::int32_t bin : dirty_) {
    const auto g = static_cast<std::size_t>(bin);
    const std::int32_t after = loads_[g];
    const std::int32_t before = flushedLoad_[g];
    dirtyMark_[g] = 0;
    if (after == before) continue;  // net-zero over the batch
    flushedLoad_[g] = after;
    mass_.add(g, after - before);
    ++flushedBins_;
  }
  dirty_.clear();
}

bool CompactAllocator::repairMove(rng::Xoshiro256pp& eng) {
  const std::int64_t total = totalLoad_;
  if (total == 0) return false;
  flush();
  ++counters_.repairAttempts;
  // Exact dense draw sequence, down to the global Fenwick upperBound.
  const auto ticket = static_cast<std::int64_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(total)));
  const auto src = static_cast<std::int32_t>(mass_.upperBound(ticket));
  const std::int32_t srcCount = loads_[static_cast<std::size_t>(src)];
  RLSLB_ASSERT(srcCount >= 1);
  const auto pick = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(srcCount)));
  const std::int32_t ball = listAt(src, pick);
  const auto dst = static_cast<std::int32_t>(
      rng::uniformIndex(eng, static_cast<std::uint64_t>(loads_.size())));
  if (dst == src || ((loads_[static_cast<std::size_t>(dst)] + 1 <
                      loads_[static_cast<std::size_t>(src)]) ==
                     options_.invertAcceptance)) {
    return false;
  }
  ++counters_.repairMigrations;
  moveBall(ball, src, dst);
  return true;
}

sim::BalanceState CompactAllocator::balanceState() const {
  return serve::scanBalance(loads_, totalLoad_);
}

std::int64_t CompactAllocator::residentBytes() const {
  auto vecBytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
  };
  return vecBytes(loads_) + vecBytes(flushedLoad_) + vecBytes(dirty_) +
         vecBytes(dirtyMark_) + vecBytes(binHead_) + vecBytes(binTail_) +
         vecBytes(ballBin_) + vecBytes(ballSlot_) + vecBytes(arena_) +
         static_cast<std::int64_t>((mass_.size() + 1) * sizeof(std::int64_t));
}

std::int64_t CompactAllocator::estimateBytes(std::int64_t bins, std::int64_t ballsEver,
                                             std::int64_t liveBalls) {
  // Fixed per-bin arrays: loads + flushedLoad + head + tail (4 B each),
  // dirtyMark (1 B), Fenwick (8 B). Implicit ball index: 8 B per ball ever
  // arrived. Arena: one chunk per ceil(live / K) plus per-bin slack of at
  // most one chunk on the busiest bins — approximate with live balls
  // spread across min(bins, live) non-empty lists.
  const std::int64_t perBin = 4 * 4 + 1 + 8;
  const std::int64_t nonEmpty = std::min(bins, liveBalls);
  const std::int64_t chunks =
      (liveBalls + kChunkSlots - 1) / kChunkSlots + nonEmpty / 2;
  return bins * perBin + ballsEver * 8 +
         chunks * static_cast<std::int64_t>(sizeof(Chunk));
}

bool CompactAllocator::validate() const {
  std::int64_t total = 0;
  std::vector<std::int64_t> counted(loads_.size(), 0);
  for (std::size_t ball = 0; ball < ballBin_.size(); ++ball) {
    const std::int32_t bin = ballBin_[ball];
    if (bin < 0) continue;
    if (bin >= static_cast<std::int32_t>(loads_.size())) return false;
    const std::int32_t slot = ballSlot_[ball];
    if (slot < 0 || slot >= loads_[static_cast<std::size_t>(bin)]) return false;
    if (listAt(bin, slot) != static_cast<std::int32_t>(ball)) return false;
    ++counted[static_cast<std::size_t>(bin)];
    ++total;
  }
  for (std::size_t bin = 0; bin < loads_.size(); ++bin) {
    if (counted[bin] != loads_[bin]) return false;
    if ((loads_[bin] == 0) != (binHead_[bin] < 0)) return false;
    if ((binHead_[bin] < 0) != (binTail_[bin] < 0)) return false;
  }
  if (total != totalLoad_) return false;
  // The Fenwick may lag by the dirty set; reconciled it must match.
  for (const std::int32_t bin : dirty_) {
    if (dirtyMark_[static_cast<std::size_t>(bin)] == 0) return false;
  }
  for (std::size_t bin = 0; bin < loads_.size(); ++bin) {
    const std::int64_t flushed = mass_.get(bin);
    if (flushed != flushedLoad_[bin]) return false;
    if (flushed != loads_[bin] && dirtyMark_[bin] == 0) return false;
  }
  return true;
}

}  // namespace rlslb::capacity
