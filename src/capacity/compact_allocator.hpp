// CompactAllocator: the serving allocator's memory-frugal backend for
// cluster-scale capacity planning (n in the tens of millions).
//
// The dense OnlineAllocator (serve/online_allocator.hpp) keeps a hash-map
// BallRec per ball (24-byte entries at <= 3/4 load) plus an 8-byte live
// array slot -- fine at scenario n, costly at n = 1e7..1e8. This backend
// exploits two properties the open-system dynamic guarantees when ball
// weights are all 1:
//
//   - Ball ids are assigned sequentially by the trace generators and never
//     reused, so the ball index is *implicit*: one flat int32 array, ball
//     id -> position in the live-ball array, replaces the hash map, and
//     each live-array entry carries its ball's bin.
//   - Unit weights make a bin's ball count equal its load, so no per-ball
//     weight is stored anywhere.
//
// Repair: the same unit-rate ball clocks as the dense allocator -- a
// uniformly random entry of the dense live-ball array ({ball, bin} int32
// pairs, append on arrive, swap-remove on depart), a uniform candidate
// bin, and the strict rule with w = 1. Net: 4 bytes per bin of loads plus
// a dirty mark byte, 4 bytes per ball ever arrived (the index is the only
// structure that grows with every arrival), and 8 bytes per live ball.
//
// Balance view: the dirty list carries each changed bin's "before" load,
// so flush() feeds each net change to a sim::BalanceTracker (per-level bin
// counts), exactly as the dense allocator does; balanceState() is an O(1)
// read after an epoch and per-epoch observation never scans the n loads.
//
// Equivalence contract (pinned by tests/test_capacity.cpp): driven by
// serve::EpochLoop over the same unit-weight trace and seed, this
// allocator produces byte-identical observable output -- loads, gap
// trajectory, every ServeCounters field, the repair stream -- to
// OnlineAllocator. Both share the decision rule (serve::decideOver), the
// flush-fed balance tracker, the repair draw sequence (live position, then
// candidate bin), and the live-array order (append / swap-remove in trace
// order).
#pragma once

#include <cstdint>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "serve/online_allocator.hpp"
#include "sim/balance_tracker.hpp"
#include "workload/event.hpp"

namespace rlslb::capacity {

class CompactAllocator {
 public:
  /// Every arrive must carry weight 1, and options.bins must fit int32.
  explicit CompactAllocator(const serve::AllocatorOptions& options);

  /// Decision phase against the live int32 load array (serve::decideOver;
  /// draw-for-draw the dense decision, since loads fit int32).
  [[nodiscard]] serve::Decision decide(const workload::Event& event,
                                       rng::Xoshiro256pp& eng) const {
    return serve::decideOver(loads_, options_.arrivalChoices, event, eng);
  }

  /// Fused apply of a whole batch in trace order; per-event semantics and
  /// counter accounting identical to OnlineAllocator::applyBatch. Every
  /// arrive must carry weight 1 (asserted) — the compact layout has
  /// nowhere to put a weight.
  void applyBatch(const workload::Event* events, const serve::Decision* decisions,
                  std::size_t count);

  /// Settle deferred balance-tracker deltas (O(dirty bins); net-zero bins
  /// skipped, exactly the dense deferred-accounting rule).
  void flush();

  /// One RLS repair activation: the exact dense draw sequence (uniform
  /// live-array position -> uniform candidate bin -> strict rule). Returns
  /// whether a ball moved.
  bool repairMove(rng::Xoshiro256pp& eng);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] std::int64_t liveBalls() const {
    return static_cast<std::int64_t>(live_.size());
  }
  [[nodiscard]] std::int64_t totalLoad() const { return liveBalls(); }  // unit weights
  [[nodiscard]] std::int64_t maxWeightSeen() const { return maxWeightSeen_; }
  [[nodiscard]] const serve::ServeCounters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<std::int32_t>& loads() const { return loads_; }
  /// Widened copy for differential comparison against the dense allocator.
  [[nodiscard]] std::vector<std::int64_t> loadsCopy() const {
    return {loads_.begin(), loads_.end()};
  }
  /// Same closed-system view the dense balanceState() exposes: the
  /// tracker's state, O(1) once flushed; pending deltas from a raw
  /// applyBatch() are settled first (O(dirty bins)).
  [[nodiscard]] sim::BalanceState balanceState() const;
  [[nodiscard]] std::int64_t gap() const {
    const sim::BalanceState s = balanceState();
    return s.maxLoad - s.minLoad;
  }
  [[nodiscard]] std::int64_t flushedBins() const { return flushedBins_; }

  /// Heap bytes of every structure (the tracker's level array included),
  /// O(1) from capacities — the number the frontier records report as
  /// state_bytes.
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Predicted residentBytes for a run shape, used by the serve_capacity
  /// memory-budget gate BEFORE allocating anything: per-bin fixed arrays
  /// plus the implicit ball index over every ball ever arrived plus the
  /// live-ball array for the expected live population.
  [[nodiscard]] static std::int64_t estimateBytes(std::int64_t bins,
                                                  std::int64_t ballsEver,
                                                  std::int64_t liveBalls);

  /// Internal-consistency scan (O(n + live); tests only).
  [[nodiscard]] bool validate() const;

 private:
  /// One live-array entry: a live ball and the bin it sits in.
  struct LiveBall {
    std::int32_t ball = 0;
    std::int32_t bin = 0;
  };
  /// A bin changed since the last flush, with its load before the first
  /// change.
  struct DirtyBin {
    std::int32_t bin = 0;
    std::int32_t before = 0;
  };

  /// ++ or -- one bin's load, recording the bin as dirty on its first
  /// change since the last flush.
  void changeLoad(std::int32_t bin, std::int32_t delta);
  void placeBall(std::int64_t ball, std::int32_t bin);
  void removeBall(std::int64_t ball);
  /// The live-array entry of `ball` (asserts the id is in range and live).
  LiveBall& liveEntry(std::int64_t ball, const char* notLive);
  /// The live-array slot `ball` holds now, or -1 (an id the index does
  /// not cover yet, or a ball not live) -- unlike liveEntry, never asserts.
  [[nodiscard]] std::int32_t slotHint(std::int64_t ball) const;

  serve::AllocatorOptions options_;
  std::vector<std::int32_t> loads_;  // live per-bin ball counts
  // The implicit ball index: ball id -> position in live_, -1 = not live.
  // Grows with the largest ball id ever seen (sequential ids make this an
  // amortized append).
  std::vector<std::int32_t> slotOf_;
  std::vector<LiveBall> live_;  // live balls, any order
  std::vector<DirtyBin> dirty_;
  std::vector<std::uint8_t> dirtyMark_;
  sim::BalanceTracker tracker_;  // level counts of the flushed loads
  serve::ServeCounters counters_;
  std::int64_t maxWeightSeen_ = 0;
  std::int64_t flushedBins_ = 0;
};

}  // namespace rlslb::capacity
