// CompactAllocator: the serving allocator's memory-frugal backend for
// cluster-scale capacity planning (n in the tens of millions).
//
// The dense OnlineAllocator (serve/online_allocator.hpp) spends O(1)
// *structs* per ball: a FlatMap64 BallRec (24-byte entries at <= 3/4 load),
// an optional router entry, and an 8-byte per-bin list slot — fine at
// scenario n, fatal at n = 1e7..1e8. This backend exploits two properties
// the open-system dynamic guarantees when ball weights are all 1:
//
//   - Ball ids are assigned sequentially by the trace generators and never
//     reused, so the ball index is *implicit*: two flat int32 arrays
//     (ballBin_, ballSlot_) indexed by ball id replace both hash maps.
//   - Unit weights make a bin's ball count equal its load, so per-level
//     occupancy IS the dense load array and no per-ball weight is stored
//     anywhere.
//
// Per-bin ball lists — needed only so the repair activation's uniform
// in-bin pick lands on the byte-identical ball the dense allocator picks —
// are chunked int32 lists in a pooled arena (kChunkSlots ids + two links
// per chunk) instead of one std::vector per bin (24-byte headers alone
// would cost 2.4 GB at n = 1e8). Net: ~12-16 bytes per live ball plus
// ~20 bytes per bin, versus ~60-100 bytes per ball dense.
//
// Equivalence contract (pinned by tests/test_capacity.cpp): driven by
// serve::EpochLoop over the same trace and seed, this allocator produces
// byte-identical observable output — loads, gap trajectory, every
// ServeCounters field, the repair stream — to OnlineAllocator. Both share
// the decision rule (serve::decideOver) and the balance scan
// (serve::scanBalance); every other rng draw sequence (the repair
// ticket/pick/candidate triple) and every ordering decision (per-bin
// append / swap-remove slots) is replicated exactly, and both pick the
// repair bin with the same global Fenwick upperBound.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/fenwick.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "serve/online_allocator.hpp"
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

  /// Settle deferred Fenwick deltas (O(dirty bins); net-zero bins skipped,
  /// exactly the dense deferred-accounting rule).
  void flush();

  /// One RLS repair activation: the exact dense draw sequence (load ticket
  /// -> Fenwick upperBound bin -> uniform in-bin slot -> uniform candidate
  /// bin -> strict rule). Returns whether a ball moved.
  bool repairMove(rng::Xoshiro256pp& eng);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] std::int64_t totalLoad() const { return totalLoad_; }
  [[nodiscard]] std::int64_t liveBalls() const { return totalLoad_; }  // unit weights
  [[nodiscard]] std::int64_t maxWeightSeen() const { return maxWeightSeen_; }
  [[nodiscard]] const serve::ServeCounters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<std::int32_t>& loads() const { return loads_; }
  /// Widened copy for differential comparison against the dense allocator.
  [[nodiscard]] std::vector<std::int64_t> loadsCopy() const {
    return {loads_.begin(), loads_.end()};
  }
  /// Same closed-system view (and the same out-of-line scan) the dense
  /// balanceState() exposes.
  [[nodiscard]] sim::BalanceState balanceState() const;
  [[nodiscard]] std::int64_t gap() const {
    const sim::BalanceState s = balanceState();
    return s.maxLoad - s.minLoad;
  }
  [[nodiscard]] std::int64_t flushedBins() const { return flushedBins_; }

  /// Heap bytes of every structure, O(1) from capacities — the number the
  /// frontier records report as state_bytes.
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Predicted residentBytes for a run shape, used by the serve_capacity
  /// memory-budget gate BEFORE allocating anything: per-bin fixed arrays
  /// plus the implicit ball index over every ball ever arrived plus arena
  /// chunks for the expected live population.
  [[nodiscard]] static std::int64_t estimateBytes(std::int64_t bins,
                                                  std::int64_t ballsEver,
                                                  std::int64_t liveBalls);

  /// Internal-consistency scan (O(n + live); tests only).
  [[nodiscard]] bool validate() const;

 private:
  // Chunked per-bin ball lists: fixed-size id blocks linked forward and
  // backward in one pooled arena. Order within a bin is append order with
  // swap-remove backfill — the dense per-bin vector's order, exactly.
  static constexpr std::int32_t kChunkSlots = 8;
  struct Chunk {
    std::int32_t slots[kChunkSlots];
    std::int32_t next = -1;
    std::int32_t prev = -1;
  };

  [[nodiscard]] std::int32_t allocChunk();
  void freeChunk(std::int32_t index);
  /// Ball id stored at dense-order slot `slot` of `bin` (O(slot / K)).
  [[nodiscard]] std::int32_t listAt(std::int32_t bin, std::int32_t slot) const;
  void listPush(std::int32_t bin, std::int32_t ball);
  /// Swap-remove at `slot`: overwrite with the last ball (whose ballSlot_
  /// is patched) and shrink — byte-compatible with the dense eraseBall.
  void listSwapRemove(std::int32_t bin, std::int32_t slot);

  void markDirty(std::int32_t bin);
  void placeBall(std::int64_t ball, std::int32_t bin);
  void removeBall(std::int64_t ball, std::int32_t bin, std::int32_t slot);
  void moveBall(std::int64_t ball, std::int32_t fromBin, std::int32_t toBin);

  serve::AllocatorOptions options_;
  std::vector<std::int32_t> loads_;        // live per-bin ball counts
  std::vector<std::int32_t> flushedLoad_;  // Fenwick view, lags by dirty_
  ds::Fenwick<std::int64_t> mass_;         // repair bin sampling
  std::vector<std::int32_t> dirty_;
  std::vector<std::uint8_t> dirtyMark_;
  std::vector<std::int32_t> binHead_;  // first chunk per bin, -1 = empty
  std::vector<std::int32_t> binTail_;  // last chunk per bin, -1 = empty
  std::vector<Chunk> arena_;
  std::int32_t freeChunk_ = -1;  // freelist head through Chunk::next
  // The implicit ball index: grows with the largest ball id ever seen
  // (sequential ids make this an amortized append).
  std::vector<std::int32_t> ballBin_;   // -1 = not live
  std::vector<std::int32_t> ballSlot_;  // dense-order slot within the bin
  serve::ServeCounters counters_;
  std::int64_t totalLoad_ = 0;
  std::int64_t maxWeightSeen_ = 0;
  std::int64_t flushedBins_ = 0;
};

}  // namespace rlslb::capacity
