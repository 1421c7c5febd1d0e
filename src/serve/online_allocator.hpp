// OnlineAllocator: incremental ball-to-bin state for the serving subsystem.
//
// The closed-system engines re-simulate a whole configuration to absorption;
// the serving layer instead maintains one long-lived allocation and applies
// the paper's RLS rule *per event* of a workload trace:
//
//   Arrive    place the ball via a d-choice over a load snapshot (d = 1 is
//             the uniform arrival of Ganesh et al. [11]; d = 2 the
//             power-of-two-choices hybrid of E14c).
//   Depart    remove the ball from its bin.
//   Resample  the ball's RLS clock: a uniformly sampled candidate bin, and
//             migration iff the local-search rule accepts — the strict
//             variant load(dst) + w < load(src), which by the paper's
//             Section 3 remark induces the same lumped balance dynamics as
//             ">=" while never paying for a neutral migration (migrations
//             are the expensive operation in a serving system).
//
// State layout: the flat per-bin load array `loads_` is the live truth;
// a Fenwick mass tree over bins (the load-weighted repair sample), per-bin
// ball lists, and one ball map (ball -> bin, weight, slot) complete the
// allocation. apply()/applyBatch() walk events in trace order, checking
// every resample against live loads -- exactly the paper's one-move-at-a-
// time RLS check.
//
// Deferred accounting (the serving hot-path batching): every load change
// updates only `loads_` (plus totalLoad_ and the eager ball slots) and
// marks the bin dirty. The O(log n) Fenwick update is *deferred* to
// flush(), which reconciles each dirty bin ONCE per epoch from its net
// delta (loads_[bin] - binLoad_[bin]) and skips net-zero bins entirely.
// Rejected resamples -- the steady-state common case -- never touch a
// structure at all. Fenwick node values depend only on final per-bin
// loads, so the flushed state is byte-identical to eager per-event
// updates. There is no maintained level histogram: min/max/overload
// queries are a per-epoch observation, so they scan the (always-current)
// flat load array on demand instead of taxing every load change in the
// hot loop. repairMove() and validate() flush at entry.
//
// This header also holds what both serving allocators share -- this one
// and the compact capacity::CompactAllocator: the options, the Decision
// and ServeCounters types, the decision rule (decideOver) and the balance
// scan (scanBalance) -- so serve::EpochLoop drives either one.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/fenwick.hpp"
#include "ds/flat_map.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/engine.hpp"
#include "workload/event.hpp"

namespace rlslb::serve {

/// Options of both serving allocators (the compact one serves unit
/// weights only and addresses bins with int32).
struct AllocatorOptions {
  std::int64_t bins = 256;
  int arrivalChoices = 2;  // d: snapshot-least-loaded of d sampled bins
  /// TEST HOOK: invert the local-search acceptance rule, accepting
  /// exactly the resample/repair moves the strict rule rejects. Exists
  /// so the conformance layer can be exercised against a deliberately
  /// broken dynamic (tests/test_obs_monitor.cpp); never set by shipped
  /// scenarios.
  bool invertAcceptance = false;
};

/// The precomputed random choice for one event. Arrive: the chosen bin.
/// Resample: the sampled candidate bin. Depart: unused.
struct Decision {
  std::int32_t bin = -1;
};

struct ServeCounters {
  std::int64_t events = 0;
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t resamples = 0;
  std::int64_t migrations = 0;       // accepted resample moves
  std::int64_t rejectedMoves = 0;    // resamples whose rule check failed
  std::int64_t repairAttempts = 0;   // per-epoch repair activations
  std::int64_t repairMigrations = 0; // accepted repair moves
};

/// The decision phase of both allocators: a pure function of the live
/// load array, d, and the event's rng stream. Arrive: d-choice, the least
/// loaded of `arrivalChoices` uniform samples (ties keep the first draw,
/// so the choice is a deterministic function of the stream). Resample: a
/// uniform candidate bin. Depart: no randomness. Inline so the event
/// loop's per-event rng + decide sequence fuses into one loop body.
template <class Load>
[[nodiscard]] inline Decision decideOver(const std::vector<Load>& loads, int arrivalChoices,
                                         const workload::Event& event,
                                         rng::Xoshiro256pp& eng) {
  const auto n = static_cast<std::uint64_t>(loads.size());
  Decision d;
  switch (event.kind) {
    case workload::EventKind::kArrive: {
      auto best = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      for (int c = 1; c < arrivalChoices; ++c) {
        const auto candidate = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
        if (loads[static_cast<std::size_t>(candidate)] <
            loads[static_cast<std::size_t>(best)]) {
          best = candidate;
        }
      }
      d.bin = best;
      break;
    }
    case workload::EventKind::kResample:
      d.bin = static_cast<std::int32_t>(rng::uniformIndex(eng, n));
      break;
    case workload::EventKind::kDepart:
      break;
  }
  return d;
}

/// The balance view of both allocators: min, max and the overloaded-ball
/// excess over ceil(total / n) in one O(n) pass over the live load array.
/// `totalWeight` is the carried weight, so discrepancy()/xBalanced() are
/// in weight units.
template <class Load>
[[nodiscard]] inline sim::BalanceState scanBalance(const std::vector<Load>& loads,
                                                   std::int64_t totalWeight) {
  sim::BalanceState state;
  state.numBins = static_cast<std::int64_t>(loads.size());
  state.numBalls = totalWeight;
  const std::int64_t ceilAvg = (totalWeight + state.numBins - 1) / state.numBins;
  Load lo = loads[0];
  Load hi = loads[0];
  std::int64_t overloaded = 0;
  for (const Load v : loads) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
    overloaded += v > ceilAvg ? v - ceilAvg : 0;
  }
  state.minLoad = lo;
  state.maxLoad = hi;
  state.overloadedBalls = overloaded;
  return state;
}

class OnlineAllocator {
 public:
  explicit OnlineAllocator(const AllocatorOptions& options);

  /// Decision phase against the live load array (decideOver).
  [[nodiscard]] Decision decide(const workload::Event& event,
                                rng::Xoshiro256pp& eng) const {
    return decideOver(loads_, options_.arrivalChoices, event, eng);
  }

  /// Fused apply: single-threaded, validates against live state.
  void apply(const workload::Event& event, const Decision& decision);

  /// Fused apply for a whole batch in trace order: per-event semantics of
  /// apply() (which forwards here with count 1), with the counter updates
  /// accumulated in registers across the batch. Depart entries never read
  /// their `decisions` slot, so those slots may hold stale bytes.
  void applyBatch(const workload::Event* events, const Decision* decisions,
                  std::size_t count);

  /// Reconcile every deferred load delta into the Fenwick tree and the
  /// binLoad_ view (O(dirty bins); a no-op when clean). The event loop
  /// calls this inside its timed region so the flush cost lands in the
  /// epoch it belongs to, never in an observer.
  void flush();

  /// One RLS repair activation on live state: a load-weighted bin pick
  /// (with unit weights this is exactly "activate a uniform ball"), a
  /// uniform candidate bin, and the strict migration rule. Returns whether
  /// a ball moved. Used by the event loop's per-epoch repair budget.
  bool repairMove(rng::Xoshiro256pp& eng);

  [[nodiscard]] std::int64_t numBins() const {
    return static_cast<std::int64_t>(loads_.size());
  }
  [[nodiscard]] const std::vector<std::int64_t>& loads() const { return loads_; }
  [[nodiscard]] std::int64_t totalLoad() const { return totalLoad_; }
  [[nodiscard]] std::int64_t liveBalls() const { return liveBalls_; }
  /// The live state as the closed-system balance view (sim::BalanceState,
  /// the same vocabulary process::Process::state() speaks): one O(n)
  /// scanBalance pass over the live load array. Out of line, so a caller
  /// that times it and drops the result still pays for the scan.
  [[nodiscard]] sim::BalanceState balanceState() const;
  /// max - min bin load: the serving analogue of the discrepancy.
  [[nodiscard]] std::int64_t gap() const {
    const sim::BalanceState s = balanceState();
    return s.maxLoad - s.minLoad;
  }
  /// Largest single ball weight ever seen: the closed-system balance floor
  /// for weighted traffic (a gap below the heaviest ball is unreachable).
  [[nodiscard]] std::int64_t maxWeightSeen() const { return maxWeightSeen_; }
  [[nodiscard]] const ServeCounters& counters() const { return counters_; }
  /// Dirty bins settled with a net-nonzero delta so far (the "real work"
  /// part of the deferred flush; net-zero dirty entries are skipped and
  /// not counted) -- the event loop exports per-epoch deltas as the
  /// serve.flushed_bins counter.
  [[nodiscard]] std::int64_t flushedBins() const { return flushedBins_; }

  /// Heap bytes currently held by the allocator's state structures
  /// (capacity-based: load arrays, Fenwick tree, per-bin ball lists, ball
  /// map). O(bins); sampled by the event loop at epoch boundaries
  /// for the serve.mem.* gauges — a capacity-planning observation, never
  /// part of the deterministic "table" records (vector growth policy is
  /// stdlib-dependent).
  [[nodiscard]] std::int64_t residentBytes() const;

  /// Internal-consistency scan of the load array, Fenwick tree, per-bin
  /// ball lists and ball map (O(n + m); tests only).
  [[nodiscard]] bool validate() const;

 private:
  struct BallRec {
    std::int32_t bin = 0;
    std::int64_t weight = 0;
    std::int32_t slot = 0;  // index in binBalls_[bin]
  };

  // Update loads_/slots, defer the Fenwick work to flush().
  void changeLoad(std::int32_t bin, std::int64_t delta);
  void placeBall(std::int64_t ball, std::int64_t weight, std::int32_t bin);
  void moveBall(std::int64_t ball, BallRec* rec, std::int32_t toBin);
  void eraseBall(std::int64_t ball, const BallRec& rec);
  /// O(1) amortized: the mark byte dedups dirty-list entries.
  void markDirty(std::int32_t bin);

  AllocatorOptions options_;
  std::vector<std::int64_t> loads_;    // live bin loads
  // `binLoad_` and `mass_` lag `loads_` by the bins listed in `dirty_`
  // until the next flush() (see the deferred-accounting note at the top).
  std::vector<std::int64_t> binLoad_;  // flushed view of loads_
  ds::Fenwick<std::int64_t> mass_{1};
  std::vector<std::vector<std::int64_t>> binBalls_;  // ball ids per bin
  ds::FlatMap64<BallRec> balls_;
  std::vector<std::int32_t> dirty_;     // bins with deferred deltas
  std::vector<std::uint8_t> dirtyMark_; // one byte per bin: set iff in dirty_
  std::int64_t flushedBins_ = 0;
  ServeCounters counters_;
  std::int64_t totalLoad_ = 0;
  std::int64_t liveBalls_ = 0;
  std::int64_t maxWeightSeen_ = 0;
};

}  // namespace rlslb::serve
