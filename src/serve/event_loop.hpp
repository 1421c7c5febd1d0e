// EpochLoop<Allocator>: the serving subsystem's one epoch driver, for
// both allocators -- the dense OnlineAllocator (weighted balls, any ids)
// and the compact capacity::CompactAllocator (unit weights, sequential
// ids, a fraction of the bytes per ball). Allocator-specific code stays in
// the allocators; the epoch body, its rng streams, timing, telemetry and
// monitor export are written once here.
//
// Events are consumed in fixed-size *epochs* (bulk-synchronous style):
//
//   1. Fill a batch of up to epochEvents events from the trace.
//   2. Decision phase: walk the batch in trace order and compute each
//      event's random placement/candidate decision against the live load
//      array. No load changes before the apply phase starts, so the bytes
//      read are exactly the epoch-start snapshot, without an O(bins) copy.
//      All of the epoch's decisions draw from one engine seeded
//      streamSeed(decisionSeed, epoch). Departs use no randomness and are
//      skipped.
//   3. Apply phase (fused): walk the batch in trace order, re-validating
//      every decision against live loads and mutating in place -- the
//      paper's RLS move checked one event at a time. Rejected resamples,
//      the steady-state common case, touch no structure at all.
//   4. Repair: a fixed budget of RLS repair activations on live state heals
//      whatever imbalance the stale snapshot let through (the
//      bulk-synchronous analogue of the paper's background RLS clocks:
//      each activation picks a uniformly random live ball). Its engine is
//      seeded streamSeed(repairSeed, epoch). A final allocator flush --
//      still inside the epoch timer -- hands each net-changed bin to the
//      allocator's sim::BalanceTracker before observers look.
//
// Observation (outside the timer): balanceState() and residentBytes() are
// O(1) reads on both allocators, so the per-epoch gap, memory gauges,
// monitor sample and callback cost O(1) plus the flush's O(changed bins),
// never O(n). With metrics attached, the batch fill is timed as
// serve.phase.tracegen_ns and the post-flush block (stats, telemetry
// export, monitor sample, callback) as serve.phase.observe_ns: two clock
// reads per epoch each, none per event.
//
// Determinism: both rng streams are keyed by the epoch index and drawn in
// trace order, and apply order is the trace order -- so the final load
// vector and every semantic counter are a pure function of (trace, seed,
// epochEvents, repairMovesPerEpoch), identical for every --threads value
// and for both allocators on unit-weight traces (tests/test_capacity.cpp).
// Epoch length is a *semantic* knob (it sets snapshot staleness and the
// stream boundaries).
//
// Timing contract (pinned by tests/test_serve_differential.cpp for both
// allocators): EpochStats.wallSeconds covers exactly the epoch's decision
// phase, apply phase, repair budget and flush. It excludes trace
// generation (the batch fill), EpochStats assembly, and the onEpoch
// callback. RunResult.wallSeconds is the exact sum of the per-epoch values
// -- no extra terms.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "serve/online_allocator.hpp"
#include "sim/engine.hpp"
#include "workload/generators.hpp"

namespace rlslb::serve {

struct LoopOptions {
  /// Unused; kept only because perfbench/traced_run.cpp sets it.
  int shards = 8;
  std::int64_t epochEvents = 1024;  // snapshot refresh granularity
  int repairMovesPerEpoch = 4;      // RLS repair activations per epoch
  std::uint64_t seed = 1;           // decision + repair stream base
  /// Optional telemetry (see src/obs/). Metrics export happens at epoch
  /// boundaries only (array writes + a handful of clock reads per epoch);
  /// the per-event hot path is untouched, so the steady-state
  /// zero-allocation and byte-determinism contracts hold with metrics
  /// attached (pinned by tests/test_obs.cpp). The trace writer records
  /// phase spans.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* trace = nullptr;
  /// Conformance monitors (obs/monitor.hpp): fed one CheckSample per
  /// epoch, outside the timed region. Like metrics, attaching a roster
  /// preserves the steady-state zero-allocation and byte-determinism
  /// contracts (wall-clock-fed monitors excepted from the latter; pinned
  /// by tests/test_obs_monitor.cpp).
  obs::MonitorSet* monitors = nullptr;
};

/// Per-epoch observation passed to the run() callback. The fields above
/// `wallSeconds` are *semantic* — identical for every execution of the
/// same trace + seed. `wallSeconds` is an *execution* observation and may
/// differ run to run.
struct EpochStats {
  std::int64_t epoch = 0;       // 0-based epoch index
  double traceTime = 0.0;       // timestamp of the epoch's last event
  std::int64_t events = 0;      // events in this epoch
  std::int64_t liveBalls = 0;
  std::int64_t totalLoad = 0;
  sim::BalanceState balance;    // allocator state in the closed-system vocabulary
  std::int64_t migrations = 0;  // cumulative accepted migrations

  double wallSeconds = 0.0;     // decision+apply+repair wall-clock (see contract)

  /// max - min bin load after the epoch (derived; single source of truth
  /// is `balance`).
  [[nodiscard]] std::int64_t gap() const { return balance.maxLoad - balance.minLoad; }
};

/// Allocator is OnlineAllocator or capacity::CompactAllocator; the member
/// functions are instantiated for exactly those two in event_loop.cpp.
template <class Allocator>
class EpochLoop {
 public:
  EpochLoop(Allocator& allocator, const LoopOptions& options);
  /// The pool is unused; this overload is kept only because
  /// perfbench/traced_run.cpp passes one.
  EpochLoop(Allocator& allocator, const LoopOptions& options, runner::ThreadPool& /*pool*/)
      : EpochLoop(allocator, options) {}

  struct RunResult {
    std::int64_t events = 0;
    std::int64_t epochs = 0;
    double wallSeconds = 0.0;  // exact sum of per-epoch wallSeconds
  };

  /// Drain the trace. `onEpoch` (may be empty) fires after each epoch.
  /// Each run() is self-contained: the epoch index resets, so a reused loop draws exactly the streams a freshly
  /// constructed loop would on the same trace. Allocator state carries
  /// over between runs by design (it is the long-lived allocation).
  RunResult run(workload::TraceGenerator& trace,
                const std::function<void(const EpochStats&)>& onEpoch = {});

 private:
  /// Handles into LoopOptions.metrics, registered on the first run() so a
  /// reused loop's steady-state runs perform no name lookups (and no
  /// string allocations) at all.
  struct MetricIds {
    obs::CounterId events, epochs;
    obs::CounterId arrivals, departures, resamples, migrations, rejectedMoves;
    obs::CounterId repairAttempts, repairMigrations;
    obs::CounterId flushedBins;
    obs::CounterId decideNs, applyNs, repairNs, flushNs, tracegenNs, observeNs;
    obs::GaugeId gap, liveBalls, totalLoad;
    obs::GaugeId memStateBytes, memBytesPerBall, memPeakRss;
    obs::HistId epochGap;
    obs::SketchId epochNs;
  };
  void registerMetrics();

  Allocator* allocator_;
  LoopOptions options_;
  std::int64_t nextEpoch_ = 0;  // decision- and repair-stream key; reset per run()
  MetricIds ids_;
  bool metricsRegistered_ = false;
};

/// The dense loop's old name, kept only because perfbench/traced_run.cpp
/// uses it.
using ShardedEventLoop = EpochLoop<OnlineAllocator>;

}  // namespace rlslb::serve
