// CapacityLoop: the sequential epoch driver for the compact serving
// backend (capacity/compact_allocator.hpp).
//
// Byte-compatibility is the whole point: this loop re-derives the exact
// per-event decision streams streamSeed(streamSeed(seed,
// serve::kDecisionStreamSalt), ordinal) and per-epoch repair streams
// streamSeed(streamSeed(seed, serve::kRepairStreamSalt), epoch) that
// serve::ShardedEventLoop draws, applies them through the fused batch
// semantics, and settles deferred Fenwick deltas inside the epoch timer —
// so (CompactAllocator + CapacityLoop) and (OnlineAllocator +
// ShardedEventLoop) produce byte-identical loads, counters, and gap
// trajectories on the same trace + seed (tests/test_capacity.cpp pins the
// differential). Capacity runs are memory-bound sweeps at n = 1e6..1e8
// where the state layout is the binding constraint.
//
// Timing contract: identical to the dense loop — EpochStats.wallSeconds
// covers decision + apply + repair + flush; trace generation and the
// telemetry/callback tail are outside; RunResult.wallSeconds is the exact
// sum of the per-epoch values.
#pragma once

#include <cstdint>
#include <functional>

#include "capacity/compact_allocator.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "serve/event_loop.hpp"
#include "workload/generators.hpp"

namespace rlslb::capacity {

struct CapacityLoopOptions {
  std::int64_t epochEvents = 1024;  // snapshot-staleness granularity (semantic)
  int repairMovesPerEpoch = 4;
  std::uint64_t seed = 1;
  /// Epoch-boundary telemetry, same contract as serve::LoopOptions: the
  /// per-event hot path never touches either. Exports the serve.* metric
  /// vocabulary (including the serve.mem.* capacity gauges), so
  /// perf_report.py renders capacity runs with the same dashboard.
  obs::MetricsRegistry* metrics = nullptr;
  obs::MonitorSet* monitors = nullptr;
};

class CapacityLoop {
 public:
  CapacityLoop(CompactAllocator& allocator, const CapacityLoopOptions& options);

  struct RunResult {
    std::int64_t events = 0;
    std::int64_t epochs = 0;
    double wallSeconds = 0.0;  // exact sum of per-epoch wallSeconds
  };

  /// Drain the trace; `onEpoch` (may be empty) fires after each epoch with
  /// the shared serve::EpochStats view.
  /// Each run() is self-contained: ordinals and the epoch index reset, so
  /// a reused loop draws exactly the streams a fresh one would.
  RunResult run(workload::TraceGenerator& trace,
                const std::function<void(const serve::EpochStats&)>& onEpoch = {});

 private:
  struct MetricIds {
    obs::CounterId events, epochs;
    obs::CounterId arrivals, departures, resamples, migrations, rejectedMoves;
    obs::CounterId repairAttempts, repairMigrations, flushedBins;
    obs::CounterId decideNs, applyNs, repairNs, flushNs;
    obs::GaugeId gap, liveBalls, totalLoad;
    obs::GaugeId memStateBytes, memBytesPerBall, memPeakRss;
    obs::HistId epochGap;
    obs::SketchId epochNs;
  };
  void registerMetrics();

  CompactAllocator* allocator_;
  CapacityLoopOptions options_;
  std::int64_t nextOrdinal_ = 0;
  std::int64_t nextEpoch_ = 0;
  MetricIds ids_;
  bool metricsRegistered_ = false;
};

}  // namespace rlslb::capacity
