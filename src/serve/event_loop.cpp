#include "serve/event_loop.hpp"

#include <vector>

#include "capacity/compact_allocator.hpp"
#include "obs/memory.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rlslb::serve {

namespace {
// Stream salts for the loop's two rng families, derived from
// LoopOptions.seed via rng::streamSeed.
constexpr std::uint64_t kDecisionStreamSalt = 0x64656373ULL;  // "decs"
constexpr std::uint64_t kRepairStreamSalt = 0x72657061ULL;    // "repa"

// Microseconds -> integer nanoseconds for the serve.phase.*_ns counters.
std::int64_t spanNs(double beginUs, double endUs) {
  const double ns = (endUs - beginUs) * 1e3;
  return ns > 0.0 ? static_cast<std::int64_t>(ns) : 0;
}
}  // namespace

template <class Allocator>
EpochLoop<Allocator>::EpochLoop(Allocator& allocator, const LoopOptions& options)
    : allocator_(&allocator), options_(options) {
  RLSLB_ASSERT_MSG(options_.epochEvents >= 1, "LoopOptions.epochEvents must be >= 1");
  RLSLB_ASSERT_MSG(options_.repairMovesPerEpoch >= 0,
                   "LoopOptions.repairMovesPerEpoch must be >= 0");
}

template <class Allocator>
void EpochLoop<Allocator>::registerMetrics() {
  // Registration is the telemetry layer's only allocating step; doing it
  // once per loop (not once per run) keeps re-runs of a reused loop
  // allocation-free end to end (tests/test_obs.cpp pins this).
  obs::MetricsRegistry& m = *options_.metrics;
  ids_.events = m.counter("serve.events");
  ids_.epochs = m.counter("serve.epochs");
  ids_.arrivals = m.counter("serve.arrivals");
  ids_.departures = m.counter("serve.departures");
  ids_.resamples = m.counter("serve.resamples");
  ids_.migrations = m.counter("serve.migrations");
  ids_.rejectedMoves = m.counter("serve.rejected_moves");
  ids_.repairAttempts = m.counter("serve.repair_attempts");
  ids_.repairMigrations = m.counter("serve.repair_migrations");
  ids_.flushedBins = m.counter("serve.flushed_bins");
  ids_.decideNs = m.counter("serve.phase.decide_ns");
  ids_.applyNs = m.counter("serve.phase.apply_ns");
  ids_.repairNs = m.counter("serve.phase.repair_ns");
  ids_.flushNs = m.counter("serve.phase.flush_ns");
  ids_.tracegenNs = m.counter("serve.phase.tracegen_ns");
  ids_.observeNs = m.counter("serve.phase.observe_ns");
  ids_.gap = m.gauge("serve.gap");
  ids_.liveBalls = m.gauge("serve.live_balls");
  ids_.totalLoad = m.gauge("serve.total_load");
  // Capacity-planning gauges: allocator state bytes (capacity-based
  // accounting), bytes per live ball, and the process peak RSS, sampled at
  // every epoch boundary (outside the timed region).
  ids_.memStateBytes = m.gauge("serve.mem.state_bytes");
  ids_.memBytesPerBall = m.gauge("serve.mem.bytes_per_ball");
  ids_.memPeakRss = m.gauge("serve.mem.peak_rss_bytes");
  ids_.epochGap = m.histogram("serve.epoch_gap", {0, 1, 2, 4, 8, 16, 32, 64, 128});
  ids_.epochNs = m.sketch("serve.epoch_ns");
  metricsRegistered_ = true;
}

template <class Allocator>
typename EpochLoop<Allocator>::RunResult EpochLoop<Allocator>::run(
    workload::TraceGenerator& trace, const std::function<void(const EpochStats&)>& onEpoch) {
  // Multi-run contract: each run() is self-contained. A reused loop must
  // draw the same decision/repair streams a fresh loop would on the same
  // trace (allocator state, by design, carries over).
  nextEpoch_ = 0;
  const std::uint64_t decisionSeed = rng::streamSeed(options_.seed, kDecisionStreamSalt);
  const std::uint64_t repairSeed = rng::streamSeed(options_.seed, kRepairStreamSalt);

  // Telemetry: all export happens at epoch boundaries (array writes plus a
  // few clock samples inside the timed region when instrumented); the
  // per-event hot path never touches the registry or the writer.
  obs::MetricsRegistry* const metrics = options_.metrics;
  obs::TraceWriter* const traceOut = options_.trace;
  obs::MonitorSet* const monitors = options_.monitors;
  const bool instrumented = metrics != nullptr || traceOut != nullptr;
  ServeCounters prevCounters;
  std::int64_t prevFlushedBins = 0;
  if (metrics != nullptr) {
    if (!metricsRegistered_) registerMetrics();
    prevCounters = allocator_->counters();
    prevFlushedBins = allocator_->flushedBins();
  }

  RunResult result;
  // Epoch-scoped storage, sized once and reused across epochs: a
  // steady-state epoch performs no heap allocation (pinned by
  // tests/test_serve_hotpath.cpp). Depart slots of `decisions` are never
  // read.
  const auto epochEvents = static_cast<std::size_t>(options_.epochEvents);
  std::vector<workload::Event> batch(epochEvents);
  std::vector<Decision> decisions(epochEvents);

  for (;;) {
    // Trace generation (one fill call), outside the epoch timer; timed
    // for the serve.phase.tracegen_ns counter when metrics are attached.
    const double tFill0 = metrics != nullptr ? obs::nowUs() : 0.0;
    const std::size_t count = trace.fill(batch.data(), epochEvents);
    if (metrics != nullptr) metrics->add(ids_.tracegenNs, spanNs(tFill0, obs::nowUs()));
    if (count == 0) break;
    const workload::Event& last = batch[count - 1];

    // Timing contract: the timer brackets decision + apply + repair
    // (including the deferred-accounting flush) only; the batch fill above
    // and the stats/callback below are outside. Phase stamps are extra
    // reads of the same steady clock, taken only when instrumented.
    WallTimer wall;
    double tEpoch0 = 0.0;
    double tDecide1 = 0.0;
    double tApply1 = 0.0;
    double tRepair1 = 0.0;
    double tFlush1 = 0.0;
    if (instrumented) tEpoch0 = obs::nowUs();

    // The decision phase reads the live load array: every write to it
    // happens in the apply/repair phases, strictly after the decision
    // phase, so the bytes it sees are exactly the epoch-start snapshot.
    // One stream per epoch, drawn in trace order.
    rng::Xoshiro256pp eng(rng::streamSeed(decisionSeed, static_cast<std::uint64_t>(nextEpoch_)));
    for (std::size_t i = 0; i < count; ++i) {
      const workload::Event& e = batch[i];
      if (e.kind == workload::EventKind::kDepart) continue;  // no randomness
      decisions[i] = allocator_->decide(e, eng);
    }
    if (instrumented) tDecide1 = obs::nowUs();

    // Apply phase in trace order.
    allocator_->applyBatch(batch.data(), decisions.data(), count);
    if (instrumented) tApply1 = obs::nowUs();

    // Repair budget.
    rng::Xoshiro256pp repairEng(
        rng::streamSeed(repairSeed, static_cast<std::uint64_t>(nextEpoch_)));
    for (int k = 0; k < options_.repairMovesPerEpoch; ++k) allocator_->repairMove(repairEng);
    if (instrumented) tRepair1 = obs::nowUs();

    // Settle the deferred balance-tracker deltas inside the timed region:
    // the flush belongs to the epoch's apply cost, not to whichever
    // observer happens to read the balance view first.
    allocator_->flush();
    if (instrumented) tFlush1 = obs::nowUs();

    const double epochWall = wall.seconds();
    result.wallSeconds += epochWall;
    result.events += static_cast<std::int64_t>(count);
    ++result.epochs;

    // Everything below is outside the timed region: stats assembly, the
    // telemetry export, and the callback.
    const bool wantBalance = static_cast<bool>(onEpoch) || metrics != nullptr ||
                             traceOut != nullptr || monitors != nullptr;
    sim::BalanceState balance;
    if (wantBalance) balance = allocator_->balanceState();
    const std::int64_t gap = balance.maxLoad - balance.minLoad;

    if (traceOut != nullptr) {
      traceOut->complete("epoch", "epoch", tEpoch0, tFlush1);
      traceOut->complete("decide", "phase", tEpoch0, tDecide1);
      traceOut->complete("apply", "phase", tDecide1, tApply1);
      traceOut->complete("repair", "phase", tApply1, tRepair1);
      traceOut->complete("flush", "phase", tRepair1, tFlush1);
      traceOut->counter("serve.gap", "gap", tFlush1, static_cast<double>(gap));
    }

    if (metrics != nullptr) {
      metrics->add(ids_.events, static_cast<std::int64_t>(count));
      metrics->add(ids_.epochs, 1);
      const ServeCounters& c = allocator_->counters();
      metrics->add(ids_.arrivals, c.arrivals - prevCounters.arrivals);
      metrics->add(ids_.departures, c.departures - prevCounters.departures);
      metrics->add(ids_.resamples, c.resamples - prevCounters.resamples);
      metrics->add(ids_.migrations, c.migrations - prevCounters.migrations);
      metrics->add(ids_.rejectedMoves, c.rejectedMoves - prevCounters.rejectedMoves);
      metrics->add(ids_.repairAttempts, c.repairAttempts - prevCounters.repairAttempts);
      metrics->add(ids_.repairMigrations,
                   c.repairMigrations - prevCounters.repairMigrations);
      prevCounters = c;
      const std::int64_t flushed = allocator_->flushedBins();
      metrics->add(ids_.flushedBins, flushed - prevFlushedBins);
      prevFlushedBins = flushed;
      metrics->add(ids_.decideNs, spanNs(tEpoch0, tDecide1));
      metrics->add(ids_.applyNs, spanNs(tDecide1, tApply1));
      metrics->add(ids_.repairNs, spanNs(tApply1, tRepair1));
      metrics->add(ids_.flushNs, spanNs(tRepair1, tFlush1));
      metrics->set(ids_.gap, static_cast<double>(gap));
      metrics->set(ids_.liveBalls, static_cast<double>(allocator_->liveBalls()));
      metrics->set(ids_.totalLoad, static_cast<double>(allocator_->totalLoad()));
      const auto stateBytes = static_cast<double>(allocator_->residentBytes());
      const std::int64_t live = allocator_->liveBalls();
      metrics->set(ids_.memStateBytes, stateBytes);
      metrics->set(ids_.memBytesPerBall,
                   live > 0 ? stateBytes / static_cast<double>(live) : 0.0);
      metrics->set(ids_.memPeakRss, static_cast<double>(obs::peakRssBytes()));
      metrics->observe(ids_.epochGap, gap);
      metrics->observeSketch(ids_.epochNs, spanNs(tEpoch0, tFlush1));
    }

    if (monitors != nullptr) {
      obs::CheckSample sample;
      sample.origin = obs::CheckSample::Origin::kServeEpoch;
      sample.step = nextEpoch_;
      sample.time = last.time;
      sample.events = static_cast<std::int64_t>(count);
      sample.wallSeconds = epochWall;
      sample.gap = gap;
      sample.liveBalls = allocator_->liveBalls();
      sample.totalLoad = allocator_->totalLoad();
      sample.maxWeight = allocator_->maxWeightSeen();
      const ServeCounters& c = allocator_->counters();
      sample.arrivals = c.arrivals;
      sample.departures = c.departures;
      sample.migrations = c.migrations + c.repairMigrations;
      monitors->check(sample);
    }

    if (onEpoch) {
      EpochStats stats;
      stats.epoch = nextEpoch_;
      stats.traceTime = last.time;
      stats.events = static_cast<std::int64_t>(count);
      stats.liveBalls = allocator_->liveBalls();
      stats.totalLoad = allocator_->totalLoad();
      stats.balance = balance;
      stats.migrations =
          allocator_->counters().migrations + allocator_->counters().repairMigrations;
      stats.wallSeconds = epochWall;
      onEpoch(stats);
    }
    if (metrics != nullptr) metrics->add(ids_.observeNs, spanNs(tFlush1, obs::nowUs()));
    ++nextEpoch_;
  }

  return result;
}

template class EpochLoop<OnlineAllocator>;
template class EpochLoop<capacity::CompactAllocator>;

}  // namespace rlslb::serve
