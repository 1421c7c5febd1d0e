// Telemetry-layer coverage (src/obs/):
//   - MetricsRegistry: handle semantics, histogram bucketing, and
//     clear/reset;
//   - the zero-allocation contract with metrics ATTACHED: steady-state
//     serving epochs stay heap-silent while exporting counters, gauges,
//     histograms, and phase timings (registration, the one allocating
//     step, is confined to the first epoch);
//   - semantic transparency: a loop with telemetry attached lands in the
//     byte-identical allocator state as an unobserved loop, and the
//     exported counters agree with the allocator's own ServeCounters;
//   - TraceWriter: Chrome trace-event JSON well-formedness (parsed with
//     report::Json), span containment, per-track worker events, and the
//     compiled-out stub contract (no events, writeTo fails so drivers
//     warn).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "capacity/compact_allocator.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "runner/thread_pool.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "workload/generators.hpp"

// ------------------------------------------------------------------------
// Allocation-counting hook (same pattern as tests/test_serve_hotpath.cpp):
// replaces the replaceable global allocation functions for this binary;
// counting is toggled around the region under scrutiny only.
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::int64_t> g_allocCount{0};

std::int64_t allocCount() { return g_allocCount.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rlslb::obs {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistry_, RegistrationIsIdempotentByName) {
  MetricsRegistry m;
  const CounterId a = m.counter("x.events");
  const CounterId b = m.counter("x.events");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.index, b.index);
  const GaugeId g1 = m.gauge("x.gap");
  const GaugeId g2 = m.gauge("x.gap");
  EXPECT_EQ(g1.index, g2.index);
  const HistId h1 = m.histogram("x.hist", {1, 2, 4});
  const HistId h2 = m.histogram("x.hist", {1, 2, 4});
  EXPECT_EQ(h1.index, h2.index);
  // Distinct names get distinct handles even across kinds.
  EXPECT_NE(m.counter("x.other").index, a.index);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry_, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry m;
  const HistId h = m.histogram("h", {0, 1, 4});
  // bounds[0] <= v <= bounds[i] lands in bucket i; outside that range the
  // value is counted explicitly instead of clamped into an edge bucket.
  m.observe(h, -3);  // underflow (< bounds[0])
  m.observe(h, 0);   // bucket 0
  m.observe(h, 1);   // bucket 1
  m.observe(h, 2);   // bucket 2 (<= 4)
  m.observe(h, 4);   // bucket 2
  m.observe(h, 5);   // overflow
  m.observe(h, 999); // overflow
  const std::vector<std::int64_t> counts = m.histCounts(h);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(m.histUnderflow(h), 1);
  EXPECT_EQ(m.histOverflow(h), 2);
  EXPECT_EQ(m.histTotal(h), 7);
}

TEST(MetricsRegistry_, ClearKeepsRegistrationsResetDropsThem) {
  MetricsRegistry m;
  const CounterId c = m.counter("c");
  const GaugeId g = m.gauge("g");
  const HistId h = m.histogram("h", {8});
  m.add(c, 5);
  m.set(g, 3.5);
  m.observe(h, 2);

  m.clear();
  EXPECT_FALSE(m.empty()) << "clear() keeps the registrations";
  EXPECT_EQ(m.counterValue(c), 0);
  EXPECT_EQ(m.gaugeValue(g), 0.0);
  EXPECT_EQ(m.histTotal(h), 0);

  m.reset();
  EXPECT_TRUE(m.empty());
}

// --------------------------------------------- serving-loop integration

/// Steady-state trace: resample events cycling over pre-placed balls on a
/// perfectly balanced allocator -- the strict RLS rule rejects every move,
/// so epochs after the first do no structural work (the same construction
/// tests/test_serve_hotpath.cpp pins WITHOUT metrics).
class ResampleOnlyTrace final : public workload::TraceGenerator {
 public:
  ResampleOnlyTrace(std::int64_t balls, std::int64_t resamples)
      : balls_(balls), resamples_(resamples) {}

  bool next(workload::Event* out) override {
    if (emitted_ >= resamples_) return false;
    out->time = static_cast<double>(emitted_);
    out->kind = workload::EventKind::kResample;
    out->ball = emitted_ % balls_;
    out->weight = 0;
    ++emitted_;
    return true;
  }

  [[nodiscard]] std::string name() const override { return "resample-only"; }

 private:
  std::int64_t balls_;
  std::int64_t resamples_;
  std::int64_t emitted_ = 0;
};

serve::OnlineAllocator makeBalancedAllocator(std::int64_t bins, std::int64_t balls) {
  serve::OnlineAllocator allocator(
      serve::AllocatorOptions{.bins = bins, .arrivalChoices = 2});
  for (std::int64_t ball = 0; ball < balls; ++ball) {
    workload::Event e;
    e.kind = workload::EventKind::kArrive;
    e.ball = ball;
    e.weight = 1;
    allocator.apply(e, serve::Decision{static_cast<std::int32_t>(ball % bins)});
  }
  return allocator;
}

// Metrics attached, steady state: epochs after the first allocate nothing.
// Registration (name -> handle, array growth) is the only allocating step
// and must be folded into epoch 0 / setup.
TEST(MetricsHotPath, SteadyStateEpochsAreAllocationFreeWithMetricsAttached) {
  constexpr std::int64_t kEpochEvents = 256;
  constexpr std::int64_t kEpochs = 16;
  serve::OnlineAllocator allocator = makeBalancedAllocator(64, 256);
  ASSERT_EQ(allocator.gap(), 0);

  MetricsRegistry metrics;
  serve::LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.repairMovesPerEpoch = 4;
  options.seed = 11;
  options.metrics = &metrics;
  serve::EpochLoop loop(allocator, options);

  ResampleOnlyTrace trace(256, kEpochEvents * kEpochs);
  std::vector<std::int64_t> perEpoch;
  perEpoch.reserve(64);
  std::int64_t last = 0;
  g_allocCount.store(0);
  g_countAllocs.store(true);
  const auto result = loop.run(trace, [&](const serve::EpochStats&) {
    const std::int64_t now = allocCount();
    perEpoch.push_back(now - last);
    last = now;
  });
  g_countAllocs.store(false);

  ASSERT_EQ(result.epochs, kEpochs);
  ASSERT_EQ(perEpoch.size(), static_cast<std::size_t>(kEpochs));
  for (std::size_t i = 1; i < perEpoch.size(); ++i) {
    EXPECT_EQ(perEpoch[i], 0) << "epoch " << i << " allocated with metrics attached";
  }
  // The export is live: every event and epoch was counted.
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.events")),
            kEpochEvents * kEpochs);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.epochs")), kEpochs);
  EXPECT_EQ(metrics.histTotal(metrics.histogram(
                "serve.epoch_gap", {0, 1, 2, 4, 8, 16, 32, 64, 128})),
            kEpochs);
}

// The full observability stack live -- metrics (including the epoch-ns
// quantile sketch) AND the conformance roster (conservation, gap envelope,
// drift with its CUSUM) -- must keep steady-state epochs heap-silent.
TEST(MetricsHotPath, SteadyStateEpochsAreAllocationFreeWithMonitorsAttached) {
  constexpr std::int64_t kEpochEvents = 256;
  constexpr std::int64_t kEpochs = 16;
  serve::OnlineAllocator allocator = makeBalancedAllocator(64, 256);
  ASSERT_EQ(allocator.gap(), 0);

  MetricsRegistry metrics;
  MonitorSet monitors;
  ServeConformanceParams conformance;
  conformance.n = 64;
  conformance.expectedBalls = 256;
  conformance.d = 2;
  conformance.totalEpochs = kEpochs;
  installServeMonitors(monitors, conformance);
  monitors.beginRun();

  serve::LoopOptions options;
  options.epochEvents = kEpochEvents;
  options.repairMovesPerEpoch = 4;
  options.seed = 11;
  options.metrics = &metrics;
  options.monitors = &monitors;
  serve::EpochLoop loop(allocator, options);

  ResampleOnlyTrace trace(256, kEpochEvents * kEpochs);
  std::vector<std::int64_t> perEpoch;
  perEpoch.reserve(64);
  std::int64_t last = 0;
  g_allocCount.store(0);
  g_countAllocs.store(true);
  const auto result = loop.run(trace, [&](const serve::EpochStats&) {
    const std::int64_t now = allocCount();
    perEpoch.push_back(now - last);
    last = now;
  });
  g_countAllocs.store(false);

  ASSERT_EQ(result.epochs, kEpochs);
  for (std::size_t i = 1; i < perEpoch.size(); ++i) {
    EXPECT_EQ(perEpoch[i], 0)
        << "epoch " << i << " allocated with monitors + sketches attached";
  }
  // The roster was live (every epoch checked, the sketch fed) and the
  // balanced steady state is healthy: no anomalies.
  EXPECT_EQ(monitors.checks(), kEpochs);
  EXPECT_EQ(monitors.gapSketch().count(), kEpochs);
  EXPECT_EQ(monitors.log().total(), 0);
}

// ---------------------------------------------------------------- trace

TEST(Trace, NowUsIsMonotonicEvenWhenTracingIsCompiledOut) {
  const double a = nowUs();
  const double b = nowUs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Trace, CompiledOutStubIsInertSoDriversCanWarn) {
  if (kTracingCompiledIn) GTEST_SKIP() << "tracing compiled in";
  TraceWriter w;
  {
    const Span s(&w, "outer");
    w.counter("c", "v", 0.0, 1.0);
  }
  EXPECT_EQ(w.eventCount(), 0u);
  std::ostringstream out;
  EXPECT_FALSE(w.writeTo(out)) << "stub writeTo must fail so --trace-out warns";
  EXPECT_TRUE(out.str().empty());
}

TEST(Trace, JsonIsWellFormedWithContainedSpansAndWorkerTracks) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TraceWriter w(8);
  {
    const Span outer(&w, "outer", "epoch");
    {
      const Span inner(&w, "inner");  // default category "phase"
    }
    w.counter("lane", "value", nowUs(), 42.0);
  }
  // A worker-track event, as ThreadPool records per-job spans.
  runner::ThreadPool pool(2);
  pool.setTraceWriter(&w);
  pool.parallelFor(64, [](std::int64_t) {});
  pool.setTraceWriter(nullptr);

  std::ostringstream out;
  ASSERT_TRUE(w.writeTo(out));
  std::string error;
  const report::Json doc = report::Json::parse(out.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.isObject());
  const report::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.isArray());
  // Every recorded event plus the process_name meta and one thread_name
  // meta per non-empty track.
  ASSERT_GE(events.size(), w.eventCount() + 2u);

  double outerTs = -1.0, outerEnd = -1.0, innerTs = -1.0, innerEnd = -1.0;
  bool sawCounter = false;
  bool sawJobSpan = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const report::Json& e = events.at(i);
    ASSERT_TRUE(e.isObject());
    const std::string& ph = e.at("ph").asString();
    ASSERT_TRUE(e.find("name") != nullptr);
    if (ph == "M") continue;
    ASSERT_TRUE(e.find("ts") != nullptr);
    ASSERT_TRUE(e.find("tid") != nullptr);
    const std::string& name = e.at("name").asString();
    if (ph == "X") {
      ASSERT_TRUE(e.find("dur") != nullptr);
      if (name == "outer") {
        outerTs = e.at("ts").asDouble();
        outerEnd = outerTs + e.at("dur").asDouble();
        EXPECT_EQ(e.at("cat").asString(), "epoch");
        EXPECT_EQ(e.at("tid").asInt(), 0);
      } else if (name == "inner") {
        innerTs = e.at("ts").asDouble();
        innerEnd = innerTs + e.at("dur").asDouble();
        EXPECT_EQ(e.at("cat").asString(), "phase");
      } else if (name == "parallelFor") {
        sawJobSpan = true;
      }
    } else if (ph == "C") {
      EXPECT_EQ(e.at("args").at("value").asDouble(), 42.0);
      sawCounter = true;
    }
  }
  ASSERT_GE(outerTs, 0.0);
  ASSERT_GE(innerTs, 0.0);
  // Span nesting: the inner phase lies inside the outer epoch span.
  EXPECT_GE(innerTs, outerTs);
  EXPECT_LE(innerEnd, outerEnd);
  EXPECT_TRUE(sawCounter);
  EXPECT_TRUE(sawJobSpan);
}

// ------------------------------------------------- serving loop, both allocators

// Telemetry attaches to the one epoch loop, so its contracts are pinned
// for both allocators the loop drives (Poisson traces are unit-weight, as
// the compact allocator requires).
template <class Allocator>
class ServingLoopTelemetry : public ::testing::Test {};
using LoopAllocators = ::testing::Types<serve::OnlineAllocator, capacity::CompactAllocator>;
TYPED_TEST_SUITE(ServingLoopTelemetry, LoopAllocators);

// Telemetry must be semantically invisible: the observed loop lands in the
// byte-identical allocator state, and the exported counters agree with the
// allocator's own ServeCounters.
TYPED_TEST(ServingLoopTelemetry, AttachedMetricsDoNotPerturbTheRunAndAgreeWithCounters) {
  const auto runOnce = [](MetricsRegistry* metrics) {
    workload::OpenTraceOptions base;
    base.bins = 32;
    base.arrivalRatePerBin = 1.0;
    base.departureRate = 0.25;
    base.resampleRate = 1.0;
    base.maxEvents = 4096;
    workload::PoissonTrace trace(base, 17);
    TypeParam allocator(serve::AllocatorOptions{.bins = 32, .arrivalChoices = 2});
    serve::LoopOptions options;
    options.epochEvents = 512;
    options.repairMovesPerEpoch = 4;
    options.seed = 5;
    options.metrics = metrics;
    serve::EpochLoop loop(allocator, options);
    loop.run(trace);
    return std::make_pair(allocator.loads(), allocator.counters());
  };

  MetricsRegistry metrics;
  const auto observed = runOnce(&metrics);
  const auto plain = runOnce(nullptr);
  EXPECT_EQ(observed.first, plain.first) << "metrics changed the run's outcome";

  const serve::ServeCounters& c = observed.second;
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.events")), c.events);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.arrivals")), c.arrivals);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.departures")), c.departures);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.migrations")), c.migrations);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.rejected_moves")),
            c.rejectedMoves);
  EXPECT_EQ(metrics.counterValue(metrics.counter("serve.repair_migrations")),
            c.repairMigrations);
}

// Runtime-off contract: a loop with tracing compiled in but no writer
// attached emits nothing (the writer stays empty), while the attached
// writer captures the per-phase spans the acceptance criteria name.
TYPED_TEST(ServingLoopTelemetry, EmitsPhaseSpansOnlyWhenAttached) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const auto runOnce = [](TraceWriter* trace) {
    workload::OpenTraceOptions base;
    base.bins = 32;
    base.arrivalRatePerBin = 1.0;
    base.departureRate = 0.25;
    base.resampleRate = 1.0;
    base.maxEvents = 2048;
    workload::PoissonTrace traceGen(base, 23);
    TypeParam allocator(serve::AllocatorOptions{.bins = 32, .arrivalChoices = 2});
    serve::LoopOptions options;
    options.epochEvents = 512;
    options.seed = 5;
    options.trace = trace;
    serve::EpochLoop loop(allocator, options);
    loop.run(traceGen);
    return allocator.loads();
  };

  TraceWriter attached;
  const auto tracedLoads = runOnce(&attached);
  const auto plainLoads = runOnce(nullptr);
  EXPECT_EQ(tracedLoads, plainLoads) << "tracing changed the run's outcome";
  EXPECT_GT(attached.eventCount(), 0u);

  std::ostringstream out;
  ASSERT_TRUE(attached.writeTo(out));
  const std::string doc = out.str();
  for (const char* phase : {"\"epoch\"", "\"decide\"", "\"apply\"", "\"repair\"",
                            "\"flush\""}) {
    EXPECT_NE(doc.find(phase), std::string::npos) << "missing span " << phase;
  }
}

}  // namespace
}  // namespace rlslb::obs
