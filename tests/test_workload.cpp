// workload/: generator determinism, ball-lifecycle structure, inter-arrival
// distribution sanity (KS against the exact exponential law), modulation
// shape checks for the bursty/diurnal/hot-spot traces, the batched fill()
// against next(), and the JSONL record -> replay round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stats/tests.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::workload {
namespace {

std::vector<Event> drain(TraceGenerator& trace, std::int64_t cap = 1 << 20) {
  std::vector<Event> out;
  Event e;
  while (static_cast<std::int64_t>(out.size()) < cap && trace.next(&e)) out.push_back(e);
  return out;
}

OpenTraceOptions smallOptions() {
  OpenTraceOptions o;
  o.bins = 16;
  o.arrivalRatePerBin = 1.0;
  o.departureRate = 0.25;
  o.resampleRate = 1.0;
  o.maxEvents = 4000;
  return o;
}

TEST(Workload, KindNamesRoundTrip) {
  for (const EventKind kind :
       {EventKind::kArrive, EventKind::kDepart, EventKind::kResample}) {
    EventKind back{};
    ASSERT_TRUE(kindFromName(kindName(kind), &back));
    EXPECT_EQ(back, kind);
  }
  EventKind ignored{};
  EXPECT_FALSE(kindFromName("nonsense", &ignored));
}

TEST(Workload, GeneratorsAreDeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    PoissonTrace trace(smallOptions(), seed);
    return drain(trace);
  };
  const auto a = run(7);
  EXPECT_EQ(a, run(7));
  EXPECT_NE(a, run(8));
  EXPECT_EQ(a.size(), 4000u);  // arrivals keep the trace alive to maxEvents
}

TEST(Workload, EventStreamIsStructurallyValid) {
  BurstyTraceOptions options;
  options.base = smallOptions();
  BurstyTrace trace(options, 3);
  double lastTime = 0.0;
  std::set<std::int64_t> live;
  std::set<std::int64_t> seen;
  Event e;
  while (trace.next(&e)) {
    EXPECT_GE(e.time, lastTime);
    lastTime = e.time;
    switch (e.kind) {
      case EventKind::kArrive:
        EXPECT_GE(e.weight, 1);
        EXPECT_TRUE(seen.insert(e.ball).second) << "ball ids are never reused";
        live.insert(e.ball);
        break;
      case EventKind::kDepart:
        EXPECT_EQ(e.weight, 0);
        EXPECT_EQ(live.erase(e.ball), 1u) << "departures pick live balls";
        break;
      case EventKind::kResample:
        EXPECT_EQ(e.weight, 0);
        EXPECT_TRUE(live.count(e.ball) == 1) << "resamples pick live balls";
        break;
    }
  }
  EXPECT_EQ(trace.liveBalls(), static_cast<std::int64_t>(live.size()));
}

TEST(Workload, PoissonInterArrivalsAreExponential) {
  // Arrivals only (mu = resample = 0): inter-arrival times must be exactly
  // Exp(lambda * n).
  OpenTraceOptions o;
  o.bins = 8;
  o.arrivalRatePerBin = 0.5;
  o.departureRate = 0.0;
  o.resampleRate = 0.0;
  o.maxEvents = 4000;
  PoissonTrace trace(o, 19);
  const auto events = drain(trace);
  ASSERT_EQ(events.size(), 4000u);
  const double rate = o.arrivalRatePerBin * static_cast<double>(o.bins);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < events.size(); ++i) {
    gaps.push_back(events[i].time - events[i - 1].time);
  }
  const auto ks = stats::ksOneSample(
      gaps, [rate](double t) { return t <= 0.0 ? 0.0 : 1.0 - std::exp(-rate * t); });
  EXPECT_GT(ks.pValue, 1e-3) << "KS statistic " << ks.statistic;
}

TEST(Workload, DiurnalPeakCarriesMoreArrivalsThanTrough) {
  DiurnalTraceOptions options;
  options.base.bins = 32;
  options.base.arrivalRatePerBin = 1.0;
  options.base.departureRate = 1.0;  // keep the population (and event mix) bounded
  options.base.resampleRate = 0.0;
  options.base.maxEvents = 60000;
  options.amplitude = 0.9;
  options.period = 8.0;
  DiurnalTrace trace(options, 5);
  // Peak phase: sin > 0 (first half of each period); trough: sin < 0.
  std::int64_t peak = 0;
  std::int64_t trough = 0;
  Event e;
  while (trace.next(&e)) {
    if (e.kind != EventKind::kArrive) continue;
    const double phase = std::fmod(e.time, options.period) / options.period;
    (phase < 0.5 ? peak : trough) += 1;
  }
  ASSERT_GT(trough, 0);
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trough), 2.0)
      << "peak " << peak << " trough " << trough;
}

TEST(Workload, BurstyIsOverdispersedVersusPoisson) {
  // Arrival counts per fixed window: an MMPP has variance/mean well above
  // the Poisson value 1.
  BurstyTraceOptions options;
  options.base.bins = 16;
  options.base.arrivalRatePerBin = 0.5;
  options.base.departureRate = 1.0;
  options.base.resampleRate = 0.0;
  options.base.maxEvents = 60000;
  options.burstRateFactor = 16.0;
  options.calmToBurstRate = 0.2;
  options.burstToCalmRate = 0.2;
  BurstyTrace trace(options, 23);
  std::vector<double> window;
  double windowEnd = 1.0;
  double count = 0.0;
  Event e;
  while (trace.next(&e)) {
    if (e.kind != EventKind::kArrive) continue;
    while (e.time >= windowEnd) {
      window.push_back(count);
      count = 0.0;
      windowEnd += 1.0;
    }
    count += 1.0;
  }
  ASSERT_GT(window.size(), 50u);
  double mean = 0.0;
  for (const double v : window) mean += v;
  mean /= static_cast<double>(window.size());
  double var = 0.0;
  for (const double v : window) var += (v - mean) * (v - mean);
  var /= static_cast<double>(window.size() - 1);
  EXPECT_GT(var / mean, 1.5) << "variance/mean " << var / mean;
}

TEST(Workload, HotspotBurstsAreSynchronizedAndHeavy) {
  HotspotTraceOptions options;
  options.base = smallOptions();
  options.base.maxEvents = 20000;
  options.burstPeriod = 4.0;
  options.burstSize = 8;
  options.hotWeight = 5;
  HotspotTrace trace(options, 31);
  const auto events = drain(trace);
  // Every burst: burstSize consecutive arrivals with identical timestamp
  // (a multiple of the period) and the hot weight.
  std::int64_t bursts = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    if (events[i].kind != EventKind::kArrive || events[i].weight != options.hotWeight) {
      continue;
    }
    const double t = events[i].time;
    if (i > 0 && events[i - 1].time == t && events[i - 1].weight == options.hotWeight) {
      continue;  // interior of a burst already counted
    }
    std::int64_t runLength = 0;
    for (std::size_t j = i; j < events.size() && events[j].time == t; ++j) {
      ASSERT_EQ(events[j].kind, EventKind::kArrive);
      ASSERT_EQ(events[j].weight, options.hotWeight);
      ++runLength;
    }
    EXPECT_EQ(runLength, options.burstSize);
    EXPECT_NEAR(std::fmod(t, options.burstPeriod), 0.0, 1e-9);
    ++bursts;
  }
  EXPECT_GT(bursts, 10);
}

TEST(Workload, NonDyadicBurstPeriodAdvancesTime) {
  // Regression: floor(t/p)+1 times p can round back to exactly t for
  // non-dyadic periods, freezing trace time and re-emitting one burst
  // forever. Bursts must stay strictly increasing in time.
  HotspotTraceOptions options;
  options.base = smallOptions();
  options.base.maxEvents = 20000;
  options.burstPeriod = 0.7;
  options.burstSize = 4;
  options.hotWeight = 2;
  HotspotTrace trace(options, 57);
  double lastBurstTime = -1.0;
  std::int64_t distinctBursts = 0;
  Event e;
  while (trace.next(&e)) {
    if (e.kind != EventKind::kArrive || e.weight != options.hotWeight) continue;
    if (e.time != lastBurstTime) {
      EXPECT_GT(e.time, lastBurstTime);
      lastBurstTime = e.time;
      ++distinctBursts;
    }
  }
  EXPECT_GT(distinctBursts, 100);  // ~maxEvents worth of trace, period 0.7
}

TEST(Workload, PureBurstTraceStillEmits) {
  // lambda = 0 with an empty system leaves no running clocks; scheduled
  // bursts must still fire (regression: the zero-rate path used to end
  // the trace before consulting the burst schedule).
  HotspotTraceOptions options;
  options.base.bins = 8;
  options.base.arrivalRatePerBin = 0.0;
  options.base.departureRate = 1.0;
  options.base.resampleRate = 0.0;
  options.base.maxEvents = 1000;
  options.burstPeriod = 2.0;
  options.burstSize = 4;
  options.hotWeight = 3;
  HotspotTrace trace(options, 13);
  const auto events = drain(trace);
  ASSERT_EQ(events.size(), 1000u);
  std::int64_t bursts = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kArrive) {
      EXPECT_EQ(e.weight, options.hotWeight);  // no background traffic
      ++bursts;
    }
  }
  EXPECT_GT(bursts, 0);
}

// fill() is next() batched: for every generator shape, any batch size and
// any mix of the two calls yield the one stream next() alone yields, and a
// RecordingTrace writes the same bytes either way.
TEST(Workload, FillMatchesNextForEveryGenerator) {
  using Make = std::function<std::unique_ptr<TraceGenerator>()>;
  OpenTraceOptions base = smallOptions();
  base.maxEvents = 4001;  // a multiple of none of the batch sizes
  HotspotTraceOptions hotspot;
  hotspot.base = base;
  hotspot.burstPeriod = 4.0;
  hotspot.burstSize = 40;  // a burst outlasts a batch of 3: split across fills
  // No background arrivals or resamples, and departures fast enough to
  // empty the system between bursts: the total-rate-0 path.
  HotspotTraceOptions pureBurst = hotspot;
  pureBurst.base.arrivalRatePerBin = 0.0;
  pureBurst.base.resampleRate = 0.0;
  pureBurst.base.departureRate = 4.0;
  BurstyTraceOptions bursty;
  bursty.base = base;
  DiurnalTraceOptions diurnal;
  diurnal.base = base;
  diurnal.period = 8.0;
  const std::vector<std::pair<std::string, Make>> shapes = {
      {"poisson", [&] { return std::make_unique<PoissonTrace>(base, 3); }},
      {"bursty", [&] { return std::make_unique<BurstyTrace>(bursty, 3); }},
      {"diurnal", [&] { return std::make_unique<DiurnalTrace>(diurnal, 3); }},
      {"hotspot", [&] { return std::make_unique<HotspotTrace>(hotspot, 3); }},
      {"pure_burst", [&] { return std::make_unique<HotspotTrace>(pureBurst, 3); }},
      {"composed", [&] {
         return std::make_unique<ComposedTrace>(
             base, "diurnal(0.8,8)*bursty(8,0.05,0.5)+poisson(0.5)+hotspot(4,40,2)", 3);
       }},
  };
  const auto append = [](std::vector<Event>* to, const std::vector<Event>& from,
                         std::size_t k) {
    to->insert(to->end(), from.begin(), from.begin() + static_cast<std::ptrdiff_t>(k));
  };
  for (const auto& [label, make] : shapes) {
    const auto reference = drain(*make());
    ASSERT_EQ(reference.size(), 4001u) << label;

    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{1024}}) {
      const auto trace = make();
      std::vector<Event> got;
      std::vector<Event> buffer(batch);
      for (;;) {
        const std::size_t k = trace->fill(buffer.data(), batch);
        ASSERT_LE(k, batch);
        append(&got, buffer, k);
        if (k < batch) break;  // a short fill only at the end
      }
      EXPECT_EQ(got, reference) << label << " batch=" << batch;
      EXPECT_EQ(trace->fill(buffer.data(), batch), 0u) << label << ": the end stays the end";
    }

    // next() and fill() calls interleaved.
    const auto trace = make();
    std::vector<Event> got;
    std::vector<Event> buffer(7);
    Event e;
    for (std::size_t round = 0;; ++round) {
      if (round % 2 == 0) {
        if (!trace->next(&e)) break;
        got.push_back(e);
      } else {
        const std::size_t want = 1 + round % 7;
        const std::size_t k = trace->fill(buffer.data(), want);
        append(&got, buffer, k);
        if (k < want) break;
      }
    }
    EXPECT_EQ(got, reference) << label << " interleaved";

    // RecordingTrace: inner fill plus the writes, byte for byte.
    for (const TraceFormat format : {TraceFormat::kJsonl, TraceFormat::kBinary}) {
      const auto nextSource = make();
      std::ostringstream viaNext(std::ios::binary);
      RecordingTrace nextRecorder(*nextSource, viaNext, format);
      (void)drain(nextRecorder);
      const auto fillSource = make();
      std::ostringstream viaFill(std::ios::binary);
      RecordingTrace fillRecorder(*fillSource, viaFill, format);
      std::vector<Event> filled;
      std::vector<Event> chunk(100);
      for (std::size_t k; (k = fillRecorder.fill(chunk.data(), chunk.size())) > 0;) {
        append(&filled, chunk, k);
      }
      EXPECT_EQ(filled, reference) << label << " " << traceFormatName(format);
      EXPECT_EQ(viaFill.str(), viaNext.str()) << label << " " << traceFormatName(format);
    }
  }
}

TEST(Workload, JsonlRoundTripIsExact) {
  HotspotTraceOptions options;
  options.base = smallOptions();
  options.base.maxEvents = 2000;
  HotspotTrace trace(options, 41);
  std::ostringstream recorded;
  RecordingTrace tee(trace, recorded);
  const auto original = drain(tee);
  ASSERT_EQ(original.size(), 2000u);

  std::istringstream in(recorded.str());
  JsonlTraceReader reader(in);
  const auto replayed = drain(reader);
  // Bit-exact, including the double timestamps (shortest round-trip form).
  EXPECT_EQ(original, replayed);
}

TEST(Workload, ParseRejectsMalformedLines) {
  Event e;
  std::string error;
  EXPECT_FALSE(parseTraceEvent("not json", &e, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseTraceEvent("{\"t\":1.0}", &e, &error));
  EXPECT_FALSE(parseTraceEvent(
      "{\"t\":1.0,\"kind\":\"explode\",\"ball\":1,\"w\":1}", &e, &error));
  EXPECT_TRUE(parseTraceEvent("{\"t\":1.5,\"kind\":\"depart\",\"ball\":3,\"w\":0}", &e));
  EXPECT_EQ(e.kind, EventKind::kDepart);
  EXPECT_EQ(e.ball, 3);
}

}  // namespace
}  // namespace rlslb::workload
