#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace rlslb::workload {

const char* kindName(EventKind kind) {
  switch (kind) {
    case EventKind::kArrive: return "arrive";
    case EventKind::kDepart: return "depart";
    case EventKind::kResample: return "resample";
  }
  RLSLB_ASSERT_MSG(false, "unknown EventKind");
  return "?";
}

bool kindFromName(std::string_view name, EventKind* out) {
  if (name == "arrive") {
    *out = EventKind::kArrive;
  } else if (name == "depart") {
    *out = EventKind::kDepart;
  } else if (name == "resample") {
    *out = EventKind::kResample;
  } else {
    return false;
  }
  return true;
}

std::size_t TraceGenerator::fill(Event* out, std::size_t count) {
  std::size_t k = 0;
  while (k < count && next(out + k)) ++k;
  return k;
}

OpenTrace::OpenTrace(const OpenTraceOptions& options, std::uint64_t seed)
    : options_(options), eng_(seed) {
  RLSLB_ASSERT(options_.bins >= 1);
  RLSLB_ASSERT(options_.arrivalRatePerBin >= 0.0);
  RLSLB_ASSERT(options_.departureRate >= 0.0);
  RLSLB_ASSERT(options_.resampleRate >= 0.0);
  RLSLB_ASSERT(options_.ballWeight >= 1);
}

double OpenTrace::arrivalRateAt(double) const { return options_.arrivalRatePerBin; }
double OpenTrace::arrivalRateCeiling() const { return options_.arrivalRatePerBin; }
std::int64_t OpenTrace::arrivalWeight(double) { return options_.ballWeight; }
double OpenTrace::nextBurstAfter(double) const {
  return std::numeric_limits<double>::infinity();
}
void OpenTrace::emitBurst(double) {}

void OpenTrace::queueArrival(double t, std::int64_t weight) {
  RLSLB_ASSERT(weight >= 1);
  pending_.push_back({t, EventKind::kArrive, nextBall_++, weight});
}

std::size_t OpenTrace::fill(Event* out, std::size_t count) {
  const std::int64_t left = options_.maxEvents - emitted_;
  if (left <= 0) return 0;
  count = std::min(count, static_cast<std::size_t>(left));

  // Phase 1: every draw, in stream order, against the live *count*.
  // Superposed exponential clocks: candidate arrivals at the rate ceiling
  // (thinned to the instantaneous rate), departures and RLS resamples per
  // live ball. All rates are constant between events, so the
  // competing-exponentials draw is exact. No draw happens while burst
  // arrivals are queued, so `live` counts them once they are emitted.
  const double ceiling = arrivalRateCeiling();
  const double arrivalRate = ceiling * static_cast<double>(options_.bins);
  auto live = static_cast<std::uint64_t>(live_.size());
  std::size_t k = 0;
  while (k < count) {
    if (!pending_.empty()) {
      out[k++] = pending_.front();
      pending_.pop_front();
      ++live;
      continue;
    }
    if (!nextBurstKnown_) {
      nextBurst_ = nextBurstAfter(time_);
      nextBurstKnown_ = true;
    }
    const double balls = static_cast<double>(live);
    const double departRate = options_.departureRate * balls;
    const double resampleRate = options_.resampleRate * balls;
    const double total = arrivalRate + departRate + resampleRate;
    // With no running clocks (empty system, no stochastic arrivals) only
    // a scheduled burst can still produce events.
    if (total <= 0.0 && !std::isfinite(nextBurst_)) break;  // trace over
    const double candidate =
        total <= 0.0 ? nextBurst_ : time_ + rng::exponential(eng_, total);
    if (nextBurst_ <= candidate) {
      time_ = nextBurst_;
      nextBurstKnown_ = false;
      emitBurst(time_);
      continue;  // burst events queued; emitted at the top of the loop
    }
    time_ = candidate;

    const double ticket = rng::uniformDouble(eng_) * total;
    if (ticket < arrivalRate) {
      // Thinning: accept a candidate arrival with prob rate(t)/ceiling.
      if (rng::uniformDouble(eng_) * ceiling <= arrivalRateAt(time_)) {
        const std::int64_t weight = arrivalWeight(time_);
        RLSLB_ASSERT(weight >= 1);
        out[k++] = {time_, EventKind::kArrive, nextBall_++, weight};
        ++live;
      }
      continue;
    }
    // The picked live-array position rides in `ball` until phase 2.
    const auto pick = static_cast<std::int64_t>(rng::uniformIndex(eng_, live));
    if (ticket < arrivalRate + departRate) {
      out[k++] = {time_, EventKind::kDepart, pick, 0};
      --live;
    } else {
      out[k++] = {time_, EventKind::kResample, pick, 0};
    }
  }
  emitted_ += static_cast<std::int64_t>(k);

  // Phase 2: the live-array operations in order; positions become ids.
  for (std::size_t i = 0; i < k; ++i) {
    Event& e = out[i];
    switch (e.kind) {
      case EventKind::kArrive:
        live_.push_back(e.ball);
        break;
      case EventKind::kDepart: {
        const auto pick = static_cast<std::size_t>(e.ball);
        e.ball = live_[pick];
        live_[pick] = live_.back();
        live_.pop_back();
        break;
      }
      case EventKind::kResample:
        e.ball = live_[static_cast<std::size_t>(e.ball)];
        break;
    }
  }
  return k;
}

// ------------------------------------------------------------------ bursty

BurstyTrace::BurstyTrace(const BurstyTraceOptions& options, std::uint64_t seed)
    : OpenTrace(options.base, seed),
      burstOptions_(options),
      modulatorEng_(rng::streamSeed(seed, 0x6d6d7070ULL)) {  // "mmpp"
  RLSLB_ASSERT(burstOptions_.burstRateFactor >= 1.0);
  RLSLB_ASSERT(burstOptions_.calmToBurstRate > 0.0 && burstOptions_.burstToCalmRate > 0.0);
}

bool BurstyTrace::burstingAt(double t) const {
  // Extend the modulator trajectory lazily past t. Switch k goes calm ->
  // burst for even k; the trajectory depends only on the modulator stream,
  // so arrivalRateAt stays a pure function of t.
  while (switchTimes_.empty() || switchTimes_.back() <= t) {
    const bool leavingCalm = switchTimes_.size() % 2 == 0;
    const double rate =
        leavingCalm ? burstOptions_.calmToBurstRate : burstOptions_.burstToCalmRate;
    const double last = switchTimes_.empty() ? 0.0 : switchTimes_.back();
    switchTimes_.push_back(last + rng::exponential(modulatorEng_, rate));
  }
  const auto it = std::upper_bound(switchTimes_.begin(), switchTimes_.end(), t);
  const auto flips = static_cast<std::size_t>(it - switchTimes_.begin());
  return flips % 2 == 1;
}

double BurstyTrace::arrivalRateAt(double t) const {
  const double calm = options_.arrivalRatePerBin;
  return burstingAt(t) ? calm * burstOptions_.burstRateFactor : calm;
}

double BurstyTrace::arrivalRateCeiling() const {
  return options_.arrivalRatePerBin * burstOptions_.burstRateFactor;
}

// ----------------------------------------------------------------- diurnal

DiurnalTrace::DiurnalTrace(const DiurnalTraceOptions& options, std::uint64_t seed)
    : OpenTrace(options.base, seed), diurnalOptions_(options) {
  RLSLB_ASSERT(diurnalOptions_.amplitude >= 0.0 && diurnalOptions_.amplitude < 1.0);
  RLSLB_ASSERT(diurnalOptions_.period > 0.0);
}

double DiurnalTrace::arrivalRateAt(double t) const {
  const double phase = 2.0 * 3.14159265358979323846 * t / diurnalOptions_.period;
  return options_.arrivalRatePerBin * (1.0 + diurnalOptions_.amplitude * std::sin(phase));
}

double DiurnalTrace::arrivalRateCeiling() const {
  return options_.arrivalRatePerBin * (1.0 + diurnalOptions_.amplitude);
}

// ----------------------------------------------------------------- hotspot

HotspotTrace::HotspotTrace(const HotspotTraceOptions& options, std::uint64_t seed)
    : OpenTrace(options.base, seed), hotspotOptions_(options) {
  RLSLB_ASSERT(hotspotOptions_.burstPeriod > 0.0);
  RLSLB_ASSERT(hotspotOptions_.burstSize >= 1);
  RLSLB_ASSERT(hotspotOptions_.hotWeight >= 1);
}

double HotspotTrace::nextBurstAfter(double t) const {
  const double period = hotspotOptions_.burstPeriod;
  double k = std::floor(t / period) + 1.0;
  double next = k * period;
  // Strictly after t: for non-dyadic periods k*period can round back down
  // to exactly t (e.g. period=0.7 at t=2.0999999999999996), which would
  // freeze trace time and re-emit the same burst forever.
  while (next <= t) next = ++k * period;
  return next;
}

void HotspotTrace::emitBurst(double t) {
  for (std::int64_t i = 0; i < hotspotOptions_.burstSize; ++i) {
    queueArrival(t, hotspotOptions_.hotWeight);
  }
}

}  // namespace rlslb::workload
