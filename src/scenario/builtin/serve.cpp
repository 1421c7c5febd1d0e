// serve_* -- the online serving subsystem scenarios.
//
// Each scenario streams one workload trace (workload/generators.hpp)
// through the incremental OnlineAllocator under the epoch event loop
// (serve/event_loop.hpp) and reports:
//   - a deterministic gap trajectory (checkpoint epochs) and a summary
//     table with migration counts and the balance gap against the paper's
//     closed-system floor (gap 1 for unit weights; the heaviest ball for
//     weighted traffic) -- byte-identical for a fixed seed across runs
//     and thread counts;
//   - a timing table plus a "throughput" JSONL record (events/sec of the
//     decision+apply+repair loop), which CI gates via
//     scripts/compare_results.py next to the wall-clock trajectory.
//
// Shared params: n (bins), events (trace length), d (arrival choices),
// epoch (events per snapshot), repair (repair moves per epoch),
// lambda (arrivals/bin/time), mu (departure rate), resample (RLS clock
// rate), weight (background ball weight), record=FILE (tee the trace out;
// JSONL/CSV/binary by extension), trace=FILE (replay a recorded trace
// instead of generating; format by extension), trace_out=FILE (write a
// Chrome/Perfetto trace of the loop's phases). Kind-specific params are
// listed at each builder.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/builtin/builtin.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "util/assert.hpp"
#include "util/parse.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace rlslb::scenario::builtin {

namespace {

constexpr const char* kDefaultComposedSpec =
    "diurnal(0.8,64)*bursty(8,0.05,0.5)+hotspot(16,32,8)";

workload::OpenTraceOptions baseTraceOptions(ScenarioContext& ctx, std::int64_t bins,
                                            std::int64_t events) {
  workload::OpenTraceOptions o;
  o.bins = bins;
  o.arrivalRatePerBin = ctx.params.getDouble("lambda", 1.0);
  o.departureRate = ctx.params.getDouble("mu", 0.125);
  o.resampleRate = ctx.params.getDouble("resample", 1.0);
  o.ballWeight = ctx.params.getInt("weight", 1);
  o.maxEvents = events;
  return o;
}

std::unique_ptr<workload::TraceGenerator> buildTrace(ScenarioContext& ctx,
                                                     const std::string& kind,
                                                     std::int64_t bins, std::int64_t events,
                                                     std::uint64_t seed) {
  const workload::OpenTraceOptions base = baseTraceOptions(ctx, bins, events);
  if (kind == "poisson") {
    return std::make_unique<workload::PoissonTrace>(base, seed);
  }
  if (kind == "bursty") {
    workload::BurstyTraceOptions o;
    o.base = base;
    o.burstRateFactor = ctx.params.getDouble("burst_factor", 8.0);
    o.calmToBurstRate = ctx.params.getDouble("calm_to_burst", 0.05);
    o.burstToCalmRate = ctx.params.getDouble("burst_to_calm", 0.5);
    return std::make_unique<workload::BurstyTrace>(o, seed);
  }
  if (kind == "diurnal") {
    workload::DiurnalTraceOptions o;
    o.base = base;
    o.amplitude = ctx.params.getDouble("amplitude", 0.8);
    o.period = ctx.params.getDouble("period", 64.0);
    return std::make_unique<workload::DiurnalTrace>(o, seed);
  }
  if (kind == "composed") {
    workload::ComposeSpec parsed;
    std::string error;
    const bool ok = workload::parseComposeSpec(
        ctx.params.getString("spec", kDefaultComposedSpec), &parsed, &error);
    RLSLB_ASSERT_MSG(ok, "spec= does not parse (checkServe admits only specs that do)");
    return std::make_unique<workload::ComposedTrace>(base, std::move(parsed), seed);
  }
  RLSLB_ASSERT(kind == "adversarial");
  workload::HotspotTraceOptions o;
  o.base = base;
  o.burstPeriod = ctx.params.getDouble("burst_period", 16.0);
  o.burstSize = ctx.params.getInt("burst_size", 32);
  o.hotWeight = ctx.params.getInt("hot_weight", 8);
  return std::make_unique<workload::HotspotTrace>(o, seed);
}

/// Whether `path` can be opened for writing. The probe opens in append
/// mode, so an existing file keeps its bytes, and a file it created is
/// removed again.
bool canWrite(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app | std::ios::binary).is_open()) return false;
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

/// Range checks of the serve_* params: every value the trace generator,
/// the allocator or the loop would otherwise abort on is rejected with the
/// "parameter k=v: why" diagnostic, file-backed ones included (a replay
/// file is dry-parsed, output files are probed). The drivers run it before
/// anything is written; runServe runs it again before it builds anything.
/// Returns the replay file's event count (0 without trace=).
std::int64_t checkServe(const ScenarioContext& ctx, const std::string& kind) {
  const ScenarioParams& p = ctx.params;
  const auto positive = [&](const char* name, double dflt) {
    const double v = p.getDouble(name, dflt);
    if (!(v > 0.0) || !std::isfinite(v)) {
      util::rejectParam(name, p.getString(name, ""), "must be a finite number > 0");
    }
  };
  (void)p.getIntIn("n", ctx.sized(256), 1, INT32_MAX);
  (void)p.getIntIn("events", ctx.sized(6'000'000), 0);
  (void)p.getIntIn("d", 2, 1, INT32_MAX);
  (void)p.getIntIn("epoch", 1024, 1);
  (void)p.getIntIn("repair", 4, 0, INT32_MAX);
  (void)p.getDoubleIn("lambda", 1.0, 0.0);
  (void)p.getDoubleIn("mu", 0.125, 0.0);
  (void)p.getDoubleIn("resample", 1.0, 0.0);
  (void)p.getIntIn("weight", 1, 1, workload::kMaxBallWeight);
  std::int64_t replayEvents = 0;
  if (p.has("trace")) {
    const std::string replayPath = p.getString("trace", "");
    if (p.has("record")) {
      util::rejectParam("record", p.getString("record", ""),
                        "cannot be combined with trace= (a replayed trace is already on disk)");
    }
    std::ifstream in(replayPath, std::ios::binary);
    if (!in.is_open()) util::rejectParam("trace", replayPath, "cannot open the replay file");
    const workload::TraceFormat format = workload::traceFormatFromPath(replayPath);
    std::string error;
    replayEvents = workload::scanTraceEvents(in, format, &error);
    if (replayEvents < 0) {
      util::rejectParam("trace", replayPath,
                        std::string("not a ") + workload::traceFormatName(format) +
                            " trace (" + error + ")");
    }
    if (replayEvents == 0) util::rejectParam("trace", replayPath, "holds no events");
  }
  const std::string recordPath = p.getString("record", "");
  if (p.has("record") && !canWrite(recordPath)) {
    util::rejectParam("record", recordPath, "cannot open the file for writing");
  }
  // trace_out= is ignored (with a note) when tracing is compiled out.
  const std::string traceOutPath = p.getString("trace_out", "");
  if (obs::kTracingCompiledIn && p.has("trace_out") && !canWrite(traceOutPath)) {
    util::rejectParam("trace_out", traceOutPath, "cannot open the file for writing");
  }
  if (kind == "bursty") {
    (void)p.getDoubleIn("burst_factor", 8.0, 1.0);
    positive("calm_to_burst", 0.05);
    positive("burst_to_calm", 0.5);
  } else if (kind == "diurnal") {
    const double amplitude = p.getDouble("amplitude", 0.8);
    if (!(amplitude >= 0.0 && amplitude < 1.0)) {
      util::rejectParam("amplitude", p.getString("amplitude", ""), "must be in [0, 1)");
    }
    positive("period", 64.0);
  } else if (kind == "adversarial") {
    positive("burst_period", 16.0);
    (void)p.getIntIn("burst_size", 32, 1);
    (void)p.getIntIn("hot_weight", 8, 1, workload::kMaxBallWeight);
  } else if (kind == "composed") {
    const std::string spec = p.getString("spec", kDefaultComposedSpec);
    workload::ComposeSpec parsed;
    std::string error;
    if (!workload::parseComposeSpec(spec, &parsed, &error)) {
      util::rejectParam("spec", spec, error + "; see `rlslb traces`");
    }
  }
  return replayEvents;
}

void runServe(ScenarioContext& ctx, const std::string& kind) {
  const std::int64_t replayEvents = checkServe(ctx, kind);
  const std::int64_t n = ctx.params.getInt("n", ctx.sized(256));
  std::int64_t events = ctx.params.getInt("events", ctx.sized(6'000'000));
  serve::AllocatorOptions allocOptions;
  allocOptions.bins = n;
  allocOptions.arrivalChoices = static_cast<int>(ctx.params.getInt("d", 2));
  allocOptions.invertAcceptance = ctx.params.getBool("invert", false);
  const bool conformance = ctx.params.getBool("conformance", ctx.conformanceDefault);
  serve::LoopOptions loopOptions;
  loopOptions.epochEvents = ctx.params.getInt("epoch", 1024);
  loopOptions.repairMovesPerEpoch = static_cast<int>(ctx.params.getInt("repair", 4));
  loopOptions.seed = ctx.seed;
  const std::string replayPath = ctx.params.getString("trace", "");
  const std::string recordPath = ctx.params.getString("record", "");

  // Telemetry: the loop exports its counters/phase timings into the run's
  // registry; runOne emits the merged snapshot as a "metrics" record.
  loopOptions.metrics = &ctx.metrics;
  // Tracing: the driver-wide --trace-out writer if attached, or a
  // scenario-local one when the trace_out= param asks for a per-run file.
  const std::string traceOutPath = ctx.params.getString("trace_out", "");
  obs::TraceWriter localTrace;
  loopOptions.trace = ctx.trace;
  if (!traceOutPath.empty()) {
    if (obs::kTracingCompiledIn) {
      loopOptions.trace = &localTrace;
    } else {
      ctx.note("trace_out=" + traceOutPath +
               " ignored: tracing is compiled out (build with -DRLSLB_TRACING=ON)");
    }
  }

  // Trace source: generated (optionally tee'd to JSONL), or replayed.
  const std::uint64_t traceSeed = rng::streamSeed(ctx.seed, stableHash("trace:" + kind));
  std::unique_ptr<workload::TraceGenerator> generated;
  std::ifstream replayIn;
  std::ofstream recordOut;
  std::unique_ptr<workload::TraceGenerator> source;
  if (!replayPath.empty()) {
    // The epoch/checkpoint/warmup math below needs the true trace length,
    // which for a replay is the file's (counted by checkServe's dry parse),
    // not the `events` param. The format (JSONL / CSV / binary) follows
    // the file extension.
    events = replayEvents;
    replayIn.open(replayPath, std::ios::binary);
    RLSLB_ASSERT_MSG(replayIn.is_open(), "cannot open trace= replay file");
    source = workload::makeTraceReader(replayIn, workload::traceFormatFromPath(replayPath));
  } else {
    generated = buildTrace(ctx, kind, n, events, traceSeed);
    if (!recordPath.empty()) {
      recordOut.open(recordPath, std::ios::binary);
      RLSLB_ASSERT_MSG(recordOut.is_open(), "cannot open record= output file");
      source = std::make_unique<workload::RecordingTrace>(
          *generated, recordOut, workload::traceFormatFromPath(recordPath));
    } else {
      source = std::move(generated);
    }
  }

  // Epoch observation: a handful of trajectory checkpoints plus post-warmup
  // gap statistics and the per-epoch wall-clock distribution. Computed
  // before the loop so the conformance warmup can be sized from it.
  const std::int64_t totalEpochs =
      (events + loopOptions.epochEvents - 1) / loopOptions.epochEvents;

  // Conformance: the default serve roster (load conservation, the paper's
  // gap envelope, latency drift) rides the epoch boundary when
  // conformance=1 (or --conformance= made it the run default).
  if (conformance) {
    obs::ServeConformanceParams cp;
    cp.n = n;
    const double mu = ctx.params.getDouble("mu", 0.125);
    cp.expectedBalls =
        mu > 0.0 ? static_cast<std::int64_t>(ctx.params.getDouble("lambda", 1.0) *
                                             static_cast<double>(n) / mu)
                 : 0;
    cp.d = allocOptions.arrivalChoices;
    cp.totalEpochs = totalEpochs;
    obs::installServeMonitors(ctx.monitors, cp);
    ctx.monitors.beginRun();
    loopOptions.monitors = &ctx.monitors;
  }

  serve::OnlineAllocator allocator(allocOptions);
  serve::EpochLoop loop(allocator, loopOptions);

  const std::int64_t checkpointEvery = std::max<std::int64_t>(1, totalEpochs / 8);
  const std::int64_t warmupEpochs = totalEpochs / 4;
  Table trajectory({"epoch", "trace time", "live balls", "total load", "gap", "migrations"});
  double gapSum = 0.0;
  std::int64_t gapEpochs = 0;
  std::int64_t maxGap = 0;
  std::vector<double> epochNs;
  const auto runResult = loop.run(*source, [&](const serve::EpochStats& s) {
    if (s.epoch % checkpointEvery == 0 || s.epoch + 1 == totalEpochs) {
      trajectory.row()
          .cell(s.epoch)
          .cell(s.traceTime, 5)
          .cell(s.liveBalls)
          .cell(s.totalLoad)
          .cell(s.gap())
          .cell(s.migrations);
    }
    if (s.epoch >= warmupEpochs) {
      gapSum += static_cast<double>(s.gap());
      ++gapEpochs;
      if (s.gap() > maxGap) maxGap = s.gap();
    }
    if (s.events > 0) {
      epochNs.push_back(s.wallSeconds * 1e9 / static_cast<double>(s.events));
    }
  });
  const auto& c = allocator.counters();

  if (loopOptions.trace == &localTrace) {
    RLSLB_ASSERT_MSG(localTrace.writeFile(traceOutPath), "cannot write trace_out= file");
    ctx.note("[trace] " + std::to_string(localTrace.eventCount()) + " events -> " +
             traceOutPath + "  (load in ui.perfetto.dev or chrome://tracing)");
  }

  ctx.emitTable(trajectory, "[serve] " + kind + " gap trajectory, n=" + std::to_string(n) +
                                " (checkpoint epochs; gap = max - min bin load)");

  const double meanGap = gapEpochs > 0 ? gapSum / static_cast<double>(gapEpochs) : 0.0;
  const std::int64_t bound = std::max<std::int64_t>(1, allocator.maxWeightSeen());
  // Final balance through the closed-system vocabulary (the same
  // sim::BalanceState view process::Process::state() exposes).
  const sim::BalanceState finalBalance = allocator.balanceState();
  Table summary({"events", "arrivals", "departures", "resamples", "migrations",
                 "migr/resample", "repairs", "mean gap", "max gap", "final disc",
                 "closed bound", "gap/bound"});
  summary.row()
      .cell(c.events)
      .cell(c.arrivals)
      .cell(c.departures)
      .cell(c.resamples)
      .cell(c.migrations)
      .cell(c.resamples > 0
                ? static_cast<double>(c.migrations) / static_cast<double>(c.resamples)
                : 0.0,
            3)
      .cell(c.repairMigrations)
      .cell(meanGap, 4)
      .cell(maxGap)
      .cell(finalBalance.discrepancy(), 3)
      .cell(bound)
      .cell(meanGap / static_cast<double>(bound), 3);
  ctx.emitTable(summary,
                "[serve] " + kind +
                    " summary (post-warmup gap vs the paper's closed-system balance floor)");

  // Wall-clock view: loop throughput and the per-event cost distribution.
  std::sort(epochNs.begin(), epochNs.end());
  const double meanNs = [&] {
    double total = 0.0;
    for (const double v : epochNs) total += v;
    return epochNs.empty() ? 0.0 : total / static_cast<double>(epochNs.size());
  }();
  const double p99Ns =
      epochNs.empty() ? 0.0
                      : epochNs[static_cast<std::size_t>(
                            static_cast<double>(epochNs.size() - 1) * 0.99)];
  const double eventsPerSec =
      runResult.wallSeconds > 0.0
          ? static_cast<double>(runResult.events) / runResult.wallSeconds
          : 0.0;
  Table timing({"events", "epochs", "loop wall s", "events/sec", "mean ns/event",
                "p99 ns/event (epoch)"});
  timing.row()
      .cell(runResult.events)
      .cell(runResult.epochs)
      .cell(runResult.wallSeconds, 4)
      .cell(eventsPerSec, 6)
      .cell(meanNs, 4)
      .cell(p99Ns, 4);
  ctx.emitTimingTable(timing, "[serve] " + kind +
                                  " loop throughput (decision+apply+repair wall-clock; "
                                  "trace generation excluded)");
  if (ctx.sink != nullptr) {
    ctx.sink->writeThroughput(ctx.activeScenario, runResult.events, eventsPerSec);
  }
}

}  // namespace

void registerServe(ScenarioRegistry& r) {
  const std::vector<process::ParamSpec> shared = {
      {"n", "int", "256 (scaled)", "bins"},
      {"events", "int", "6e6 (scaled)", "trace length"},
      {"d", "int", "2", "arrival choices (snapshot-least-loaded of d bins)"},
      {"epoch", "int", "1024", "events per load snapshot"},
      {"repair", "int", "4", "RLS repair moves per epoch"},
      {"lambda", "double", "1.0", "arrivals per bin per time unit"},
      {"mu", "double", "0.125", "per-ball departure rate"},
      {"resample", "double", "1.0", "per-ball RLS clock rate"},
      {"weight", "int", "1", "background ball weight"},
      {"conformance", "bool", "0 (run default)",
       "attach the conformance monitor roster at epoch boundaries"},
      {"invert", "bool", "0",
       "TEST HOOK: invert the allocator's acceptance rule (drives the gap up; "
       "pairs with conformance=1 to demo anomaly detection)"},
      {"record", "string", "(off)",
       "tee the generated trace to this file (.jsonl/.csv/.bin by extension)"},
      {"trace", "string", "(off)",
       "replay a recorded trace instead of generating (.jsonl/.csv/.bin by extension)"},
      {"trace_out", "string", "(off)",
       "write a Chrome/Perfetto trace of this run's phases to FILE"},
  };
  const auto add = [&](const std::string& kind, const std::string& what,
                       std::vector<process::ParamSpec> extra) {
    std::vector<process::ParamSpec> params = shared;
    params.insert(params.end(), extra.begin(), extra.end());
    r.add({"serve_" + kind,
           "online serving: " + what + " trace through the incremental RLS allocator",
           "open-system serving (Ganesh et al. [11]; Section 7 outlook)",
           [kind](ScenarioContext& ctx) { runServe(ctx, kind); }, std::move(params),
           [kind](const ScenarioContext& ctx) { (void)checkServe(ctx, kind); }});
  };
  add("poisson", "constant-rate Poisson arrivals/departures", {});
  add("bursty", "2-state MMPP calm/burst",
      {{"burst_factor", "double", "8.0", "burst-state rate multiplier"},
       {"calm_to_burst", "double", "0.05", "calm -> burst switching rate"},
       {"burst_to_calm", "double", "0.5", "burst -> calm switching rate"}});
  add("diurnal", "sinusoid-modulated (day/night) arrivals",
      {{"amplitude", "double", "0.8", "rate modulation depth (0..1)"},
       {"period", "double", "64.0", "day length in time units"}});
  add("adversarial", "synchronized heavy hot-spot bursts",
      {{"burst_period", "double", "16.0", "time between synchronized bursts"},
       {"burst_size", "int", "32", "balls per burst"},
       {"hot_weight", "int", "8", "weight of each burst ball"}});
  add("composed", "composable trace algebra (sum/modulate/overlay of factors)",
      {{"spec", "string", kDefaultComposedSpec,
        "trace algebra spec; factors/combinators listed by `rlslb traces`"}});
}

}  // namespace rlslb::scenario::builtin
