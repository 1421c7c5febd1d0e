// perfbench_traced -- the traced half of the end-to-end benchmark.
//
//   perfbench_traced serve_adversarial n=1024 events=40000000 --seed=7
//   perfbench_traced serve_capacity n_list=1000000 load_list=1 epb=2 --seed=7
//   perfbench_traced process_compare n=65536 ratio=8 reps=32 --seed=7
//
// Replays one benchmark workload through the modules' public calls, with
// the sizes, defaults and seed derivations of the `rlslb run` scenario of
// the same name, and prints one JSON object: per-layer seconds and the
// deterministic counts the harness checks against the CLI's tables. The
// spans are taken here, around the calls into each layer; nothing inside
// src/ is instrumented. The calls used are deliberately few --
// TraceGenerator::next, the loops' run(trace, onEpoch), balanceState(),
// residentBytes(), counters(), the metrics registry the loops already
// export, and the sim engine -- so that refactors of the serving stack
// break this program, not the CLI the end-to-end numbers come from.
//
// Layer accounting on a serving workload:
//   workload.gen_s   an identical TraceGenerator drained alone, before run()
//   *.loop_s         RunResult.wallSeconds (decide + apply + repair + flush)
//   obs.observe_s    run() wall - loop - generation - this program's own
//                    onEpoch probe; i.e. the loop's per-epoch observation
// The onEpoch probe times one balanceState() and one residentBytes() call
// per epoch; its cost is tracing overhead and is excluded from every layer.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "capacity/capacity_loop.hpp"
#include "capacity/compact_allocator.hpp"
#include "config/generators.hpp"
#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "rng/splitmix64.hpp"
#include "runner/thread_pool.hpp"
#include "scenario/builtin/builtin.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"
#include "sim/hybrid_engine.hpp"
#include "util/parse.hpp"
#include "workload/compose.hpp"
#include "workload/generators.hpp"

using namespace rlslb;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Params {
 public:
  void set(const std::string& key, const std::string& value) { values_[key] = value; }
  [[nodiscard]] std::int64_t getInt(const std::string& key) const {
    return util::parseInt64(require(key), key);
  }
  [[nodiscard]] double getDouble(const std::string& key) const {
    return util::parseDouble(require(key), key);
  }

 private:
  [[nodiscard]] const std::string& require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench_traced: missing param %s=\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  std::map<std::string, std::string> values_;
};

/// Insertion-ordered JSON object of numbers, printed on one line.
class Report {
 public:
  void put(const std::string& key, double value) { entries_.emplace_back(key, value); }
  void print(const std::string& workload) const {
    std::printf("{\"workload\":\"%s\"", workload.c_str());
    for (const auto& [key, value] : entries_) std::printf(",\"%s\":%.17g", key.c_str(), value);
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Drains `trace` alone: the generation cost the loop pays inside run().
std::pair<double, std::int64_t> drain(workload::TraceGenerator& trace) {
  workload::Event e;
  std::int64_t events = 0;
  const auto t0 = Clock::now();
  while (trace.next(&e)) ++events;
  return {secondsBetween(t0, Clock::now()), events};
}

/// Times one balanceState() and one residentBytes() call per epoch, and
/// its own cost, so observe_s can exclude it.
template <class Allocator>
struct EpochProbe {
  const Allocator* allocator;
  std::vector<double> balanceUs;
  std::vector<double> residentUs;
  double selfSeconds = 0.0;

  void operator()(const serve::EpochStats&) {
    const auto t0 = Clock::now();
    (void)allocator->balanceState();
    const auto t1 = Clock::now();
    (void)allocator->residentBytes();
    const auto t2 = Clock::now();
    balanceUs.push_back(secondsBetween(t0, t1) * 1e6);
    residentUs.push_back(secondsBetween(t1, t2) * 1e6);
    selfSeconds += secondsBetween(t0, Clock::now());
  }
};

/// The layers and counts both serving stacks report.
template <class Allocator>
void reportServing(Report& out, const Allocator& allocator, obs::MetricsRegistry& m,
                   const EpochProbe<Allocator>& probe, double genSeconds,
                   std::int64_t genEvents, double loopSeconds, double runSeconds) {
  const auto phase = [&](const char* name) {
    return static_cast<double>(m.counterValue(m.counter(name))) * 1e-9;
  };
  const serve::ServeCounters& c = allocator.counters();
  const std::int64_t stateBytes = allocator.residentBytes();
  out.put("workload.gen_s", genSeconds);
  out.put("workload.ns_per_event",
          genEvents > 0 ? genSeconds * 1e9 / static_cast<double>(genEvents) : 0.0);
  out.put("serve.decide_s", phase("serve.phase.decide_ns"));
  out.put("serve.apply_s", phase("serve.phase.apply_ns"));
  out.put("serve.repair_s", phase("serve.phase.repair_ns"));
  out.put("serve.flush_s", phase("serve.phase.flush_ns"));
  out.put("serve.migrate_accept_ratio", ratio(c.migrations, c.resamples));
  out.put("serve.repair_accept_ratio", ratio(c.repairMigrations, c.repairAttempts));
  out.put("capacity.state_bytes", static_cast<double>(stateBytes));
  out.put("capacity.bytes_per_ball", ratio(stateBytes, allocator.liveBalls()));
  out.put("obs.observe_s", runSeconds - loopSeconds - genSeconds - probe.selfSeconds);
  out.put("obs.balance_state_us_p50", quantile(probe.balanceUs, 0.50));
  out.put("obs.balance_state_us_p99", quantile(probe.balanceUs, 0.99));
  out.put("obs.resident_bytes_us_p50", quantile(probe.residentUs, 0.50));
  out.put("obs.resident_bytes_us_p99", quantile(probe.residentUs, 0.99));
  out.put("count.events", static_cast<double>(c.events));
  out.put("count.arrivals", static_cast<double>(c.arrivals));
  out.put("count.departures", static_cast<double>(c.departures));
  out.put("count.migrations", static_cast<double>(c.migrations));
  out.put("count.repair_migrations", static_cast<double>(c.repairMigrations));
  out.put("count.live_balls", static_cast<double>(allocator.liveBalls()));
}

/// serve_adversarial with the scenario's defaults (lambda 1, mu 0.125,
/// resample 1, weight 1, burst_period 16, burst_size 32, hot_weight 8,
/// d 2, shards 8, epoch 1024, repair 4) on a one-thread pool.
void runAdversarial(const Params& p, std::uint64_t seed, Report& out) {
  workload::HotspotTraceOptions o;
  o.base.bins = p.getInt("n");
  o.base.arrivalRatePerBin = 1.0;
  o.base.departureRate = 0.125;
  o.base.resampleRate = 1.0;
  o.base.ballWeight = 1;
  o.base.maxEvents = p.getInt("events");
  o.burstPeriod = 16.0;
  o.burstSize = 32;
  o.hotWeight = 8;
  const std::uint64_t traceSeed =
      rng::streamSeed(seed, scenario::builtin::stableHash("trace:adversarial"));

  workload::HotspotTrace alone(o, traceSeed);
  const auto [genSeconds, genEvents] = drain(alone);

  serve::AllocatorOptions allocOptions;
  allocOptions.bins = o.base.bins;
  allocOptions.arrivalChoices = 2;
  serve::OnlineAllocator allocator(allocOptions);
  obs::MetricsRegistry metrics;
  serve::LoopOptions loopOptions;
  loopOptions.shards = 8;
  loopOptions.epochEvents = 1024;
  loopOptions.repairMovesPerEpoch = 4;
  loopOptions.seed = seed;
  loopOptions.metrics = &metrics;
  runner::ThreadPool pool(1);
  serve::ShardedEventLoop loop(allocator, loopOptions, pool);
  workload::HotspotTrace trace(o, traceSeed);
  EpochProbe<serve::OnlineAllocator> probe{&allocator, {}, {}};
  const auto t0 = Clock::now();
  const auto run = loop.run(trace, std::ref(probe));
  const double runSeconds = secondsBetween(t0, Clock::now());

  out.put("serve.loop_s", run.wallSeconds);
  out.put("capacity.loop_s", 0.0);
  reportServing(out, allocator, metrics, probe, genSeconds, genEvents, run.wallSeconds,
                runSeconds);
}

/// One serve_capacity cell (compact backend) with the scenario's seed
/// derivation: cell seed from "capacity:<n>:<load>:<canonical trace>".
void runCapacity(const Params& p, std::uint64_t seed, Report& out) {
  const std::int64_t n = p.getInt("n_list");
  const double load = p.getDouble("load_list");
  const std::int64_t epb = p.getInt("epb");
  workload::ComposeSpec spec;
  std::string error;
  if (!workload::parseComposeSpec("poisson", &spec, &error)) {
    std::fprintf(stderr, "perfbench_traced: %s\n", error.c_str());
    std::exit(1);
  }
  const std::string traceName = spec.canonical();
  const std::string loadText = report::formatJsonNumber(load);
  const std::uint64_t cellSeed = rng::streamSeed(
      seed, scenario::builtin::stableHash("capacity:" + std::to_string(n) + ":" + loadText +
                                          ":" + traceName));
  const std::uint64_t traceSeed =
      rng::streamSeed(cellSeed, scenario::builtin::stableHash("trace"));
  workload::OpenTraceOptions base;
  base.bins = n;
  base.arrivalRatePerBin = 1.0;
  base.departureRate = 1.0 / load;
  base.resampleRate = 1.0;
  base.ballWeight = 1;
  base.maxEvents = epb * static_cast<std::int64_t>(load * static_cast<double>(n));

  workload::ComposedTrace alone(base, spec, traceSeed);
  const auto [genSeconds, genEvents] = drain(alone);

  capacity::CompactOptions allocOptions;
  allocOptions.bins = n;
  allocOptions.arrivalChoices = 2;
  capacity::CompactAllocator allocator(allocOptions);
  obs::MetricsRegistry metrics;
  capacity::CapacityLoopOptions loopOptions;
  loopOptions.epochEvents = 1024;
  loopOptions.repairMovesPerEpoch = 4;
  loopOptions.seed = cellSeed;
  loopOptions.metrics = &metrics;
  capacity::CapacityLoop loop(allocator, loopOptions);
  workload::ComposedTrace trace(base, spec, traceSeed);
  EpochProbe<capacity::CompactAllocator> probe{&allocator, {}, {}};
  const auto t0 = Clock::now();
  const auto run = loop.run(trace, std::ref(probe));
  const double runSeconds = secondsBetween(t0, Clock::now());

  out.put("serve.loop_s", 0.0);
  out.put("capacity.loop_s", run.wallSeconds);
  reportServing(out, allocator, metrics, probe, genSeconds, genEvents, run.wallSeconds,
                runSeconds);
}

/// process_compare process=rls start=allinone target=perfect: `reps`
/// replications seeded streamSeed(seed ^ H("process_compare:rls"), r),
/// then the one instrumented replication --conformance=on adds, seeded
/// seed ^ H("probe:rls"). Counts cover the `reps` table replications only.
void runTheorem1(const Params& p, std::uint64_t seed, Report& out) {
  const std::int64_t n = p.getInt("n");
  const std::int64_t m = p.getInt("ratio") * n;
  const std::int64_t reps = p.getInt("reps");
  const std::int64_t budget = 50'000'000;  // process_compare's default budget=
  const std::uint64_t repSeed = seed ^ scenario::builtin::stableHash("process_compare:rls");

  double buildSeconds = 0.0;
  double naiveSeconds = 0.0;
  double jumpSeconds = 0.0;
  std::int64_t events = 0;
  std::int64_t moves = 0;
  std::int64_t allMoves = 0;  // the instrumented replication's too, like the times
  std::int64_t naiveMoves = 0;
  std::int64_t activations = 0;
  std::int64_t reached = 0;
  double timeSum = 0.0;

  auto t0 = Clock::now();
  const config::Configuration start = config::allInOne(n, m);
  buildSeconds += secondsBetween(t0, Clock::now());
  for (std::int64_t r = 0; r <= reps; ++r) {
    const std::uint64_t engineSeed =
        r < reps ? rng::streamSeed(repSeed, static_cast<std::uint64_t>(r))
                 : seed ^ scenario::builtin::stableHash("probe:rls");
    t0 = Clock::now();
    sim::HybridEngine engine(start, engineSeed);
    const auto tRun = Clock::now();
    buildSeconds += secondsBetween(t0, tRun);

    // process::run's loop for a perfect-balance target (check stride 1),
    // split where the hybrid hands over to the jump engine.
    auto tSwitch = tRun;
    std::int64_t runEvents = 0;
    std::int64_t runActivations = engine.switched() ? 0 : engine.activations();
    std::int64_t runNaiveMoves = 0;
    bool done = engine.state().perfectlyBalanced();
    while (!done && runEvents < budget) {
      const bool naive = !engine.switched();
      if (naive) runActivations = engine.activations();
      if (!engine.step()) break;
      ++runEvents;
      if (naive) {
        ++runActivations;
        runNaiveMoves = engine.moves();
        if (engine.switched()) tSwitch = Clock::now();
      }
      done = engine.state().perfectlyBalanced();
    }
    const auto tEnd = Clock::now();
    if (!engine.switched()) tSwitch = tEnd;
    naiveSeconds += secondsBetween(tRun, tSwitch);
    jumpSeconds += secondsBetween(tSwitch, tEnd);
    allMoves += engine.moves();
    if (r < reps) {
      events += runEvents;
      moves += engine.moves();
      naiveMoves += runNaiveMoves;
      activations += runActivations;
      reached += done ? 1 : 0;
      timeSum += engine.time();
    }
  }

  out.put("config.build_s", buildSeconds);
  out.put("sim.naive_s", naiveSeconds);
  out.put("sim.jump_s", jumpSeconds);
  out.put("sim.moves", static_cast<double>(moves));
  out.put("sim.activations", static_cast<double>(activations));
  out.put("sim.naive_accept_ratio", ratio(naiveMoves, activations));
  out.put("sim.ns_per_move",
          allMoves > 0 ? (naiveSeconds + jumpSeconds) * 1e9 / static_cast<double>(allMoves)
                       : 0.0);
  out.put("sim.balance_time_mean", timeSum / static_cast<double>(reps));
  out.put("count.events", static_cast<double>(events));
  out.put("count.moves", static_cast<double>(moves));
  out.put("count.reached", static_cast<double>(reached));
  out.put("count.reps", static_cast<double>(reps));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s serve_adversarial|serve_capacity|process_compare "
                 "key=value... --seed=<u64>\n",
                 argv[0]);
    return 2;
  }
  const std::string workload = argv[1];
  Params params;
  std::uint64_t seed = 0;
  bool haveSeed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(util::parseInt64(arg.substr(7), "--seed"));
      haveSeed = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "perfbench_traced: expected key=value, got '%s'\n", arg.c_str());
      return 2;
    }
    params.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  if (!haveSeed) {
    std::fprintf(stderr, "perfbench_traced: --seed=<u64> is required\n");
    return 2;
  }

  Report out;
  if (workload == "serve_adversarial") {
    runAdversarial(params, seed, out);
  } else if (workload == "serve_capacity") {
    runCapacity(params, seed, out);
  } else if (workload == "process_compare") {
    runTheorem1(params, seed, out);
  } else {
    std::fprintf(stderr, "perfbench_traced: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  out.print(workload);
  return 0;
}
