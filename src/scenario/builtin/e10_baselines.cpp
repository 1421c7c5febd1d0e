// e10_baselines -- the related-work baselines of Section 2, quantitatively.
//
// (A) RLS vs the strict-inequality variant of [Goldberg'04, Ganesh+'12]:
//     the paper remarks the balancing times coincide exactly; the table
//     reports both means and a Mann-Whitney p-value (must NOT separate).
// (B) Local search from a two-choice start: RLS activations to perfect
//     balance vs CRS [9] pair-draws to local stability. Section 2: RLS
//     needs O(n^2) activations, CRS n^{O(1)} draws with a larger exponent.
// (C) Synchronous protocols from the worst case: rounds to reach a
//     logarithmic band for selfish rerouting [4], EDM global-average [10],
//     and threshold [1], next to RLS's continuous time (one time unit ~ one
//     round of m expected activations). Shows the knowledge/synchrony
//     trade-off the paper discusses.
// (D) Self-stabilizing repeated balls-into-bins [2] at m = n.
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "process/registry.hpp"
#include "rng/xoshiro256pp.hpp"
#include "runner/replication.hpp"
#include "scenario/builtin/builtin.hpp"
#include "stats/summary.hpp"
#include "stats/tests.hpp"
#include "util/assert.hpp"
#include "util/parse.hpp"

namespace rlslb::scenario::builtin {

namespace {

void runBaselines(ScenarioContext& ctx) {
  // Baseline protocols are constructed through the process registry (one
  // construction path for every dynamic); register before the parallel
  // replication sweeps so the registry is read-only under the pool.
  process::registerBuiltinProcesses();

  // `process=` filters the synchronous roster of section (C), e.g.
  //   rlslb run e10_baselines process=threshold
  // Split up front so a malformed list fails before any section runs.
  const std::string processFilter = ctx.params.getString("process", "");
  const std::vector<std::string> processKinds =
      processFilter.empty() ? std::vector<std::string>{}
                            : util::splitList(processFilter, ',', "process");

  // ------------------------------------------------ (A) strict variant
  {
    Table table({"n", "m", "reps", "E[T] gap=1", "E[T] gap=2", "MWU p-value", "verdict"});
    for (const std::int64_t n : {ctx.sized(64), ctx.sized(256)}) {
      const std::int64_t m = 8 * n;
      const std::int64_t reps = ctx.repsOr(300);
      std::vector<double> t1;
      std::vector<double> t2;
      for (std::int64_t rep = 0; rep < reps; ++rep) {
        core::SimOptions o;
        o.engine = core::SimOptions::EngineKind::Naive;
        o.seed = rng::streamSeed(ctx.seed ^ static_cast<std::uint64_t>(n), rep);
        o.gap = 1;
        t1.push_back(core::balancingTime(config::allInOne(n, m), o));
        o.seed = rng::streamSeed(ctx.seed ^ static_cast<std::uint64_t>(n) ^ 0xabc, rep);
        o.gap = 2;
        t2.push_back(core::balancingTime(config::allInOne(n, m), o));
      }
      const auto s1 = stats::summarize(t1);
      const auto s2 = stats::summarize(t2);
      const auto mwu = stats::mannWhitneyU(t1, t2);
      table.row()
          .cell(n)
          .cell(m)
          .cell(reps)
          .cell(s1.mean)
          .cell(s2.mean)
          .cell(mwu.pValue, 3)
          .cell(mwu.pValue > 0.01 ? "indistinguishable" : "SEPARATED (unexpected)");
    }
    ctx.emitTable(table,
                  "[E10-A] RLS (>=) vs strict variant (>): identical balancing-time "
                  "distribution (Section 3 remark)");
  }

  // ----------------------------------------------------- (B) CRS vs RLS
  {
    Table table({"n", "m", "reps", "RLS activations", "RLS time", "CRS pair-draws",
                 "CRS final disc", "draws/activations"});
    for (const std::int64_t n : {16, 32, 64, 128}) {
      const std::int64_t m = 4 * n;
      const std::int64_t reps = ctx.repsOr(15);
      const auto result = runner::runReplications(
          reps, ctx.seed ^ static_cast<std::uint64_t>(n * 999), 4,
          [&](std::int64_t, std::uint64_t seed) {
            rng::Xoshiro256pp initEng(seed);
            const auto start = config::greedyD(n, m, 2, initEng);
            core::SimOptions o;
            o.engine = core::SimOptions::EngineKind::Naive;
            o.seed = seed ^ 0x5555;
            const auto r = core::balance(start, o);

            // CRS through the registry (uses only the (n, m) shape; its
            // candidate pairs and Greedy[2] placement are seed-derived).
            auto crs = process::makeProcess("crs", config::allInOne(n, m), seed ^ 0x9999);
            process::RunLimits crsLimits;
            crsLimits.maxEvents = 200'000'000;
            const auto cr = process::run(*crs, process::Target::equilibrium(), crsLimits);
            const double draws = cr.reachedTarget ? cr.clock.value : -1.0;
            return std::vector<double>{static_cast<double>(r.activations), r.time, draws,
                                       cr.finalState.discrepancy()};
          }, ctx.pool());
      const auto act = result.summary(0);
      const auto time = result.summary(1);
      const auto draws = result.summary(2);
      const auto disc = result.summary(3);
      table.row()
          .cell(n)
          .cell(m)
          .cell(reps)
          .cell(act.mean, 5)
          .cell(time.mean)
          .cell(draws.mean, 5)
          .cell(disc.mean, 3)
          .cell(draws.mean / act.mean, 3);
    }
    ctx.emitTable(table,
                  "[E10-B] from a two-choice placement: RLS to perfect balance vs CRS "
                  "to local stability (the ratio grows with n: CRS pays a larger "
                  "polynomial exponent, Section 2)");
  }

  // ------------------------------------------- (C) synchronous baselines
  {
    Table table({"protocol", "n", "m", "reps", "rounds to 2ln(n)-band", "final disc",
                 "RLS time to same band"});
    const std::int64_t n = ctx.sized(128);
    for (const std::int64_t ratio : {16, 256}) {
      const std::int64_t m = n * ratio;
      const auto band = static_cast<std::int64_t>(std::ceil(2.0 * std::log(static_cast<double>(n))));
      const std::int64_t reps = ctx.repsOr(15);

      // RLS reference: continuous time to the same band.
      const auto rlsSamples = runner::runReplicationsScalar(
          reps, ctx.seed ^ static_cast<std::uint64_t>(ratio),
          [&](std::int64_t, std::uint64_t seed) {
            core::SimOptions o;
            o.engine = core::SimOptions::EngineKind::Hybrid;
            o.seed = seed;
            return core::balancingTime(config::allInOne(n, m), o, sim::Target::xBalanced(band));
          }, ctx.pool());
      const double rlsTime = stats::summarize(rlsSamples).mean;

      // Synchronous baselines as registry kinds; `process=` selects a
      // subset (comma list). The threshold kind's default is exactly the
      // historical T = floor(m/n), p = 0.5.
      struct Row {
        const char* name;
        const char* kind;
      };
      const Row allRows[] = {
          {"selfish [4]", "selfish"},
          {"EDM global-avg [10]", "edm"},
          {"threshold T=avg [1]", "threshold"},
      };
      std::vector<Row> rows;
      if (processKinds.empty()) {
        rows.assign(std::begin(allRows), std::end(allRows));
      } else {
        for (const std::string& kind : processKinds) {
          bool known = false;
          for (const Row& row : allRows) {
            if (kind == row.kind) {
              rows.push_back(row);
              known = true;
            }
          }
          RLSLB_ASSERT_MSG(known,
                           "process= must name synchronous kinds from "
                           "selfish|edm|threshold (comma-separated)");
        }
      }
      const auto init = config::allInOne(n, m);
      for (const auto& row : rows) {
        const auto result = runner::runReplications(
            reps, ctx.seed ^ static_cast<std::uint64_t>(ratio * 31), 2,
            [&](std::int64_t, std::uint64_t seed) {
              auto proto = process::makeProcess(row.kind, init, seed);
              process::RunLimits protoLimits;
              protoLimits.maxEvents = 2000;
              const auto r =
                  process::run(*proto, process::Target::xBalanced(band), protoLimits);
              const double rounds = r.reachedTarget ? r.clock.value : -1.0;
              return std::vector<double>{rounds, r.finalState.discrepancy()};
            }, ctx.pool());
        const auto rounds = result.summary(0);
        const auto disc = result.summary(1);
        table.row()
            .cell(row.name)
            .cell(n)
            .cell(m)
            .cell(reps)
            .cell(rounds.mean, 4)
            .cell(disc.mean, 3)
            .cell(rlsTime, 4);
      }
    }
    ctx.emitTable(
        table,
        "[E10-C] synchronous baselines from the worst case (rounds = -1 means the band "
        "was not reached: the protocol stalls in a wider stationary band). One RLS time "
        "unit ~ one synchronous round (m expected activations).");
  }

  // ---------------------------- (D) self-stabilizing repeated b-i-b [2]
  {
    Table table({"n (= m)", "reps", "stationary max load", "3 ln n / ln ln n", "RLS final max"});
    for (const std::int64_t n : {ctx.sized(256), ctx.sized(1024)}) {
      const std::int64_t reps = ctx.repsOr(10);
      const auto result = runner::runReplications(
          reps, ctx.seed ^ static_cast<std::uint64_t>(n * 77), 2,
          [&](std::int64_t, std::uint64_t seed) {
            auto p = process::makeProcess("repeated", config::allInOne(n, n), seed);
            for (std::int64_t r = 0; r < 3 * n; ++r) p->advance();  // drain + stabilize
            double maxSum = 0.0;
            const int samplesPerRun = 50;
            for (int s = 0; s < samplesPerRun; ++s) {
              for (int r = 0; r < 4; ++r) p->advance();
              maxSum += static_cast<double>(p->state().maxLoad);  // O(1) via the tracker
            }
            core::SimOptions o;
            o.engine = core::SimOptions::EngineKind::Hybrid;
            o.seed = seed ^ 0x777;
            const auto rls = core::balance(config::allInOne(n, n), o);
            return std::vector<double>{maxSum / samplesPerRun,
                                       static_cast<double>(rls.finalState.maxLoad)};
          }, ctx.pool());
      const double lnN = std::log(static_cast<double>(n));
      table.row()
          .cell(n)
          .cell(reps)
          .cell(result.summary(0).mean, 4)
          .cell(3.0 * lnN / std::log(lnN), 4)
          .cell(result.summary(1).mean, 3);
    }
    ctx.emitTable(table,
                  "[E10-D] self-stabilizing repeated balls-into-bins [2] at m = n: it "
                  "churns forever in an O(log n / log log n)-max-load band, while RLS "
                  "terminates at max load 1");
  }
}

}  // namespace

void registerBaselines(ScenarioRegistry& r) {
  r.add({"e10_baselines",
         "Section 2 baselines: strict-RLS, CRS [9], selfish [4], EDM [10], threshold [1]",
         "Section 2", runBaselines,
         {{"process", "string", "(all three)",
           "filter section (C)'s synchronous roster: comma list of selfish|edm|threshold"}}});
}

}  // namespace rlslb::scenario::builtin
