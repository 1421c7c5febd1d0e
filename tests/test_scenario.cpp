// scenario/: registry semantics, parameter spec layer, and the JSONL
// determinism contract (fixed seed => byte-identical deterministic records
// across repeated runs and thread counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/generators.hpp"
#include "core/rls.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "scenario/harness.hpp"
#include "scenario/scenario.hpp"

namespace rlslb::scenario {
namespace {

ScenarioParams paramsOf(const std::vector<std::string>& tokens) {
  ScenarioParams p;
  std::string error;
  EXPECT_TRUE(ScenarioParams::fromTokens(tokens, &p, &error)) << error;
  return p;
}

// ------------------------------------------------------------- params

TEST(ScenarioParams, TypedGetters) {
  const ScenarioParams p =
      paramsOf({"n=1024", "big=1e6", "rate=0.25", "label=hello", "flag=true"});
  EXPECT_EQ(p.getInt("n", 0), 1024);
  EXPECT_EQ(p.getInt("big", 0), 1'000'000);  // scientific shorthand
  EXPECT_DOUBLE_EQ(p.getDouble("rate", 0.0), 0.25);
  EXPECT_EQ(p.getString("label", ""), "hello");
  EXPECT_TRUE(p.getBool("flag", false));
  // Defaults for absent keys.
  EXPECT_EQ(p.getInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(p.getDouble("absent", 1.5), 1.5);
  EXPECT_FALSE(p.has("absent"));
}

TEST(ScenarioParams, MalformedTokensRejected) {
  ScenarioParams p;
  std::string error;
  EXPECT_FALSE(ScenarioParams::fromTokens({"novalue"}, &p, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ScenarioParams::fromTokens({"=5"}, &p, &error));
}

TEST(ScenarioParams, UnusedKeySweep) {
  const ScenarioParams p = paramsOf({"used=1", "typo=2"});
  EXPECT_EQ(p.getInt("used", 0), 1);
  const auto unused = p.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ScenarioParams, ToJsonIsSortedAndRaw) {
  const ScenarioParams p = paramsOf({"b=2", "a=1e6"});
  EXPECT_EQ(p.toJson().dump(), "{\"a\":\"1e6\",\"b\":\"2\"}");
}

// ------------------------------------------------------------- registry

Scenario trivialScenario(const std::string& name) {
  return {name, "desc", "ref", [](ScenarioContext&) {}};
}

TEST(ScenarioRegistry, AddFindList) {
  ScenarioRegistry r;
  r.add(trivialScenario("beta"));
  r.add(trivialScenario("alpha"));
  ASSERT_NE(r.find("alpha"), nullptr);
  EXPECT_EQ(r.find("alpha")->description, "desc");
  EXPECT_EQ(r.find("nope"), nullptr);
  const auto all = r.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");  // name-sorted
  EXPECT_EQ(all[1]->name, "beta");
}

TEST(ScenarioRegistry, DuplicateNameThrows) {
  ScenarioRegistry r;
  r.add(trivialScenario("x"));
  EXPECT_THROW(r.add(trivialScenario("x")), std::invalid_argument);
}

TEST(ScenarioRegistry, RunOneUnknownNameThrowsWithRoster) {
  ScenarioRegistry r;
  r.add(trivialScenario("known"));
  ScenarioContext ctx;
  ctx.console = nullptr;
  try {
    r.runOne("unknown", ctx);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scenario 'unknown'"), std::string::npos);
    EXPECT_NE(what.find("known"), std::string::npos);  // lists the roster
  }
}

TEST(ScenarioRegistry, CheckParamsRejectsKeysNoNamedScenarioDeclares) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  EXPECT_NO_THROW(r.checkParams({"serve_capacity"}, paramsOf({"n_list=64", "epb=1"})));
  // The union of the named scenarios' declared params is accepted.
  EXPECT_NO_THROW(r.checkParams({"serve_capacity", "serve_poisson"},
                                paramsOf({"n_list=64", "events=100"})));
  try {
    r.checkParams({"serve_capacity"}, paramsOf({"backend=dense", "epb=1"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown parameter backend (not declared by serve_capacity)");
  }
  EXPECT_THROW(r.checkParams({"no_such_scenario"}, paramsOf({})), std::out_of_range);
}

// An undeclared key=value param exits 2 before the scenario runs: no
// event is served and the --out sink is never opened.
TEST(Harness, UndeclaredParamExitsBeforeTheRunWritesNothing) {
  const std::pair<std::string, std::string> cases[] = {
      {"serve_capacity", "backend=dense"}, {"serve_poisson", "partitioned=0"}};
  for (const auto& [name, knob] : cases) {
    const std::string outPath = ::testing::TempDir() + "undeclared_" + name + ".jsonl";
    std::remove(outPath.c_str());
    std::vector<std::string> args = {"bench_" + name, "--out=" + outPath, knob};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    EXPECT_EQ(runStandalone(static_cast<int>(argv.size()), argv.data(), name), 2) << knob;
    EXPECT_FALSE(std::ifstream(outPath).good()) << knob << ": the sink was opened";
  }
}

// An out-of-range value that parses exits 2 with the "parameter k=v: why"
// diagnostic before the scenario runs: no allocator or generator is
// built and the --out sink is never opened.
TEST(Harness, OutOfRangeValueExitsBeforeTheRunWritesNothing) {
  const std::pair<std::string, std::vector<std::string>> cases[] = {
      {"serve_capacity", {"n_list=0", "epb=1"}},
      {"serve_capacity", {"n_list=100", "load_list=-1", "epb=1"}},
      {"serve_capacity", {"n_list=100", "epoch=0", "epb=1"}},
      {"serve_capacity", {"traces=bogus", "n_list=100", "epb=1"}},
      {"serve_capacity", {"traces=hotspot(16,32,8)", "n_list=100", "epb=1"}},
      {"serve_capacity", {"n_list=1", "load_list=0.5", "epb=1"}},
      {"serve_capacity", {"n_list=100", "epb=1", "budget_mb=-1"}},
      {"serve_poisson", {"n=0"}},
      {"serve_poisson", {"trace=" + ::testing::TempDir() + "no_such_trace.jsonl"}},
      {"serve_adversarial", {"n=64", "hot_weight=0"}},
      {"serve_adversarial", {"n=64", "hot_weight=4611686018427387904"}},
      {"serve_poisson", {"n=4", "weight=4611686018427387904"}},
  };
  int index = 0;
  for (const auto& [name, params] : cases) {
    const std::string outPath =
        ::testing::TempDir() + "out_of_range_" + std::to_string(index++) + ".jsonl";
    std::remove(outPath.c_str());
    std::vector<std::string> args = {"bench_" + name, "--out=" + outPath};
    args.insert(args.end(), params.begin(), params.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    EXPECT_EQ(runStandalone(static_cast<int>(argv.size()), argv.data(), name), 2)
        << params.front();
    EXPECT_FALSE(std::ifstream(outPath).good()) << params.front() << ": the sink was opened";
  }
}

/// Writes `bytes` to a fresh file under the test temp dir; returns its path.
std::string writeTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

/// runStandalone(name, --out=<fresh path>, params...): the exit code, and
/// whether the --out file exists afterwards.
std::pair<int, bool> runWithOut(const std::string& name, const std::vector<std::string>& params,
                                const std::string& outName) {
  const std::string outPath = ::testing::TempDir() + outName;
  std::remove(outPath.c_str());
  std::vector<std::string> args = {"bench_" + name, "--out=" + outPath};
  args.insert(args.end(), params.begin(), params.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const int code = runStandalone(static_cast<int>(argv.size()), argv.data(), name);
  return {code, std::ifstream(outPath).good()};
}

// File-backed serve params are checked before the run too: an output file
// that cannot be created and a replay file that does not dry-parse exit 2
// with the parameter diagnostic, and the --out sink is never opened.
TEST(Harness, UnusableFileParamsExitBeforeTheRunWritesNothing) {
  const std::string missingDir = ::testing::TempDir() + "no_such_dir_for_rlslb/";
  std::string binaryTail = "RLT1";
  binaryTail += std::string(10, '\0');  // a truncated 25-byte record
  std::vector<std::vector<std::string>> cases = {
      {"n=64", "events=100", "record=" + missingDir + "rec.jsonl"},
      {"trace=" + writeTempFile("not_a_trace.jsonl", "hello\n")},
      {"trace=" + writeTempFile("wrong_types.jsonl",
                                "{\"t\":\"x\",\"kind\":\"arrive\",\"ball\":1,\"w\":1}\n")},
      {"trace=" + writeTempFile("no_header.csv", "0.5,arrive,1,1\n")},
      {"trace=" + writeTempFile("no_magic.bin", "RLT0")},
      {"trace=" + writeTempFile("truncated.bin", binaryTail)},
      {"trace=" + writeTempFile("empty.jsonl", "\n")},
  };
  // Well-formed events that break a stream rule: an allocator precondition
  // (unknown depart, live re-arrive, weight < 1) or a time or key the
  // replay would otherwise take silently.
  const std::string arrive = "{\"t\":0.5,\"kind\":\"arrive\",\"ball\":1,\"w\":1}\n";
  const std::vector<std::pair<std::string, std::string>> badStreams = {
      {"unknown_depart", arrive + "{\"t\":0.6,\"kind\":\"depart\",\"ball\":9,\"w\":0}\n"},
      {"live_arrive", arrive + arrive},
      {"negative_weight", "{\"t\":0.5,\"kind\":\"arrive\",\"ball\":1,\"w\":-3}\n"},
      {"negative_time", "{\"t\":-1,\"kind\":\"arrive\",\"ball\":1,\"w\":1}\n"},
      {"infinite_time", "{\"t\":1e400,\"kind\":\"arrive\",\"ball\":1,\"w\":1}\n"},
      {"backwards_time", arrive + "{\"t\":0.4,\"kind\":\"arrive\",\"ball\":2,\"w\":1}\n"},
      {"unknown_key", "{\"t\":0.5,\"kind\":\"arrive\",\"ball\":1,\"w\":1,\"x\":2}\n"},
  };
  for (const auto& [name, bytes] : badStreams) {
    cases.push_back({"trace=" + writeTempFile(name + ".jsonl", bytes)});
  }
  if (obs::kTracingCompiledIn) {
    cases.push_back({"n=64", "events=100", "trace_out=" + missingDir + "t.json"});
  }
  int index = 0;
  for (const auto& params : cases) {
    const auto [code, wrote] =
        runWithOut("serve_poisson", params, "file_param_" + std::to_string(index++) + ".jsonl");
    EXPECT_EQ(code, 2) << params.back();
    EXPECT_FALSE(wrote) << params.back() << ": the sink was opened";
  }
}

// The writability probe leaves no file behind, and a writable record=
// still records.
TEST(Harness, WritableRecordPathPassesTheCheckAndRecords) {
  const std::string recordPath = ::testing::TempDir() + "recorded_trace.jsonl";
  std::remove(recordPath.c_str());
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  ScenarioContext ctx;
  ctx.params = paramsOf({"n=8", "events=50", "record=" + recordPath});
  EXPECT_NO_THROW(r.checkValues({"serve_poisson"}, ctx));
  EXPECT_FALSE(std::ifstream(recordPath).good()) << "the probe left a file behind";
  const auto [code, wrote] = runWithOut(
      "serve_poisson", {"n=8", "events=50", "record=" + recordPath}, "record_ok.jsonl");
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(wrote);
  std::ifstream recorded(recordPath);
  std::string line;
  std::int64_t lines = 0;
  while (std::getline(recorded, line)) ++lines;
  EXPECT_EQ(lines, 50);
}

TEST(ScenarioRegistry, CheckValuesRunsEachNamedScenariosCheck) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  ScenarioContext ctx;
  ctx.params = paramsOf({"n=0"});
  EXPECT_NO_THROW(r.checkValues({"serve_capacity"}, ctx));  // reads no `n`
  try {
    r.checkValues({"serve_capacity", "serve_poisson"}, ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "parameter n=0: must be in [1, 2147483647]");
  }
}

TEST(ScenarioRegistry, BuiltinRosterAtLeastElevenAndIdempotent) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  EXPECT_GE(r.size(), 11u);
  EXPECT_NE(r.find("e1_theorem1"), nullptr);
  const std::size_t before = r.size();
  registerBuiltinScenarios(r);  // second call must be a no-op
  EXPECT_EQ(r.size(), before);
  for (const Scenario* s : r.list()) {
    EXPECT_FALSE(s->description.empty()) << s->name;
    EXPECT_FALSE(s->paperRef.empty()) << s->name;
  }
}

// ------------------------------------------------------------- context

TEST(ScenarioContext, ScalingHelpers) {
  ScenarioContext ctx;
  ctx.scale = 0.5;
  EXPECT_EQ(ctx.repsOr(30), 15);
  ctx.reps = 4;
  EXPECT_EQ(ctx.repsOr(30), 4);
  EXPECT_EQ(ctx.sized(1024, 2), 512);
  EXPECT_EQ(ctx.sized(1, 2), 2);  // quantum floor
}

// --------------------------------------------------- determinism contract

/// JSONL minus the wall-clock record types ("manifest", "timing",
/// "throughput", "metrics", "scenario_end"): the part of the stream the
/// contract says is byte-identical.
std::string deterministicRecords(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    std::string error;
    const report::Json rec = report::Json::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error;
    const std::string& type = rec.at("type").asString();
    if (type == "manifest" || type == "timing" || type == "throughput" ||
        type == "metrics" || type == "scenario_end") {
      continue;
    }
    out += line;
    out.push_back('\n');
  }
  return out;
}

std::string runToJsonl(const ScenarioRegistry& r, const std::string& name, std::uint64_t seed,
                       int threads, const std::vector<std::string>& paramTokens) {
  std::ostringstream out;
  report::ResultSink sink(&out);
  ScenarioContext ctx;
  ctx.seed = seed;
  ctx.threads = threads;
  ctx.reps = 4;
  ctx.sink = &sink;
  ctx.console = nullptr;
  std::string error;
  EXPECT_TRUE(ScenarioParams::fromTokens(paramTokens, &ctx.params, &error)) << error;
  r.runOne(name, ctx);
  EXPECT_TRUE(ctx.params.unusedKeys().empty());
  return out.str();
}

TEST(ScenarioDeterminism, RealScenarioByteIdenticalAcrossRunsAndThreads) {
  ScenarioRegistry r;
  registerBuiltinScenarios(r);
  // Tiny e15 run: params shrink it to milliseconds and double as the
  // param-override test (n and horizon must be honored).
  const std::vector<std::string> params = {"n=32", "ratio=8", "horizon=3", "dt=0.5"};
  const std::string a = deterministicRecords(runToJsonl(r, "e15_trajectory", 99, 1, params));
  const std::string b = deterministicRecords(runToJsonl(r, "e15_trajectory", 99, 1, params));
  const std::string c = deterministicRecords(runToJsonl(r, "e15_trajectory", 99, 3, params));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed, same thread count";
  EXPECT_EQ(a, c) << "same seed, different thread count";

  // The overrides really took: the table title embeds n=32, and a
  // different seed changes the records.
  EXPECT_NE(a.find("n=32"), std::string::npos);
  const std::string d = deterministicRecords(runToJsonl(r, "e15_trajectory", 100, 1, params));
  EXPECT_NE(a, d) << "different seed must change the sampled tables";
}

TEST(ScenarioDeterminism, SinkRecordsTaggedWithScenarioName) {
  ScenarioRegistry r;
  r.add({"tagcheck", "d", "p", [](ScenarioContext& ctx) {
           Table t({"v"});
           t.row().cell(core::balancingTime(config::allInOne(16, 64), {.seed = ctx.seed}));
           ctx.emitTable(t, "tbl");
         }});
  const std::string jsonl = runToJsonl(r, "tagcheck", 1, 1, {});
  std::istringstream in(jsonl);
  std::string line;
  bool sawStart = false;
  bool sawTable = false;
  bool sawEnd = false;
  while (std::getline(in, line)) {
    const report::Json rec = report::Json::parse(line);
    const std::string& type = rec.at("type").asString();
    if (type == "scenario_start") sawStart = true;
    if (type == "table") {
      sawTable = true;
      EXPECT_EQ(rec.at("scenario").asString(), "tagcheck");
    }
    if (type == "scenario_end") {
      sawEnd = true;
      EXPECT_GE(rec.at("wall_s").asDouble(), 0.0);
    }
  }
  EXPECT_TRUE(sawStart && sawTable && sawEnd);
}

}  // namespace
}  // namespace rlslb::scenario
