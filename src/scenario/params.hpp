// Scenario parameter overrides: the `key=value` spec layer.
//
// The `rlslb` driver and the standalone harness mains accept bare
// `key=value` tokens after the scenario names (`rlslb run e15_trajectory
// n=1e6 horizon=12`). This mirrors util/cli's `--key=value` contract —
// typed getters, loud failure on malformed values, and an unused-key sweep
// so a typo'd override aborts the run instead of silently measuring the
// default — but lives one layer up: params are per-scenario data routed
// through ScenarioContext, not process-wide flags.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace rlslb::scenario {

class ScenarioParams {
 public:
  ScenarioParams() = default;

  /// Parse `key=value` tokens. On a malformed token (no '=', empty key)
  /// returns false and stores a message in `error`.
  static bool fromTokens(const std::vector<std::string>& tokens, ScenarioParams* out,
                         std::string* error);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string getString(const std::string& name, const std::string& dflt) const;
  /// Integers accept scientific shorthand: "1e6" -> 1000000. Aborts on
  /// non-integral or out-of-range values.
  [[nodiscard]] std::int64_t getInt(const std::string& name, std::int64_t dflt) const;
  [[nodiscard]] double getDouble(const std::string& name, double dflt) const;
  [[nodiscard]] bool getBool(const std::string& name, bool dflt) const;

  /// Keys never queried by any getter. The driver aborts when a key was
  /// consumed by none of the scenarios it ran.
  [[nodiscard]] std::vector<std::string> unusedKeys() const;

  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// Every key given, in key order (used or not).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// {"n":"1e6","gap":"2"} — raw strings, insertion into the scenario_start
  /// record, ordered by key for determinism.
  [[nodiscard]] report::Json toJson() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace rlslb::scenario
