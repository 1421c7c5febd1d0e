#include "scenario/params.hpp"

#include "util/parse.hpp"

namespace rlslb::scenario {

bool ScenarioParams::fromTokens(const std::vector<std::string>& tokens, ScenarioParams* out,
                                std::string* error) {
  ScenarioParams p;
  for (const std::string& tok : tokens) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) *error = "malformed parameter '" + tok + "' (expected key=value)";
      return false;
    }
    p.values_[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  *out = std::move(p);
  return true;
}

bool ScenarioParams::has(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  used_[name] = true;
  return true;
}

std::string ScenarioParams::getString(const std::string& name, const std::string& dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  used_[name] = true;
  return it->second;
}

std::int64_t ScenarioParams::getInt(const std::string& name, std::int64_t dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  used_[name] = true;
  return util::parseInt64(it->second, name);
}

double ScenarioParams::getDouble(const std::string& name, double dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  used_[name] = true;
  return util::parseDouble(it->second, name);
}

bool ScenarioParams::getBool(const std::string& name, bool dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  used_[name] = true;
  return util::parseBool(it->second, name);
}

std::int64_t ScenarioParams::getIntIn(const std::string& name, std::int64_t dflt,
                                      std::int64_t lo, std::int64_t hi) const {
  const std::int64_t v = getInt(name, dflt);
  if (v < lo || v > hi) {
    std::string why = "must be ";
    if (hi == INT64_MAX) {
      why.append(">= ").append(std::to_string(lo));
    } else {
      why.append("in [").append(std::to_string(lo)).append(", ")
          .append(std::to_string(hi)).append("]");
    }
    util::rejectParam(name, getString(name, std::to_string(dflt)), why);
  }
  return v;
}

double ScenarioParams::getDoubleIn(const std::string& name, double dflt, double lo,
                                   double hi) const {
  const double v = getDouble(name, dflt);
  if (!(v >= lo && v <= hi)) {
    std::string why = "must be a finite number ";
    if (hi == DBL_MAX) {
      why.append(">= ").append(report::formatJsonNumber(lo));
    } else {
      why.append("in [").append(report::formatJsonNumber(lo)).append(", ")
          .append(report::formatJsonNumber(hi)).append("]");
    }
    util::rejectParam(name, getString(name, report::formatJsonNumber(dflt)), why);
  }
  return v;
}

std::vector<std::string> ScenarioParams::unusedKeys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    auto it = used_.find(k);
    if (it == used_.end() || !it->second) out.push_back(k);
  }
  return out;
}

std::vector<std::string> ScenarioParams::keys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

report::Json ScenarioParams::toJson() const {
  report::Json j = report::Json::object();
  for (const auto& [k, v] : values_) j.set(k, v);
  return j;
}

}  // namespace rlslb::scenario
