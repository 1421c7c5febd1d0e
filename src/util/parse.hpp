// Typed parsing of `key=value` parameter strings, shared by the scenario
// param layer (scenario/params.hpp) and the process param layer
// (process/params.hpp). Every parser fails loudly on malformed input -- a
// typo'd override must stop the run, never silently fall back to a
// default -- by throwing std::invalid_argument with the message
// "parameter <what>=<text>: <why>". The drivers catch it and exit 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rlslb::util {

/// Plain decimal ("123") or exact-integral scientific shorthand ("1e6",
/// "2.5e3"). Throws on non-integral or out-of-range values; `what` names
/// the offending parameter in the diagnostic.
std::int64_t parseInt64(const std::string& text, const std::string& what);

double parseDouble(const std::string& text, const std::string& what);

/// true/1/yes/on and false/0/no/off.
bool parseBool(const std::string& text, const std::string& what);

/// Throw the parsers' diagnostic, "parameter <what>=<text>: <why>", for a
/// value that parses but is out of range for its parameter.
[[noreturn]] void rejectParam(const std::string& what, const std::string& text,
                              const std::string& why);

/// Split a `sep`-separated list param ("a,b,c"). Throws on an empty list
/// and on any empty entry ("a,,b", a trailing separator), so a stray
/// separator never silently shortens the list.
std::vector<std::string> splitList(const std::string& text, char sep,
                                   const std::string& what);

}  // namespace rlslb::util
