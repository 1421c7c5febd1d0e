#!/usr/bin/env bash
# No-direct-std::sto* lint for the program sources.
#
# std::stoll / std::stod / ... accept a numeric *prefix*: "1e6" parses as 1
# and "2x" as 2, so a param routed through them silently runs the wrong
# configuration. Every numeric input goes through util::parseInt64 /
# util::parseDouble (src/util/parse.hpp) instead, which take the 1e6
# shorthand exactly and reject trailing junk with a diagnostic. This script
# fails on any direct std::sto*( call under src/ and examples/. CI runs it
# in the header-hygiene job; run it locally with
#
#     scripts/check_strict_parsing.sh
set -u
cd "$(dirname "$0")/.."

if hits="$(grep -rnE 'std::sto[a-z]*\(' src examples)"; then
  echo "$hits"
  echo "FAIL: direct std::sto* calls above; parse with util::parseInt64/parseDouble"
  exit 1
fi
echo "OK: no direct std::sto* calls under src/ and examples/"
