#!/usr/bin/env bash
# Prints the non-test code-line count that simplification PRs and ROADMAP
# re-anchors quote: non-blank lines that do not start with `//`, up to the
# first `#[cfg(test)]`, per file and in total. No gate — just one way to
# count.
# Usage: scripts/loc.sh [FILE...]
#   (default: crates/obs/src/*.rs, the engine's observe.rs, serve.rs)
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
  set -- crates/obs/src/*.rs crates/core/src/engine/observe.rs crates/net/src/bin/serve.rs
fi
for f in "$@"; do
  awk '/^#\[cfg\(test\)\]/ { exit }
       !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
       END { print n + 0, FILENAME }' "$f"
done | awk '{ total += $1; print } END { print total, "total" }'
