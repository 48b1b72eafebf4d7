#!/usr/bin/env bash
# Prints the non-test code-line count that simplification PRs and ROADMAP
# re-anchors quote: non-blank lines that do not start with `//`, up to the
# first `#[cfg(test)]`, per file and in total. No gate — just one way to
# count.
# Usage: scripts/loc.sh [FILE...]
#   (default: every crates/*/src/**/*.rs, the total ROADMAP quotes)
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
  shopt -s globstar
  set -- crates/*/src/**/*.rs
fi
for f in "$@"; do
  awk '/^#\[cfg\(test\)\]/ { exit }
       !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
       END { print n + 0, FILENAME }' "$f"
done | awk '{ total += $1; print } END { print total, "total" }'
