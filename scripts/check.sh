#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints as errors, full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> panic-hygiene grep gate (no .join().unwrap()/.expect() in crates/*/src)"
# Worker threads must be harvested through the supervision layer, never
# joined with a bare unwrap/expect that would re-raise the panic payload
# unhandled. Test modules (everything after a #[cfg(test)] marker) are
# exempt.
# Every source file at any depth under crates/*/src (a `**` glob without
# `globstar` would only reach one directory down).
src_files=$(find crates/*/src -name '*.rs' | sort)

violations=$(
  for f in $src_files; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         /\.join\(\)[[:space:]]*\.(unwrap|expect)\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
  done
)
if [ -n "$violations" ]; then
  echo "error: unhandled thread joins found (route them through the supervisor):"
  echo "$violations"
  exit 1
fi

echo "==> replica-name grep gate (no \"base[i]\" construction outside crates/shard)"
# Shard replica node IDs ("agg[0]", "agg[1].split", ...) are a protocol:
# checkpoint blobs are keyed by them and the obs plane parses them back
# into logical groups. The ONLY constructor is hmts-shard's names
# module; everything else must parse via obs::capacity::parse_replica.
# The gate rejects the construction idiom `format!("...{x}[{i}]...")`.
violations=$(
  for f in $src_files; do
    case "$f" in crates/shard/src/*) continue ;; esac
    grep -Hn '}\[{' "$f" || true
  done
)
if [ -n "$violations" ]; then
  echo "error: replica node IDs constructed outside crates/shard (use hmts_shard::names):"
  echo "$violations"
  exit 1
fi

echo "==> blocking-accept grep gate (no set_nonblocking(true) in crates/*/src)"
# A listener is accepted on with a blocking `accept` (hmts-net's acceptor,
# the admin plane's loop), so a connection is served the moment it
# arrives. A non-blocking listener means an accept poll and its sleep,
# which every fresh connection would wait out.
violations=$(
  for f in $src_files; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         /set_nonblocking\(true\)/ { print FILENAME ":" FNR ": " $0 }' "$f"
  done
)
if [ -n "$violations" ]; then
  echo "error: non-blocking socket found (accept with a blocking accept instead):"
  echo "$violations"
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc with warnings as errors (every crates/* package)"
# A doc link to a deleted or private item is otherwise only a printed
# warning. The packages are named, not --workspace: the vendored crates'
# docs are not this repository's to fix.
packages=$(for manifest in crates/*/Cargo.toml; do
  printf ' -p %s' "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n1)"
done)
# shellcheck disable=SC2086 # one word per flag and package
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q $packages

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --no-fail-fast"
# Every target runs even when one fails: a red target must not hide the rest.
cargo test -q --no-fail-fast

echo "==> perf ledger builds and passes against the core's frozen surface"
# perfledger/ is a workspace of its own that BENCHMARK.json builds from the
# checkout; it may not be edited alongside the code it measures. Building
# and testing it here turns a core API or dependency change that would
# break the ledger into a gate failure instead of a failed benchmark run,
# and the lockfile diff catches a moved dependency graph.
cargo build --release --offline --manifest-path perfledger/Cargo.toml
cargo test --offline --manifest-path perfledger/Cargo.toml
git diff --exit-code -- perfledger/Cargo.lock

echo "==> admin-plane smoke (/metrics /healthz /analyze /snapshot /trace against a live serve)"
scripts/admin_smoke.sh

echo "==> sharded recovery smoke (kill + recover with sel_expensive split 2-way)"
scripts/recovery.sh --shard

echo "==> all checks passed"
