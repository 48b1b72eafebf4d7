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

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

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
# Boots the served Fig. 9/10 chain with the embedded admin endpoint and
# scrapes it over raw /dev/tcp (no curl dependency): non-200 or an empty
# body fails the gate. JSON endpoints are additionally validated with the
# repo's own strict parser (target/release/jsonv wraps hmts-obs::json).
smoke_log=$(mktemp)
target/release/serve --ingest 127.0.0.1:0 --egress 127.0.0.1:0 \
  --admin 127.0.0.1:0 >"$smoke_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$smoke_log"' EXIT
admin_addr=""
for _ in $(seq 1 50); do
  admin_addr=$(sed -n 's#^serve: admin endpoint on http://\([^/]*\)/.*#\1#p' "$smoke_log")
  [ -n "$admin_addr" ] && break
  sleep 0.1
done
if [ -z "$admin_addr" ]; then
  echo "error: serve never announced its admin endpoint:"
  cat "$smoke_log"
  exit 1
fi
host=${admin_addr%:*}
port=${admin_addr##*:}
http_get() { # $1 = request target; prints the full HTTP response
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}
for target in /metrics /healthz /analyze /snapshot '/trace?last=8'; do
  resp=$(http_get "$target")
  status=$(printf '%s' "$resp" | head -n1 | awk '{print $2}')
  body=$(printf '%s' "$resp" | sed -e '1,/^\r\{0,1\}$/d')
  bytes=$(printf '%s' "$body" | wc -c)
  if [ "$status" != 200 ] || [ "$bytes" -eq 0 ]; then
    echo "error: GET $target -> status ${status:-none}, $bytes body bytes"
    printf '%s\n' "$resp"
    exit 1
  fi
  case "$target" in
    /metrics)
      echo "    GET $target -> 200 ($bytes bytes)"
      ;;
    *)
      if ! shape=$(printf '%s' "$body" | target/release/jsonv); then
        echo "error: GET $target body is not valid JSON"
        printf '%s\n' "$body"
        exit 1
      fi
      echo "    GET $target -> 200 ($bytes bytes, $shape)"
      ;;
  esac
  # serve publishes nothing itself: the status block is the engine's own
  # plan view, so an empty plan means the engine stopped publishing it.
  if [ "$target" = /snapshot ] && ! printf '%s' "$body" | grep -q '"status":{"plan":"[^"]'; then
    echo "error: GET /snapshot has no status.plan (the engine's plan view is missing)"
    printf '%s\n' "$body"
    exit 1
  fi
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$smoke_log"

echo "==> sharded recovery smoke (kill + recover with sel_expensive split 2-way)"
scripts/recovery.sh --shard

echo "==> all checks passed"
