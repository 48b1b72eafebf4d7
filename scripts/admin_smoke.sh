#!/usr/bin/env bash
# Admin-plane smoke test: /metrics /healthz /analyze /snapshot /trace
# against a live serve, then the plan view across a GTS -> HMTS switch.
#
# Boots the served Fig. 9/10 chain with the embedded admin endpoint and
# scrapes it over raw /dev/tcp (no curl dependency): non-200 or an empty
# body fails the gate. JSON endpoints are additionally validated with the
# repo's own strict parser (target/release/jsonv wraps hmts-obs::json).
# serve starts under GTS and switches to two-VO HMTS after 1.5 s; the switch
# waits for the source to take a tuple, so netgen feeds it meanwhile.
#
# Usage: scripts/admin_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build serve + netgen + jsonv"
cargo build --release -p hmts-net --bins

smoke_log=$(mktemp)
target/release/serve --ingest 127.0.0.1:0 --egress 127.0.0.1:0 \
  --admin 127.0.0.1:0 --switch-after-ms 1500 >"$smoke_log" 2>&1 &
serve_pid=$!
netgen_pid=""
trap 'kill "$serve_pid" $netgen_pid 2>/dev/null || true; rm -f "$smoke_log"' EXIT
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
ingest_addr=$(sed -n 's#^serve: ingest on \([^ ]*\) .*#\1#p' "$smoke_log")
target/release/netgen --addr "$ingest_addr" --rate constant:2000 --count 100000 \
  >/dev/null 2>&1 &
netgen_pid=$!
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
# /snapshot lists the running wiring's queues. Only the GTS wiring queues
# proj->sel_cheap (two-VO HMTS runs both in one VO), so it is listed before
# the switch and gone after it, though the registry keeps its metrics.
lists_queue() { # succeeds while /snapshot lists proj->sel_cheap
  case "$(http_get /snapshot)" in *'"proj->sel_cheap"'*) return 0 ;; *) return 1 ;; esac
}
listed=""
for _ in $(seq 1 200); do
  grep -q '^serve: switching' "$smoke_log" && break
  if lists_queue; then listed=1; fi
  sleep 0.05
done
gone=""
for _ in $(seq 1 100); do
  if ! lists_queue; then gone=1 && break; fi
  sleep 0.05
done
if [ -z "$listed" ] || [ -z "$gone" ]; then
  echo "error: /snapshot must list proj->sel_cheap under GTS only (listed: ${listed:-no}, gone after the switch: ${gone:-no})"
  cat "$smoke_log"
  exit 1
fi
echo "    GET /snapshot lists proj->sel_cheap under GTS and not after the switch"
kill "$serve_pid" "$netgen_pid" 2>/dev/null || true
wait "$serve_pid" "$netgen_pid" 2>/dev/null || true
trap - EXIT
rm -f "$smoke_log"
