#!/usr/bin/env bash
# Runs every workload of the perf ledger once and prints one table: a row
# per metric, a column per workload. The command line, the workload names
# and the metric names come from BENCHMARK.json, which (like perfledger/)
# this script only reads. With --trace each workload runs a second time
# with `--trace 1` and the per-layer metrics follow the end-to-end ones.
# One run per cell is a reading, not a comparison: see
# perfledger/BENCHMARK.md for how two commits are compared.
# Usage: scripts/ledger.sh [seconds] [--trace]
#   seconds defaults to BENCHMARK.json's run_seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=""
trace=0
for arg in "$@"; do
  case "$arg" in
    --trace) trace=1 ;;
    '' | *[!0-9]*)
      echo "usage: scripts/ledger.sh [seconds] [--trace]" >&2
      exit 2
      ;;
    *) seconds=$arg ;;
  esac
done

exec python3 - "$seconds" "$trace" <<'PY'
import json
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
seconds = sys.argv[1] or str(spec["run_seconds"])
traced = sys.argv[2] == "1"
workloads = [w["name"] for w in spec["workloads"]]
rows = [m["name"] for m in spec["end_to_end"]]
if traced:
    rows += [m["name"] for m in spec["per_layer"]]
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", seconds, "--trace", str(trace)]
    print(f"    {workload} --trace {trace} ...", file=sys.stderr, flush=True)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"error: {workload} --trace {trace} printed nothing (exit {done.returncode})")
    return json.loads(lines[-1])


def shown(value):
    if value is None:
        return "-"
    if abs(value) >= 100 or value == 0:
        return f"{value:,.0f}"
    return f"{value:.2f}" if abs(value) >= 1 else f"{value:.4f}"


cells = {}
failed = {}
for w in workloads:
    results = [run(w, 0)] + ([run(w, 1)] if traced else [])
    failed[w] = sum(r["failed"] for r in results)
    for r in results:
        for name, metric in r["metrics"].items():
            cells[(name, w)] = metric["value"]

table = [["metric", "unit"] + workloads]
table += [[name, units[name]] + [shown(cells.get((name, w))) for w in workloads] for name in rows]
table.append(["failed", "count"] + [str(failed[w]) for w in workloads])
widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
for row in table:
    left = [cell.ljust(width) for cell, width in zip(row[:2], widths)]
    right = [cell.rjust(width) for cell, width in zip(row[2:], widths[2:])]
    print("  ".join(left + right))
sys.exit(1 if any(failed.values()) else 0)
PY
