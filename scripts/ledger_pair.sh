#!/usr/bin/env bash
# Compares the working tree against a parent commit on the perf ledger, the
# way perfledger/BENCHMARK.md asks for it: both sides built from the same
# perfledger/ (the working tree's), run in alternating order — the parent
# first in odd pairs, the change first in even ones — on a fresh seed per
# pair, nothing else running. Prints, per workload and end-to-end metric,
# each side's median [Q1, Q3], the ratio of the medians and how many pairs
# the change won: the table EXPERIMENTS.md records.
#
# The parent's files are unpacked (`git archive`) under target/ledger_pair/
# and removed again on exit; the two build directories beside them are kept,
# so a second comparison only rebuilds what changed (against another parent
# commit, the parent side whole). The command line, the
# workload names and the metric names come from BENCHMARK.json, which (like
# perfledger/) this script only reads.
#
# With --layers, the procedure's next step follows the end-to-end table:
# "show where the saving sits". Each side runs every chosen workload once
# more with `--trace 1` (same seed, same length) and a second table puts
# the named per-layer metrics of parent and change side by side, together
# with each traced run's `host.speed`. One run per cell: a reading that
# says which layer moved, not a comparison of its own.
# Usage: scripts/ledger_pair.sh <parent-ref> [pairs=10] [seconds] [workload...]
#                               [--layers <metric,...>]
#   seconds: BENCHMARK.json's run_seconds unless given. workload...: names
#   from BENCHMARK.json to run instead of all of them — ten pairs of all six
#   take half an hour, ten pairs of one take five minutes. --layers: names
#   from BENCHMARK.json's per_layer list, comma-separated.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ledger_pair.sh <parent-ref> [pairs=10] [seconds] [workload...]" \
    "[--layers <metric,...>]" >&2
  exit 2
}
layers=""
positional=()
while [ $# -gt 0 ]; do
  case "$1" in
    --layers)
      [ $# -ge 2 ] || usage
      layers=$2
      shift 2
      ;;
    --*) usage ;;
    *)
      positional+=("$1")
      shift
      ;;
  esac
done
set -- "${positional[@]}"
[ $# -ge 1 ] || usage
ref=$1
pairs=${2:-10}
seconds=${3:-}
if [ $# -gt 3 ]; then shift 3; else set --; fi # what is left names workloads
case "$pairs$seconds" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
commit=$(git rev-parse --verify --quiet "$ref^{commit}") || {
  echo "error: $ref is not a commit" >&2
  exit 2
}

root=$PWD/target/ledger_pair
parent=$root/parent
mkdir -p "$root"
cleanup() { rm -rf "$parent"; }
trap cleanup EXIT
cleanup
mkdir "$parent"
git archive "$commit" | tar -C "$parent" -xf -
# The archive's files carry the commit's time, and cargo rebuilds only what
# is newer than its last build: a parent older than the one build-parent
# holds would run the stale binary. A new parent's files are made new.
if [ "$(cat "$root/build-parent.commit" 2>/dev/null)" != "$commit" ]; then
  find "$parent" -type f -exec touch {} +
  echo "$commit" >"$root/build-parent.commit"
fi
# The benchmark is the same program on both sides; only the engine differs.
rm -rf "$parent/perfledger"
mkdir "$parent/perfledger"
tar -C perfledger --exclude=./target -cf - . | tar -C "$parent/perfledger" -xf -

python3 - "$parent" "$root" "$pairs" "$seconds" "$commit" "$layers" "$@" <<'PY'
import json
import os
import statistics
import subprocess
import sys
import time

parent_dir, root, pairs, seconds, commit, layers, *chosen = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
pairs = int(pairs)
seconds = seconds or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
unknown = [w for w in chosen if w not in workloads]
if unknown:
    print(f"error: no workload {', '.join(unknown)} in BENCHMARK.json "
          f"(it has {', '.join(workloads)})", file=sys.stderr)
    sys.exit(2)
workloads = [w for w in workloads if w in chosen] if chosen else workloads
per_layer = {m["name"]: m for m in spec["per_layer"]}
layers = [name for name in layers.split(",") if name]
unknown = [name for name in layers if name not in per_layer]
if unknown:
    print(f"error: no per-layer metric {', '.join(unknown)} in BENCHMARK.json",
          file=sys.stderr)
    sys.exit(2)
CALIBRATION = {"name": "(host_speed)", "unit": "ratio", "better": "higher"}
metrics = spec["end_to_end"] + [CALIBRATION]
sides = {"parent": parent_dir, "change": os.getcwd()}


def run(side, workload, seed, secs, trace=0):
    record = os.path.join(root, f"record-{side}.json")
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", secs, "--trace", str(trace), "--out", record]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, "build-" + side))
    done = subprocess.run(cmd, cwd=sides[side], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"error: {side} {workload} printed nothing (exit {done.returncode}):\n"
                 + done.stderr[-2000:])
    result = json.loads(lines[-1])
    # Not an engine metric: what the benchmark measured its own calibration
    # loop at, which every end-to-end value above is scaled by. The loop is
    # compiled with the rest of each side's binary, so it can come out
    # faster on one side; a row that differs here moves all three metrics
    # of its workload by that much without the engine having changed.
    # (A traced run reports it itself, as the per-layer metric `host.speed`.)
    if not trace:
        speed = json.load(open(record))["host_speed"]
        result["metrics"][CALIBRATION["name"]] = {"value": speed}
    return result


for side in sides:
    print(f"==> building {side}", file=sys.stderr, flush=True)
    run(side, workloads[0], 1, "1")

# Seeds nobody tuned against: they start at the clock and are printed.
first_seed = int(time.time())
print(f"parent {commit[:12]}, {pairs} pairs x {seconds} s, seeds {first_seed}.."
      f"{first_seed + pairs - 1}", flush=True)
values = {}  # (workload, metric, side) -> one value per pair
failed = {side: 0 for side in sides}
for pair in range(pairs):
    order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    for w in workloads:
        for side in order:
            print(f"    pair {pair + 1}/{pairs} {w} {side}", file=sys.stderr, flush=True)
            result = run(side, w, first_seed + pair, seconds)
            failed[side] += result["failed"]
            for m in metrics:
                value = result["metrics"][m["name"]]["value"]
                values.setdefault((w, m["name"], side), []).append(value)


def spread(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return median, q1, q3


def shown(x):
    if abs(x) >= 100 or x == 0:
        return f"{x:,.0f}"
    return f"{x:.2f}" if abs(x) >= 1 else f"{x:.4f}"


def print_table(table):
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


table = [["workload", "metric", "unit", "parent median [Q1, Q3]", "change median [Q1, Q3]",
          "change/parent", "wins"]]
for w in workloads:
    for m in metrics:
        old, new = values[(w, m["name"], "parent")], values[(w, m["name"], "change")]
        better = (lambda a, b: a > b) if m["better"] == "higher" else (lambda a, b: a < b)
        wins = sum(better(n, o) for n, o in zip(new, old))
        cells = []
        for xs in (old, new):
            median, q1, q3 = spread(xs)
            cells.append(f"{shown(median)} [{shown(q1)}, {shown(q3)}]")
        ratio = spread(new)[0] / spread(old)[0] if spread(old)[0] else float("nan")
        table.append([w, m["name"], m["unit"], *cells, f"{ratio:.3f}", f"{wins}/{pairs}"])
print_table(table)

if layers:
    # Where the saving sits: one traced run per side and workload.
    rows = [per_layer[name] for name in layers]
    if "host.speed" not in layers:
        rows.append(per_layer["host.speed"])
    table = [["workload", "per-layer metric", "unit", "parent", "change", "change/parent"]]
    for w in workloads:
        traced = {}
        for side in sides:
            print(f"    traced {w} {side}", file=sys.stderr, flush=True)
            traced[side] = run(side, w, first_seed, seconds, trace=1)
            failed[side] += traced[side]["failed"]
        for m in rows:
            old, new = (traced[side]["metrics"].get(m["name"], {}).get("value")
                        for side in ("parent", "change"))
            if old is None or new is None:
                table.append([w, m["name"], m["unit"], "-", "-", "-"])
                continue
            ratio = f"{new / old:.3f}" if old else "-"
            table.append([w, m["name"], m["unit"], shown(old), shown(new), ratio])
    print(f"per layer (--trace 1, one run per side, seed {first_seed}):")
    print_table(table)
print(f"failed: parent {failed['parent']}, change {failed['change']}")
sys.exit(1 if any(failed.values()) else 0)
PY
