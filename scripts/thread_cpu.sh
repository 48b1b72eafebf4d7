#!/usr/bin/env bash
# Where a thread's time goes on one long pass of a perf-ledger workload:
# runs the ledger's benchmark binary with `--scale <k> --seconds 1`, samples
# every thread's CPU time (/proc/<pid>/task/*/stat, `utime` and `stime`)
# about every 10 ms, keeping the last reading per thread, and kills the
# binary once stderr reports its second `pass` line — the warm-up, then the
# first saturation pass (the paced pass after it runs for long at a high
# scale). Prints `user` and `sys` milliseconds per thread, busiest first,
# and their total. The reading includes the warm-up pass; compare two
# binaries at the same workload and scale.
#
# With --whole the binary runs as the ledger runs it (`--seconds <s>`, no
# --scale) and is left to finish, so the CPU spent below saturation — the
# paced passes, an idle worker's watch — counts too. The per-thread rows
# are the last samples (a thread that ends between two samples loses up to
# 10 ms); a last `process` row is the whole process's `user` and `sys` as
# the kernel reports them when it is reaped (wait4), which is exact.
#
# Without --bin the benchmark is built from this checkout's perfledger/
# (which this script only reads) into target/ledger_pair/build-change, the
# directory scripts/ledger_pair.sh builds the change side in; the parent
# side's binary that script builds is
# target/ledger_pair/build-parent/release/benchmark.
# Usage: scripts/thread_cpu.sh [--bin <benchmark>] <workload> [scale=100]
#        scripts/thread_cpu.sh [--bin <benchmark>] --whole <workload> [seconds=5]
#   e.g. scripts/thread_cpu.sh served_loopback 100
#        scripts/thread_cpu.sh --whole keyed_agg 5
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/thread_cpu.sh [--bin <benchmark>] [--whole] <workload>" \
    "[scale=100 | seconds=5 with --whole]" >&2
  exit 2
}
bin=""
whole=0
while [ $# -gt 0 ]; do
  case "$1" in
    --bin)
      [ $# -ge 2 ] || usage
      bin=$2
      shift 2
      ;;
    --whole)
      whole=1
      shift
      ;;
    *) break ;;
  esac
done
[ $# -ge 1 ] && [ $# -le 2 ] || usage
workload=$1
if [ "$whole" = 1 ]; then amount=${2:-5}; else amount=${2:-100}; fi
case "$workload" in -*) usage ;; esac
case "$amount" in '' | *[!0-9.]*) usage ;; esac
if [ -z "$bin" ]; then
  CARGO_TARGET_DIR=$PWD/target/ledger_pair/build-change cargo build --release --offline \
    --quiet --manifest-path perfledger/Cargo.toml --bin benchmark
  bin=target/ledger_pair/build-change/release/benchmark
fi
[ -x "$bin" ] || {
  echo "error: $bin is not an executable" >&2
  exit 2
}

python3 - "$bin" "$workload" "$amount" "$(getconf CLK_TCK)" "$whole" <<'PY'
import os
import subprocess
import sys
import threading
import time

binary, workload, amount, ticks = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
whole = sys.argv[5] == "1"
run = ["--seconds", amount] if whole else ["--scale", amount, "--seconds", "1"]
proc = subprocess.Popen(
    [binary, "--workload", workload, "--trace", "0"] + run,
    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
passes = []
failed = []


def follow_stderr():
    for line in proc.stderr:
        if line.startswith("pass "):
            passes.append(line.rstrip())
        elif line.startswith("benchmark:"):
            failed.append(line.rstrip())


reader = threading.Thread(target=follow_stderr, daemon=True)
reader.start()

tasks = f"/proc/{proc.pid}/task"
last = {}  # tid -> (name, utime ticks, stime ticks)
reaped = None  # (exit status, resource usage) once --whole reaps the binary


def running():
    """Whether to sample on: the binary is alive and, without --whole, has
    not finished its first saturation pass. --whole reaps the binary here,
    with its resource usage."""
    global reaped
    if not whole:
        return len(passes) < 2 and proc.poll() is None
    pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
    if pid:
        reaped = (status, rusage)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return not pid


while running():
    try:
        tids = os.listdir(tasks)
    except FileNotFoundError:
        break
    for tid in tids:
        try:
            with open(f"{tasks}/{tid}/stat") as f:
                stat = f.read()
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread has ended; its last reading stays
        # The name is in parentheses and may hold spaces: split after it.
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        last[int(tid)] = (name, int(fields[11]), int(fields[12]))
    time.sleep(0.01)
if not whole:
    proc.kill()
    proc.wait()
reader.join(timeout=1)

if whole and (proc.returncode != 0 or failed):
    sys.exit(f"error: the benchmark exited with {proc.returncode}\n" + "\n".join(failed))
if len(passes) < 2:
    sys.exit(f"error: the benchmark ended after {len(passes)} pass line(s)\n"
             + "\n".join(failed))
for line in passes:
    print(line)
ms = 1000 / ticks
rows = []
for tid, (name, user, sys_) in last.items():
    shown = f"{name} (main)" if tid == proc.pid else name
    rows.append((shown, tid, user * ms, sys_ * ms))
rows.sort(key=lambda r: r[2] + r[3], reverse=True)
width = max([len("thread")] + [len(r[0]) for r in rows])
print(f"{'thread':<{width}}  {'tid':>8}  {'user_ms':>8}  {'sys_ms':>8}")
idle = 0
for name, tid, user, sys_ in rows:
    if whole and user + sys_ == 0:
        idle += 1  # --whole meets many short-lived threads; count, don't list
        continue
    print(f"{name:<{width}}  {tid:>8}  {user:>8.0f}  {sys_:>8.0f}")
if idle:
    print(f"({idle} threads under one tick not listed)")
print(f"{'total':<{width}}  {'':>8}  {sum(r[2] for r in rows):>8.0f}  "
      f"{sum(r[3] for r in rows):>8.0f}")
if reaped:
    rusage = reaped[1]
    print(f"{'process':<{width}}  {proc.pid:>8}  {rusage.ru_utime * 1000:>8.0f}  "
          f"{rusage.ru_stime * 1000:>8.0f}")
PY
