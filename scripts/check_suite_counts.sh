#!/bin/sh
# check_suite_counts.sh [ODEX_BENCH_EXE]
#
# Exact gate on the benchmark suite's counted metrics. Runs the suite's
# own selftest, then one quick seed-1 run of each workload whose counts
# are a function of its shape alone, and requires the run to be correct
# with no failed op and ios_per_op / bytes_per_op / space_amp exactly
# equal to the pinned values below. Counted I/Os are deterministic, so a
# physical-only change (codec, transfer path, allocation) must leave
# them untouched; a change that moves them must update this table on
# purpose.
#
# select-mem is left out: its count follows the input (ROADMAP item 1).
#
# Then a seed sweep: one quick run of every workload, select-mem
# included, on each of seeds 1..20, each of which must be correct with
# no failed op. A single-seed run cannot see a fault that only some
# inputs trigger (an ORAM rebuild that loses a word on one draw); twenty
# draws per workload can.
#
# Without an argument the executable is built with dune from this
# checkout. File-backed stores go to a fresh temporary directory.
set -eu

exe=${1:-}
if [ -z "$exe" ]; then
  dune build ./bench/suite/odex_bench.exe
  exe=_build/default/bench/suite/odex_bench.exe
fi
[ -x "$exe" ] || { echo "check_suite_counts: $exe is not executable" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
TMPDIR=$tmp
export TMPDIR

"$exe" selftest

# check W SEED [IOS BYTES AMP]: one quick run must be correct with no
# failed op, and, when pins are given, its counts must equal them.
check() {
  "$exe" run --workload "$1" --seed "$2" --quick > "$tmp/out" || {
    status=$?
    echo "check_suite_counts: $1 seed $2: exit $status" >&2
    tail -n 1 "$tmp/out" >&2
    exit 1
  }
  tail -n 1 "$tmp/out" | python3 -c '
import json, sys
w, seed, pins = sys.argv[1], sys.argv[2], [float(x) for x in sys.argv[3:]]
r = json.loads(sys.stdin.read())
m = r["metrics"]
got = {k: m[k]["value"] for k in ("ios_per_op", "bytes_per_op", "space_amp")}
want = dict(zip(("ios_per_op", "bytes_per_op", "space_amp"), pins))
bad = []
if r.get("correct") is not True:
    bad.append("correct is %r" % r.get("correct"))
if r.get("failed") != 0:
    bad.append("failed is %r" % r.get("failed"))
for k in want:
    if got[k] != want[k]:
        bad.append("%s %r, pinned %r" % (k, got[k], want[k]))
if bad:
    print("check_suite_counts: %s seed %s: %s" % (w, seed, "; ".join(bad)), file=sys.stderr)
    sys.exit(1)
if want:
    print("check_suite_counts: %s: correct, 0 failed, ios %r bytes %r space_amp %r (exact)"
          % (w, got["ios_per_op"], got["bytes_per_op"], got["space_amp"]))
' "$@"
}

# workload ios_per_op bytes_per_op space_amp
pins='sort-mem 121720 39924160 21.78125
sort-sealed-stripe 24178 7930384 20.5
oram-mixed 329.828125 55411.125 140.765625'

echo "$pins" | while read -r w ios bytes amp; do
  check "$w" 1 "$ios" "$bytes" "$amp"
done

for w in sort-mem sort-sealed-stripe select-mem oram-mixed; do
  for seed in $(seq 1 20); do
    check "$w" "$seed"
  done
done
echo "check_suite_counts: seeds 1..20 of all four workloads correct with 0 failed"
