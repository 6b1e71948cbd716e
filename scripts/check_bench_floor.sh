#!/bin/sh
# check_bench_floor.sh BENCH_core.json bench/mb_per_s.floor [mode]
#
# Guards the batching win: fails if the E2 file-backend throughput
# (mb_per_s of the consolidation record at n_cells = 16384, every item
# distinguished) regresses more than 30% below the checked-in floor. The
# floor file holds one number, refreshed by hand from a local
# `--json E2 --backend file` run when the I/O path legitimately changes.
#
# mode `e15` (third argument) checks a sorter-matrix leg instead: the
# file must carry journal-off E15 sorting-engine records, every one of
# them verified sorted (`"ok":true`). When the default (e2) mode finds
# E15 records alongside the E2 ones, the same sorter guard runs too.
# Their counted I/Os are gated exactly by scripts/check_records_pin.sh.
set -eu

json=${1:-BENCH_core.json}
floor_file=${2:-bench/mb_per_s.floor}
mode=${3:-e2}

[ -s "$json" ] || { echo "check_bench_floor: $json missing or empty" >&2; exit 1; }

# E15 sorter records: every engine leg must have verified its output
# sorted. Bucket legs must include journal-off records — the floor
# semantics stay scoped to the bare store, like `"backend":"file"` for
# E2 — and an overflow (ok:false) fails the leg.
check_e15() {
  bad=$(grep '"experiment":"E15"' "$json" | grep -c '"ok":false' || true)
  if [ "$bad" -gt 0 ]; then
    echo "check_bench_floor: $bad E15 sorter record(s) with ok:false (unsorted output or bucket overflow)" >&2
    exit 1
  fi
  if grep '"experiment":"E15"' "$json" | grep '"sorter":"bucket"' | grep -q '"journal":false'; then
    n=$(grep -c '"experiment":"E15"' "$json" || true)
    echo "E15 sorter records: $n, all ok, journal-off bucket leg present"
  fi
}

if [ "$mode" = "e15" ]; then
  grep -q '"experiment":"E15"' "$json" \
    || { echo "check_bench_floor: no E15 sorter records in $json" >&2; exit 1; }
  if grep '"experiment":"E15"' "$json" | grep -q '"sorter":"bucket"'; then
    grep '"experiment":"E15"' "$json" | grep '"sorter":"bucket"' | grep -q '"journal":false' \
      || { echo "check_bench_floor: no journal-off bucket-sort E15 record in $json" >&2; exit 1; }
  fi
  check_e15
  exit 0
fi

[ -s "$floor_file" ] || { echo "check_bench_floor: $floor_file missing or empty" >&2; exit 1; }

floor=$(tr -d ' \n' < "$floor_file")

# Pull mb_per_s from the E2 consolidation record at 16384 cells on the
# file backend. The bench writes one record per line, so line-oriented
# tools are enough — no JSON parser dependency.
measured=$(grep '"experiment":"E2","name":"consolidation",' "$json" \
  | grep '"backend":"file"' \
  | grep '"n_cells":16384,' \
  | sed 's/.*"mb_per_s":\([0-9.]*\).*/\1/' \
  | head -1)

[ -n "$measured" ] || { echo "check_bench_floor: no E2 file consolidation record at 16384 cells in $json" >&2; exit 1; }

awk -v m="$measured" -v f="$floor" 'BEGIN {
  min = 0.7 * f;
  printf "E2 file throughput: %.1f MB/s (floor %.1f, minimum %.1f)\n", m, f, min;
  exit (m >= min) ? 0 : 1;
}' || { echo "check_bench_floor: throughput regressed more than 30% below the floor" >&2; exit 1; }

if grep -q '"experiment":"E15"' "$json"; then check_e15; fi
