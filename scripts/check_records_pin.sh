#!/bin/sh
# check_records_pin.sh [BENCH_core.json] [bench/records.pin] [PREFIX]
#
# Exact counted-I/O gate over every bench record. bench/records.pin maps
# each record's identity "experiment name n_cells b m" to its counted
# "reads writes total_ios". Counted I/Os are deterministic and the same
# on every backend kind (retries are tallied apart), so any drift is a
# schedule change and fails the gate. Gate unsharded runs: on a K-stripe
# the two-server compaction (E11 pair, E18) splits its schedule by K.
#   - every record in the JSON must have a pinned row and match it;
#   - every pinned row must have a record. A run narrowed to some
#     experiments (`--json E2`, `--json E15 --sorter bucket`) names the
#     rows it must cover by the PREFIX of their identity ("E2 ",
#     "E15 sort-bucket-"); at least one pinned row must match it.
# Refresh the pin only when a change is meant to alter an I/O schedule:
#   main.exe --json && scripts/check_records_pin.sh  (prints the drift)
set -eu

json=${1:-BENCH_core.json}
pin=${2:-bench/records.pin}
prefix=${3:-}

[ -s "$json" ] || { echo "check_records_pin: $json missing or empty" >&2; exit 1; }
[ -s "$pin" ] || { echo "check_records_pin: $pin missing or empty" >&2; exit 1; }

# One record per line; keep the fields before "phases" (labels there are
# free text) and cut out the identity and the three counts.
records=$(grep -c '"experiment":' "$json" || true)
grep '"experiment":' "$json" \
  | sed 's/"phases".*//' \
  | sed -n 's/.*"experiment":"\([^"]*\)","name":"\([^"]*\)".*"n_cells":\([0-9]*\),"b":\([0-9]*\),"m":\([0-9]*\),"reads":\([0-9]*\),"writes":\([0-9]*\),"total_ios":\([0-9]*\),.*/\1 \2 \3 \4 \5 \6 \7 \8/p' \
  | awk -v pin="$pin" -v prefix="$prefix" -v records="$records" '
    function fail(msg) { print "check_records_pin: " msg > "/dev/stderr"; bad = 1 }
    BEGIN {
      while ((getline line < pin) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        split(line, f, " ")
        id = f[1] " " f[2] " " f[3] " " f[4] " " f[5]
        if (id in want) fail("pinned twice: " id)
        want[id] = f[6] " " f[7] " " f[8]
        npin++
        if (index(id, prefix) == 1) covered[id] = 1
      }
    }
    {
      id = $1 " " $2 " " $3 " " $4 " " $5
      got = $6 " " $7 " " $8
      seen[id] = 1
      n++
      if (!(id in want)) fail(id ": no pinned row (reads writes total_ios = " got ")")
      else if (got != want[id]) fail(id ": reads writes total_ios = " got ", pinned " want[id])
    }
    END {
      if (n != records) fail("parsed " n " of " records " records")
      ncov = 0
      for (id in covered) {
        ncov++
        if (!(id in seen)) fail(id ": pinned, but no record")
      }
      if (ncov == 0) fail("no pinned row starts with \"" prefix "\"")
      if (bad) exit 1
      scope = (prefix == "") ? "" : " starting \"" prefix "\""
      printf "counted I/Os: %d records exact against %s; all %d pinned rows%s present\n", n, pin, ncov, scope
    }' \
  || { echo "check_records_pin: counted I/Os drifted from $pin" >&2; exit 1; }
