#!/bin/sh
# check_profile_json.sh profile_trace.json
#
# Smoke-checks a Chrome trace-event profile exported by the bench's
# `--profile` flag (or `odx --profile`): the file must parse as JSON and
# carry the trace-event envelope Perfetto / chrome://tracing expect —
# a traceEvents array holding at least one complete ("ph":"X") phase
# event with microsecond timestamps — and the phases must carry their
# counts: integer ios/retries/faults/bytes/depth >= 0 on every phase
# event, and ios > 0 on at least one, so a sink that records nothing
# fails here.
set -eu

profile=${1:-profile_trace.json}

[ -s "$profile" ] || { echo "check_profile_json: $profile missing or empty" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
  python3 - "$profile" <<'PY'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

events = doc.get("traceEvents")
assert isinstance(events, list), "traceEvents missing or not a list"
assert events, "traceEvents is empty"

phases = [e for e in events if e.get("ph") == "X"]
assert phases, "no complete ('ph':'X') phase events"
for e in phases:
    for field in ("name", "ts", "dur", "pid", "tid"):
        assert field in e, f"phase event missing {field!r}: {e}"
    assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0, f"bad ts: {e}"
    assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0, f"bad dur: {e}"
    args = e.get("args", {})
    for field in ("ios", "retries", "faults", "bytes", "depth"):
        v = args.get(field)
        assert isinstance(v, int) and not isinstance(v, bool) and v >= 0, \
            f"phase event needs an integer {field!r} >= 0: {e}"
assert any(e["args"]["ios"] > 0 for e in phases), "no phase event counts any I/O"

names = [e for e in events if e.get("ph") == "M" and e.get("name") == "thread_name"]
assert names, "no thread_name metadata events"

print(f"check_profile_json: {path} OK "
      f"({len(events)} events, {len(phases)} phases, {len(names)} threads)")
PY
else
  # Fallback without python3: structural grep for the envelope and at
  # least one phase event.
  grep -q '"traceEvents"' "$profile" || {
    echo "check_profile_json: no traceEvents key in $profile" >&2; exit 1; }
  grep -q '"ph":"X"' "$profile" || {
    echo "check_profile_json: no phase events in $profile" >&2; exit 1; }
  grep -q '"name":"thread_name"' "$profile" || {
    echo "check_profile_json: no thread_name metadata in $profile" >&2; exit 1; }
  grep -q '"ios":[1-9]' "$profile" || {
    echo "check_profile_json: no phase event counts any I/O in $profile" >&2; exit 1; }
  echo "check_profile_json: $profile OK (structural check; python3 unavailable)"
fi
