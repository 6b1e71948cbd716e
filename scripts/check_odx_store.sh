#!/usr/bin/env bash
# odx on a persistent ChaCha20 store, end to end.
#
#   scripts/check_odx_store.sh [ODX]     (default: _build/default/bin/odx.exe)
#
# 1. Round trip: a journaled, sealed bucket sort on a file store, then a
#    --resume of the same store, print the same sorted output and the same
#    I/O count. (The resumed run's scratch lands above the reattached
#    region, so its trace digest differs by design.)
# 2. Refusals: every store odx cannot open or unseal ends with
#    "odx: <store>: <message>" on stderr and exit status 1 — never an
#    uncaught exception. Each case runs on a fresh copy of the store; the
#    cases refused at open (retired header, wrong block size) must also
#    leave the store and its journal byte-identical.
# 3. Cleanup: a run without --store leaves its TMPDIR empty.
set -euo pipefail

odx=$(realpath "${1:-_build/default/bin/odx.exe}")
dir=$(mktemp -d)
tmp=$(mktemp -d)
trap 'rm -rf "$dir" "$tmp"' EXIT
cd "$dir"

fail() {
  echo "check_odx_store: $*" >&2
  exit 1
}

seq 1 300 | awk '{ print ($1 * 7919) % 1000 }' > in
sort_args=(sort --backend file --journal --sorter bucket -b 4 -m 16)

"$odx" "${sort_args[@]}" --store S --cipher chacha20 in > create.out
"$odx" "${sort_args[@]}" --store S --cipher chacha20 --resume in > resume.out
grep -q '^; ok = true$' create.out || fail "create run did not sort"
strip_digest() { sed 's/, trace digest [0-9a-f]*//' "$1"; }
[ "$(strip_digest create.out)" = "$(strip_digest resume.out)" ] ||
  fail "resume printed different output: $(diff create.out resume.out)"
cp S S.orig
cp S.journal S.journal.orig

# refused NAME CAUSE [--untouched] [PATCH_OFFSET PATCH_BYTE] -- ODX ARGS...
# Runs odx on a fresh copy of the store (optionally with one byte of the
# store file patched) and requires exit 1 with "odx: <store>: ...CAUSE".
refused() {
  local name=$1 cause=$2
  shift 2
  local untouched=0 offset= byte=
  if [ "$1" = --untouched ]; then untouched=1; shift; fi
  if [ "$1" != -- ]; then offset=$1 byte=$2; shift 2; fi
  shift
  rm -rf "$name"
  mkdir "$name"
  cp S.orig "$name/S"
  cp S.journal.orig "$name/S.journal"
  if [ -n "$offset" ]; then
    printf "\\x$byte" | dd of="$name/S" bs=1 seek="$offset" conv=notrunc status=none
  fi
  cp "$name/S" "$name/S.before"
  cp "$name/S.journal" "$name/S.journal.before"
  local status=0
  "$odx" "$@" --store "$name/S" in > "$name/out" 2> "$name/err" || status=$?
  [ "$status" -eq 1 ] || fail "$name: exit status $status, want 1 ($(cat "$name/err"))"
  grep -q "^odx: $name/S: .*$cause" "$name/err" ||
    fail "$name: stderr lacks \"odx: $name/S: ...$cause\": $(cat "$name/err")"
  if grep -q 'uncaught exception' "$name/err"; then fail "$name: uncaught exception"; fi
  if [ "$untouched" = 1 ]; then
    cmp -s "$name/S" "$name/S.before" || fail "$name: store file changed"
    cmp -s "$name/S.journal" "$name/S.journal.before" || fail "$name: journal changed"
  fi
  echo "ok: $name: $(cat "$name/err")"
}

# The file backend's 64-byte header carries the store header from byte
# 24 on: version at 24, block size at 32, nonce mark at 40, engine id at 48.
refused no-cipher "no cipher key" -- "${sort_args[@]}" --resume
refused wrong-key "bad constructor word" -- "${sort_args[@]}" --cipher chacha20 --seal-key 2 --resume
refused wrong-block-size "payload size" --untouched -- \
  sort --backend file --journal --sorter bucket -b 8 -m 16 --cipher chacha20 --resume
refused retired-engine "retired cipher engine id 1" --untouched 48 01 -- \
  "${sort_args[@]}" --cipher chacha20 --resume
refused v1-header "unsupported store header version 1" --untouched 24 01 -- \
  "${sort_args[@]}" --cipher chacha20 --resume

# 3. Cleanup: without --store, odx's temp store files (every shard and the
#    journal) are gone when it exits.
TMPDIR="$tmp" "$odx" sort --backend file --shards 2 --journal -b 4 -m 16 in > tmp.out
grep -q '^; ok = true$' tmp.out || fail "temp-store run did not sort"
[ -z "$(ls -A "$tmp")" ] || fail "odx left temp files behind: $(ls -A "$tmp" | tr '\n' ' ')"

echo "check_odx_store: round trip, $(ls -d */ | wc -l) refusals and temp cleanup ok"
