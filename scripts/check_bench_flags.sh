#!/usr/bin/env bash
# The bench's command line, in both modes.
#
#   scripts/check_bench_flags.sh [BENCH]   (default: _build/default/bench/main.exe)
#
# 1. Refusals: a bad flag value, a flag without its argument, an unknown
#    flag or experiment id each print one "bench: ..." line on stderr and
#    exit 2 before any experiment runs — nothing on stdout, no
#    BENCH_core.json — in text mode and in --json mode alike.
# 2. The same flags, valid, mean the same in both modes: E1 on a sharded,
#    journaled, sealed file store prints its tables twice (journal off,
#    then on) as text and writes the same four records as JSON, and no
#    store or journal file is left in TMPDIR afterwards. An experiment
#    whose store ignores --journal (E16) runs once.
set -euo pipefail

bench=$(realpath "${1:-_build/default/bench/main.exe}")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
mkdir tmp

fail() {
  echo "check_bench_flags: $*" >&2
  exit 1
}

refused() {
  for mode in text --json; do
    args=("$@")
    [ "$mode" = text ] || args=(--json "$@")
    status=0
    "$bench" "${args[@]}" > out 2> err || status=$?
    [ "$status" -eq 2 ] || fail "'${args[*]}' exited $status, want 2"
    [ ! -s out ] || fail "'${args[*]}' printed to stdout: $(head -3 out)"
    [ "$(wc -l < err)" -eq 1 ] && grep -q '^bench: ' err ||
      fail "'${args[*]}' did not print one 'bench: ' line: $(cat err)"
    [ ! -e BENCH_core.json ] || fail "'${args[*]}' wrote BENCH_core.json"
  done
}

refused --backend bogus
refused --cipher rot13
refused E99
refused E2 --shards 0
refused E2 --servers 1
refused E2 --sorter nope
refused E2 --backend
refused --frobnicate E2

flags=(E1 --backend file --shards 2 --journal --cipher chacha20)
TMPDIR=$dir/tmp "$bench" "${flags[@]}" > text.out
[ "$(grep -c '^== E1 Figure 1' text.out)" -eq 2 ] || fail "text mode did not run E1 journal off and on"
[ ! -e BENCH_core.json ] || fail "text mode wrote BENCH_core.json"
TMPDIR=$dir/tmp "$bench" --json "${flags[@]}" > json.out
[ "$(grep -c '"experiment":"E1"' BENCH_core.json)" -eq 4 ] || fail "--json did not write E1's records twice"
grep -q '"backend":"journaled","shards":2,"servers":1,"journal":true,"cipher":"chacha20"' BENCH_core.json ||
  fail "--json records do not carry the flags"
[ -z "$(ls -A tmp)" ] || fail "temp files left behind: $(ls tmp)"
# E16's store ignores --journal, so the journal-on pass does not repeat it.
"$bench" --json E16 --journal > json.out
[ "$(grep -c '"experiment":"E16"' BENCH_core.json)" -eq 1 ] || fail "--journal repeated E16's record"
echo "check_bench_flags: refusals exit 2 in both modes; flags agree across modes; no temp files left; --journal repeats only journaled stores"
