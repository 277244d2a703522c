#!/bin/sh
# Allocation- and probe-regression gate for the engine.
#
# Runs BenchmarkSolve (the shortest-path fixpoint on a cyclic graph) and
# BenchmarkParty (Example 4.3) at -benchtime 3x and enforces two pins.
# Both are counts, not timings, so they hold on any machine; there are
# no knobs. Re-pinning means editing the constant below in the same
# commit as the code change that moves it.
#
#   1. Allocation pin: with no event sink attached (the benchmark's
#      configuration; the per-operator counters are always counted into
#      the solve's Stats), BenchmarkSolve's allocs/op stays at
#      SOLVE_ALLOCS (2,133) within ALLOC_TOL_PCT percent. Relations store
#      rows in chunked arenas with value-hashed key tables and Δ sets hold
#      row ids, so a solve that stores ~27k rows allocates per chunk and
#      per table growth, not per row: what is left is the growth of the
#      arenas, tables and γ scratch, one adopted base-EDB relation and the
#      component walk's per-solve bookkeeping; the program's 384 arc facts
#      are data and fire no pipeline. The tolerance absorbs runtime noise
#      — pooled pipeline machines dropped by a GC cycle are rebuilt (observed
#      spread 2,110–2,206 over ten runs) — while a single allocation per
#      stored row would add over 20,000. One-shot setup allocations
#      amortize over the iteration count, which is why -benchtime is
#      fixed. This protects the storage kernel's and the streaming
#      pipelines' core property — no per-tuple allocation, counting
#      included.
#
#   2. Party probe pin: BenchmarkParty/engine/n=64 reports the index
#      probes of one Example 4.3 solve (probes/op), which must equal
#      PARTY_PROBES (1,682) exactly: it moves only when the pipelines a
#      pass runs change. kc's Δ pass runs its Δ-driver order
#      (docs/ARCHITECTURE.md); on the canonical order the same solve
#      probed 22,120 rows.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SOLVE_ALLOCS=2133
ALLOC_TOL_PCT=5
PARTY_PROBES=1682
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT INT TERM

echo "bench_regression: running BenchmarkSolve and BenchmarkParty (-benchtime 3x)"
( cd "$ROOT" && go test . -run '^$' -bench '^(BenchmarkSolve|BenchmarkParty)$' -benchmem \
    -benchtime 3x ) | tee "$RAW"

awk -v pinned="$SOLVE_ALLOCS" -v alloctol="$ALLOC_TOL_PCT" -v partypin="$PARTY_PROBES" '
/^BenchmarkSolve(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
}
/^BenchmarkParty\/engine\/n=64(-[0-9]+)?[ \t]/ && /probes\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "probes/op") probes = $i
}
END {
    if (allocs == "") {
        print "bench_regression: FAIL: missing BenchmarkSolve results" > "/dev/stderr"
        exit 1
    }
    dev = 100 * (allocs - pinned) / pinned; if (dev < 0) dev = -dev
    printf "bench_regression: BenchmarkSolve allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", allocs, pinned, dev, alloctol
    if (dev > alloctol + 0) {
        print "bench_regression: FAIL: allocation count moved; per-row allocation or the zero-cost-when-off contract regressed" > "/dev/stderr"
        exit 1
    }
    if (probes == "") {
        print "bench_regression: FAIL: missing BenchmarkParty/engine/n=64 probes/op" > "/dev/stderr"
        exit 1
    }
    printf "bench_regression: BenchmarkParty/engine/n=64 probes/op %d vs pinned %d\n", probes, partypin
    if (probes + 0 != partypin + 0) {
        print "bench_regression: FAIL: Example 4.3 probe count moved; a Δ pass no longer runs the pipeline it did" > "/dev/stderr"
        exit 1
    }
    print "bench_regression: PASS"
}
' "$RAW"
