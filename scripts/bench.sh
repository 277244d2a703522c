#!/bin/sh
# Run the root-package benchmark suite and record the results as JSON,
# one object per benchmark, in BENCH_<date>.json at the repo root.
#
#   scripts/bench.sh                 # full run (go test's default -benchtime)
#   BENCHTIME=1x scripts/bench.sh    # smoke run: one iteration per benchmark
#   BENCH_PATTERN=Solve scripts/bench.sh
#
# The JSON is a stable machine-readable trail for spotting regressions
# across commits; pair two files from different checkouts to compare.
# On a shared machine prefer interleaved A/B runs of two built test
# binaries over comparing stored numbers (see docs/OBSERVABILITY.md).
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BENCHTIME=${BENCHTIME:-}
BENCH_PATTERN=${BENCH_PATTERN:-.}
OUT=${BENCH_OUT:-"$ROOT/BENCH_$(date +%Y%m%d).json"}
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT INT TERM

echo "bench: running go test -bench $BENCH_PATTERN ${BENCHTIME:+-benchtime $BENCHTIME}"
( cd "$ROOT" && go test . -run '^$' -bench "$BENCH_PATTERN" -benchmem \
    ${BENCHTIME:+-benchtime "$BENCHTIME"} ) | tee "$RAW"

# The engine defaults to one evaluation worker per CPU, so the box's
# CPU budget is part of the measurement: record GOMAXPROCS (the env
# override when set, the online CPU count otherwise) alongside the
# results. Benchmarks pinned to explicit worker counts carry them in
# their names (BenchmarkSolveParallel/par=2).
NCPU=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
GMP=${GOMAXPROCS:-$NCPU}

# Engine benchmarks never touch the serve tier's write-ahead log, so
# they run with durability off; the field makes that explicit so these
# numbers are never read as comparable to a loadgen run that paid for
# fsyncs (see the wal_fsync field of loadgen reports).
WAL_FSYNC=${BENCH_WAL_FSYNC:-off}

# Capture one EXPLAIN ANALYZE profile of the shortest-path example: the
# machine-readable operator counters ride along under the "profiles"
# key, so cardinality drift (a regressing join suddenly probing more
# rows) is visible in the same trail as the timing drift. Best-effort: a failure leaves the key empty rather than
# sinking the whole run.
PROF=$(mktemp)
trap 'rm -f "$RAW" "$PROF"' EXIT INT TERM
echo "bench: profiling one ShortestPath solve (mdl -profile-json)"
( cd "$ROOT" && go run ./cmd/mdl -profile-json "$PROF" \
    examples/programs/shortestpath.mdl >/dev/null 2>&1 ) || : >"$PROF"

# Parse `BenchmarkName-N  iters  ns/op  B/op  allocs/op` lines into JSON.
# The engine_vs_baseline section pairs each engine benchmark with its
# direct-algorithm baseline (Dijkstra for the shortest-path family, the
# closed-form scan for party) and records the ns/op ratio, so the gap to
# the direct algorithms is tracked across PRs in the same file as the
# raw numbers.
awk -v host="$(uname -sm)" -v go="$(go env GOVERSION)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gmp="$GMP" -v walfsync="$WAL_FSYNC" -v proffile="$PROF" '
BEGIN { printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"host\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"default_parallelism\": %s,\n  \"wal_fsync\": \"%s\",\n  \"benchmarks\": [", date, go, host, gmp, gmp, walfsync; n = 0 }
/^Benchmark/ && /ns\/op/ {
    # go test appends "-<GOMAXPROCS>" to every name unless it is 1. Strip
    # exactly that suffix: a generic -[0-9]+ strip would eat the exponent
    # of BenchmarkHalfsumLimit/eps=1e-06 on a one-CPU run.
    name = $1
    if (gmp + 0 != 1) {
        suf = "-" gmp
        if (substr(name, length(name) - length(suf) + 1) == suf) name = substr(name, 1, length(name) - length(suf))
    }
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
    names[n] = name; nsb[name] = ns
}
END {
    printf "\n  ],\n  \"engine_vs_baseline\": ["
    m = 0
    for (i = 1; i <= n; i++) {
        name = names[i]; base = ""; fam = ""
        if (name ~ /^BenchmarkShortestPath\/[a-z]+\/n=[0-9]+$/) {
            split(name, a, "/")
            base = "BenchmarkShortestPathDijkstra/" a[3]
            fam = "shortestpath/" a[2] "/" a[3]
        } else if (name ~ /\/engine\//) {
            base = name; sub(/\/engine\//, "/direct/", base)
            fam = tolower(name); sub(/^benchmark/, "", fam); sub(/\/engine\//, "/", fam)
        }
        if (base == "" || !(base in nsb) || nsb[base] + 0 == 0) continue
        if (m++) printf ","
        printf "\n    {\"family\": \"%s\", \"engine\": \"%s\", \"baseline\": \"%s\", \"engine_over_baseline_ns\": %.2f}", fam, name, base, nsb[name] / nsb[base]
    }
    printf "\n  ]"
    # Embed the captured operator profile (already JSON) verbatim.
    prof = ""
    while ((getline line < proffile) > 0) prof = prof line "\n"
    close(proffile)
    if (prof != "") {
        sub(/\n$/, "", prof)
        printf ",\n  \"profiles\": {\n    \"shortestpath\": %s\n  }", prof
    }
    printf "\n}\n"
}
' "$RAW" >"$OUT"

count=$(grep -c '"name"' "$OUT" || true)
[ "$count" -gt 0 ] || { echo "bench: FAIL: no benchmark results parsed" >&2; exit 1; }
echo "bench: wrote $count results to $OUT"
