#!/bin/sh
# Allocation-, size- and probe-regression gate for the engine.
#
# Runs BenchmarkSolve (the shortest-path fixpoint on a cyclic graph),
# BenchmarkRelationInsert, BenchmarkParty (Example 4.3), BenchmarkLoad,
# BenchmarkServeRecover, BenchmarkParse and BenchmarkExplain at
# -benchtime 3x, BenchmarkIncrementalSolve/solve-more-chain at
# -benchtime 100x and BenchmarkWFS/acyclic at -benchtime 5x, and
# enforces twelve pins. All are counts, not timings, so they hold
# on any machine; there are no knobs. Re-pinning means editing the
# constant below in the same commit as the code change that moves it.
#
#   1. Allocation pin: with no event sink attached (the benchmark's
#      configuration; the per-operator counters are always counted into
#      the solve's Stats), BenchmarkSolve's allocs/op stays at
#      SOLVE_ALLOCS (416) within ALLOC_TOL_PCT percent. Relations store
#      rows in chunked arenas of 8-byte pointer-free values with
#      value-hashed key tables, Δ sets hold row ids and γ keeps its
#      groups in hash-keyed GroupSets (no key strings), so a solve that
#      stores ~27k rows allocates per chunk and per table growth, not per
#      row: what is left is the growth of the arenas, tables and γ
#      scratch, one adopted base-EDB relation and the component walk's
#      per-solve bookkeeping, the per-round log (Stats.RoundLog) among
#      it; the program's 384 arc facts are data and fire no pipeline.
#      Pipeline machines live on a per-rule free list that a garbage
#      collection does not empty, so the count does not move with GC
#      timing (under sync.Pool it spread over 700–840). The pin moved
#      from 2,133 when values became interned words: γ no longer interns
#      a key string per new group, and machines are no longer rebuilt
#      after each collection; it moved from 529 when every solve began
#      logging one record per round, whose slice grows by doubling and is
#      merged once; it moved from 536 when s's γ became a Δ-fold, which
#      reads the changed path rows by id, so path's (X, Y) index, which
#      only the re-enumerating γ probed, is never built. It moved from
#      484 to 488 when costs moved into 64-row pages: a relation's page
#      table holds eight headers per 512-row chunk where its chunk table
#      held one, so the tables reallocate more often as they grow (the
#      pages themselves are cut from one slab per chunk, allocated as
#      the chunks were); then to 465 when Δ sets
#      began taking their membership bitsets from the engine's pool, so
#      a solve after the first allocates no bitset; then to 416 when a Δ
#      set became a slice indexed by predicate number instead of two
#      string-keyed maps, which no round sorts or clears entry by entry.
#      A single
#      allocation per stored row would add over 20,000. One-shot setup
#      allocations amortize over the iteration count, which is why
#      -benchtime is fixed. This protects the storage kernel's and the
#      streaming pipelines' core property — no per-tuple allocation,
#      counting included.
#
#   2. Row-size pin: BenchmarkRelationInsert's B/row — bytes allocated
#      per stored row, arena, cost column and key table together — stays
#      at INSERT_BYTES_PER_ROW (58.4) within ALLOC_TOL_PCT percent, so a
#      value cannot silently grow back from one 8-byte word (48-byte
#      values with a string header and a set pointer read 187). It moved
#      from 81.5 to 82.4 when costs moved into 64-row pages (the page
#      table's headers), then to 58.4 when a value became one word
#      instead of a kind byte padded to a 16-byte pair.
#
#   3. Party probe pin: BenchmarkParty/engine/n=64 reports the index
#      probes of one Example 4.3 solve (probes/op), which must equal
#      PARTY_PROBES (1,682) exactly: it moves only when the pipelines a
#      pass runs change. kc's Δ pass runs its Δ-driver order
#      (docs/ARCHITECTURE.md); on the canonical order the same solve
#      probed 22,120 rows. γ's first-occurrence group order left it
#      unchanged.
#
#   4. Load allocation pin: BenchmarkLoad/load — datalog.Load of Example
#      4.3 over 1,024 generated guests, about 4,100 facts in 116 KB —
#      stays at LOAD_ALLOCS (305) allocs/op within ALLOC_TOL_PCT percent.
#      Facts are data from the bytes up: the parser's fact fast path
#      reads a ground fact's constants from the bytes straight into its
#      predicate's chunked row buffer and then the base EDB's chunked
#      arena, with no token, Atom, Rule or key per fact. What is left is
#      about 16 row-buffer chunks (two allocations each), about 20 arena
#      chunks and the front end of the two rules; the benchmark interns
#      its symbols before timing, so no symbol is new (a new symbol costs
#      one more). Before facts were data the same load made 34,230
#      allocations, about eight per fact; a single allocation per fact
#      would add 4,100. It moved from 496 when the rules front end
#      stopped formatting text nobody reads and deriving the same facts
#      twice (pin 8), then to 305 when the row buffers became chunks that
#      never copy a row instead of slices that doubled (1.20 MB → 0.51 MB
#      a load) and the parser began reusing its buffers.
#
#   5. Chained-SolveMore byte pin: BenchmarkIncrementalSolve/solve-more-chain
#      — 100 batches of two arcs, each solved into the model the previous
#      one returned, on Example 2.6 over a 48-node cycle graph, as the
#      served writer does — stays at CHAIN_BYTES (34,535) B/op within
#      ALLOC_TOL_PCT percent; it repeats to within a few bytes. Each
#      SolveMore clones the dispatched component's relations, and a clone
#      of the newest generation extends its storage in place, so what is
#      left is the derivations' own growth, the 64-row cost pages whose
#      costs a batch raises and the walk's bookkeeping. When every clone
#      copied the component and rebuilt its indexes, the same benchmark
#      allocated 784,376 B/op: an O(model) copy per assert cannot creep
#      back unnoticed. The pin was 113,987; it read 113,250 before and
#      114,006 after seeded passes began running Δ-driver orders, then
#      58,669 once a raised cost copied its 64-row page instead of its
#      512-row chunk (1 KB instead of up to 8 KB: 55,337 B less per
#      batch), then 51,441 once Δ sets took their membership bitsets
#      from the engine's pool instead of allocating each one to span its
#      relation's row ids (7,228 B less), then 34,535 once a value became
#      one 8-byte word (it read 49,516 just before: the copied cost pages
#      and the derivations' arena growth halve).
#
#   6. Chained-SolveMore probe pin: the same benchmark reports the index
#      probes per batch (probes/op), which must equal CHAIN_PROBES
#      (277.6) exactly: each batch's seeded passes run the Δ-driver order
#      of the scan their seed rows feed, so path's arc Δ reads its rows
#      and probes s by Z. When a pass seeded from EDB rows ran the
#      canonical order, scanning every s row and walking the Δ per row,
#      the same batches probed 7,103 rows each: an O(model) walk per
#      assert cannot come back unnoticed.
#
#   7. Recovery allocation pin: BenchmarkServeRecover — Materialize of a
#      served Example 2.6 over a write-ahead log of 900 two-arc batches
#      on a 16-node, 48-arc cycle graph, with no checkpoint — stays at
#      RECOVER_ALLOCS (1,668) allocs/op within ALLOC_TOL_PCT percent.
#      Recovery reads the whole log into one batch of rows, then derives
#      the least model of the base EDB ∪ the logged facts in one solve.
#      Records are binary rows: each fact decodes from its record
#      straight into the batch's reused row buffer, with no allocation
#      for a predicate or symbol interned before, and a run of facts of
#      one predicate finds its relation once; what is left is the
#      solve's own, the batch relation's growth and the segment scan's
#      record index (about 70 of them outside the solve). While records
#      were JSON the same recovery made 13,375 allocations: one for each
#      fact's predicate name, one per symbol and one argument slice per
#      fact. When a cold start solved the base EDB and then ran a
#      second SolveMore over the log, and each record and each argument
#      went through json.Unmarshal, it made 42,277; it made 16,999 while
#      the EDB allocated an argument slice and a key string per fact.
#
#   8. Rules front-end pin: BenchmarkLoad/rules — datalog.Load of the
#      rule texts of the six example programs of internal/programs
#      (ShortestPath, CompanyControl, Party, Circuit, Halfsum and
#      Averages), after one untimed load so that no symbol is new —
#      stays at RULES_ALLOCS (1,834) allocs/op within ALLOC_TOL_PCT
#      percent. The analyses and the compiler read each rule's facts
#      once — predicate keys resolved at parse time, aggregate roles and
#      CDB cost variables derived once per rule — and format text only
#      for an error or on the first EXPLAIN; the §5 ladder waits for the
#      first Classify. When every Load rendered the rules' aggregates,
#      r-monotonicity verdicts and EXPLAIN labels, copied rules for each
#      pair of Definition 2.10 and rebuilt keys per lookup, the same
#      texts took 3,654 allocations. It moved from 1,951 when the parser
#      began reusing its token and scratch buffers from one parse to the
#      next and copying an atom's arguments and a body's subgoals out
#      once, at their length.
#
#   9. Parse allocation pin: BenchmarkParse — parser.Parse of Example
#      2.6's rules and 512 arc facts, 9.4 KB — stays at PARSE_ALLOCS (93)
#      allocs/op within ALLOC_TOL_PCT percent. The fact fast path builds
#      no token and allocates nothing per fact: a fact costs its share of
#      its buffer's chunks, and the rules' atoms and bodies are the rest.
#      A parse takes the parser the last one released, with its
#      buffers, so nothing is allocated per parse for scratch.
#      Before the fast path the same parse made 121 allocations; a
#      single allocation per fact would add 512.
#
#  10. Explain allocation pin: BenchmarkExplain — a depth-10 explanation
#      tree of a shortest path across the n = 96 layered DAG on a fresh
#      Provenance, so staging the recursive component included — stays
#      at EXPLAIN_ALLOCS (1,994) allocs/op within ALLOC_TOL_PCT percent.
#      Explanations run the rules' own pipelines with the head's
#      arguments bound, a component's stages are relation generations
#      that share one storage, and an aggregate's contributions are one
#      small pipeline run with the group bound, so staging allocates per
#      stage and per generation, not per tuple or per match. When the
#      tuple-at-a-time interpreter re-derived explanations, filtering
#      every row by its stage and collecting every group's supports as it
#      enumerated, the same tree took 38,404 allocations.
#
#  11. Solve byte pin: BenchmarkSolve's B/op stays at SOLVE_BYTES
#      (3,109,154) within ALLOC_TOL_PCT percent; it repeats to within
#      a few dozen bytes. Pin 1 counts allocations, which do not move
#      when what is allocated grows: a value that widened again would
#      double the arenas, cost pages, γ group keys and fold accumulators
#      with the allocation count unchanged. With 16-byte values the same
#      solve allocated 4,505,042 B/op.
#
#  12. Well-founded allocation pin: BenchmarkWFS/acyclic — the
#      Kemp–Stuckey alternating fixpoint of Example 2.6 on a 12-node
#      layered DAG, compile included — stays at WFS_ALLOCS (3,928)
#      allocs/op within ALLOC_TOL_PCT percent. Every lfp of the
#      alternation is one solve of the rewritten program on the engine's
#      plans, its negations and aggregate candidates read from shadow
#      relations shared with the frozen side, so it allocates per solve
#      and per arena growth, not per atom. When the comparator was an
#      interpreter walking the rules with map substitutions over
#      string-keyed atom sets, the same run made 48,928 allocations.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SOLVE_ALLOCS=416
INSERT_BYTES_PER_ROW=58.4
ALLOC_TOL_PCT=5
PARTY_PROBES=1682
LOAD_ALLOCS=305
CHAIN_BYTES=34535
CHAIN_PROBES=277.6
RECOVER_ALLOCS=1668
RULES_ALLOCS=1834
PARSE_ALLOCS=93
EXPLAIN_ALLOCS=1994
SOLVE_BYTES=3109154
WFS_ALLOCS=3928
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT INT TERM

echo "bench_regression: running BenchmarkSolve, BenchmarkRelationInsert, BenchmarkParty, BenchmarkLoad, BenchmarkServeRecover, BenchmarkParse and BenchmarkExplain (-benchtime 3x)"
( cd "$ROOT" && go test . -run '^$' -bench '^(BenchmarkSolve|BenchmarkRelationInsert|BenchmarkParty|BenchmarkLoad|BenchmarkServeRecover|BenchmarkParse|BenchmarkExplain)$' -benchmem \
    -benchtime 3x ) | tee "$RAW"
echo "bench_regression: running BenchmarkIncrementalSolve/solve-more-chain (-benchtime 100x)"
( cd "$ROOT" && go test . -run '^$' -bench '^BenchmarkIncrementalSolve$/^solve-more-chain$' -benchmem \
    -benchtime 100x ) | tee -a "$RAW"
echo "bench_regression: running BenchmarkWFS/acyclic (-benchtime 5x)"
( cd "$ROOT" && go test . -run '^$' -bench '^BenchmarkWFS$/^acyclic$' -benchmem \
    -benchtime 5x ) | tee -a "$RAW"

awk -v pinned="$SOLVE_ALLOCS" -v alloctol="$ALLOC_TOL_PCT" -v partypin="$PARTY_PROBES" -v rowpin="$INSERT_BYTES_PER_ROW" -v loadpin="$LOAD_ALLOCS" -v chainpin="$CHAIN_BYTES" -v chainprobepin="$CHAIN_PROBES" -v recoverpin="$RECOVER_ALLOCS" -v rulespin="$RULES_ALLOCS" -v parsepin="$PARSE_ALLOCS" -v explainpin="$EXPLAIN_ALLOCS" -v solvebytespin="$SOLVE_BYTES" -v wfspin="$WFS_ALLOCS" '
/^BenchmarkSolve(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
    for (i = 2; i < NF; i++) if ($(i+1) == "B/op") solvebytes = $i
}
/^BenchmarkRelationInsert(-[0-9]+)?[ \t]/ && /B\/row/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "B/row") rowbytes = $i
}
/^BenchmarkParty\/engine\/n=64(-[0-9]+)?[ \t]/ && /probes\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "probes/op") probes = $i
}
/^BenchmarkLoad\/load(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") loadallocs = $i
}
/^BenchmarkLoad\/rules(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") rulesallocs = $i
}
/^BenchmarkParse(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") parseallocs = $i
}
/^BenchmarkExplain(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") explainallocs = $i
}
/^BenchmarkServeRecover(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") recoverallocs = $i
}
/^BenchmarkWFS\/acyclic(-[0-9]+)?[ \t]/ && /allocs\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") wfsallocs = $i
}
/^BenchmarkIncrementalSolve\/solve-more-chain(-[0-9]+)?[ \t]/ && /B\/op/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "B/op") chainbytes = $i
    for (i = 2; i < NF; i++) if ($(i+1) == "probes/op") chainprobes = $i
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
    if (rowbytes == "") {
        print "bench_regression: FAIL: missing BenchmarkRelationInsert B/row" > "/dev/stderr"
        exit 1
    }
    rdev = 100 * (rowbytes - rowpin) / rowpin; if (rdev < 0) rdev = -rdev
    printf "bench_regression: BenchmarkRelationInsert B/row %.1f vs pinned %.1f = %.3f%% deviation (gate: <= %s%%)\n", rowbytes, rowpin, rdev, alloctol
    if (rdev > alloctol + 0) {
        print "bench_regression: FAIL: bytes per stored row moved; the value or row layout changed size" > "/dev/stderr"
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
    if (loadallocs == "") {
        print "bench_regression: FAIL: missing BenchmarkLoad/load allocs/op" > "/dev/stderr"
        exit 1
    }
    ldev = 100 * (loadallocs - loadpin) / loadpin; if (ldev < 0) ldev = -ldev
    printf "bench_regression: BenchmarkLoad/load allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", loadallocs, loadpin, ldev, alloctol
    if (ldev > alloctol + 0) {
        print "bench_regression: FAIL: Load allocation count moved; a fact costs an allocation again, or the rules front end grew" > "/dev/stderr"
        exit 1
    }
    if (chainbytes == "") {
        print "bench_regression: FAIL: missing BenchmarkIncrementalSolve/solve-more-chain B/op" > "/dev/stderr"
        exit 1
    }
    cdev = 100 * (chainbytes - chainpin) / chainpin; if (cdev < 0) cdev = -cdev
    printf "bench_regression: BenchmarkIncrementalSolve/solve-more-chain B/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", chainbytes, chainpin, cdev, alloctol
    if (cdev > alloctol + 0) {
        print "bench_regression: FAIL: chained SolveMore bytes moved; a successor copies what it could share, or a batch derives more" > "/dev/stderr"
        exit 1
    }
    if (chainprobes == "") {
        print "bench_regression: FAIL: missing BenchmarkIncrementalSolve/solve-more-chain probes/op" > "/dev/stderr"
        exit 1
    }
    printf "bench_regression: BenchmarkIncrementalSolve/solve-more-chain probes/op %s vs pinned %s\n", chainprobes, chainprobepin
    if (chainprobes + 0 != chainprobepin + 0) {
        print "bench_regression: FAIL: chained SolveMore probe count moved; a seeded pass no longer runs the pipeline it did" > "/dev/stderr"
        exit 1
    }
    if (recoverallocs == "") {
        print "bench_regression: FAIL: missing BenchmarkServeRecover allocs/op" > "/dev/stderr"
        exit 1
    }
    vdev = 100 * (recoverallocs - recoverpin) / recoverpin; if (vdev < 0) vdev = -vdev
    printf "bench_regression: BenchmarkServeRecover allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", recoverallocs, recoverpin, vdev, alloctol
    if (vdev > alloctol + 0) {
        print "bench_regression: FAIL: recovery allocation count moved; a fact costs more allocations to decode, or recovery solves more than once" > "/dev/stderr"
        exit 1
    }
    if (rulesallocs == "") {
        print "bench_regression: FAIL: missing BenchmarkLoad/rules allocs/op" > "/dev/stderr"
        exit 1
    }
    udev = 100 * (rulesallocs - rulespin) / rulespin; if (udev < 0) udev = -udev
    printf "bench_regression: BenchmarkLoad/rules allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", rulesallocs, rulespin, udev, alloctol
    if (udev > alloctol + 0) {
        print "bench_regression: FAIL: rules front-end allocation count moved; the analyses format text nobody reads, or derive the facts of a rule again" > "/dev/stderr"
        exit 1
    }
    if (parseallocs == "") {
        print "bench_regression: FAIL: missing BenchmarkParse allocs/op" > "/dev/stderr"
        exit 1
    }
    pdev = 100 * (parseallocs - parsepin) / parsepin; if (pdev < 0) pdev = -pdev
    printf "bench_regression: BenchmarkParse allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", parseallocs, parsepin, pdev, alloctol
    if (pdev > alloctol + 0) {
        print "bench_regression: FAIL: parse allocation count moved; a fact costs an allocation again, or the fast path stopped reading facts" > "/dev/stderr"
        exit 1
    }
    if (explainallocs == "") {
        print "bench_regression: FAIL: missing BenchmarkExplain allocs/op" > "/dev/stderr"
        exit 1
    }
    edev = 100 * (explainallocs - explainpin) / explainpin; if (edev < 0) edev = -edev
    printf "bench_regression: BenchmarkExplain allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", explainallocs, explainpin, edev, alloctol
    if (edev > alloctol + 0) {
        print "bench_regression: FAIL: explanation allocation count moved; staging allocates per tuple again, or an explanation runs more than its rules" > "/dev/stderr"
        exit 1
    }
    if (solvebytes == "") {
        print "bench_regression: FAIL: missing BenchmarkSolve B/op" > "/dev/stderr"
        exit 1
    }
    sdev = 100 * (solvebytes - solvebytespin) / solvebytespin; if (sdev < 0) sdev = -sdev
    printf "bench_regression: BenchmarkSolve B/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", solvebytes, solvebytespin, sdev, alloctol
    if (sdev > alloctol + 0) {
        print "bench_regression: FAIL: solve bytes moved; a value, row or scratch buffer changed size" > "/dev/stderr"
        exit 1
    }
    if (wfsallocs == "") {
        print "bench_regression: FAIL: missing BenchmarkWFS/acyclic allocs/op" > "/dev/stderr"
        exit 1
    }
    wdev = 100 * (wfsallocs - wfspin) / wfspin; if (wdev < 0) wdev = -wdev
    printf "bench_regression: BenchmarkWFS/acyclic allocs/op %d vs pinned %d = %.3f%% deviation (gate: <= %s%%)\n", wfsallocs, wfspin, wdev, alloctol
    if (wdev > alloctol + 0) {
        print "bench_regression: FAIL: well-founded allocation count moved; an lfp allocates per atom again, or the alternation compiles more than once" > "/dev/stderr"
        exit 1
    }
    print "bench_regression: PASS"
}
' "$RAW"
