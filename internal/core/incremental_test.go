package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/val"
)

func arcDB(en *Engine, arcs [][3]any) *relation.DB {
	db := relation.NewDB(en.Schemas)
	for _, a := range arcs {
		db.Rel("arc/3").InsertJoin(
			[]val.T{val.Symbol(a[0].(string)), val.Symbol(a[1].(string))},
			val.Number(float64(a[2].(int))))
	}
	return db
}

// TestSolveMoreShortestPath: adding an arc that shortens routes updates
// the model exactly as a fresh solve would.
func TestSolveMoreShortestPath(t *testing.T) {
	en := mustEngine(t, programs.ShortestPath, Options{})
	base, _, err := en.Solve(arcDB(en, [][3]any{
		{"a", "b", 5}, {"b", "c", 5}, {"a", "c", 20},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := costOf(t, base, "s", "a", "c"); c != 10 {
		t.Fatalf("s(a,c) = %v, want 10", c)
	}
	inc, stats, err := en.SolveMore(context.Background(), base, arcDB(en, [][3]any{{"a", "c", 2}, {"c", "d", 1}}), Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := costOf(t, inc, "s", "a", "c"); c != 2 {
		t.Fatalf("incremental s(a,c) = %v, want 2", c)
	}
	if c, _ := costOf(t, inc, "s", "a", "d"); c != 3 {
		t.Fatalf("incremental s(a,d) = %v, want 3", c)
	}
	if stats.Derived == 0 {
		t.Fatal("expected incremental derivations")
	}
	// The previous model is untouched.
	if c, _ := costOf(t, base, "s", "a", "c"); c != 10 {
		t.Fatal("SolveMore must not mutate the previous model")
	}
	// Equivalence with a fresh solve over the union.
	full, _, err := en.Solve(arcDB(en, [][3]any{
		{"a", "b", 5}, {"b", "c", 5}, {"a", "c", 2}, {"c", "d", 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Equal(full, nil) {
		t.Fatalf("incremental and fresh solves disagree:\n%s\nvs\n%s", inc, full)
	}
}

// TestSolveMorePropertyEquivalence: on random graphs, solve(E1) then
// SolveMore(E2) equals solve(E1 ∪ E2).
func TestSolveMorePropertyEquivalence(t *testing.T) {
	en := mustEngine(t, programs.ShortestPath, Options{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		all := map[[2]int]int{}
		edge := func() ([]val.T, val.T, bool) {
			u, v := r.Intn(n), r.Intn(n)
			if _, dup := all[[2]int{u, v}]; dup {
				return nil, val.T{}, false
			}
			w := 1 + r.Intn(9)
			all[[2]int{u, v}] = w
			return []val.T{val.Symbol(fmt.Sprintf("v%d", u)), val.Symbol(fmt.Sprintf("v%d", v))}, val.Number(float64(w)), true
		}
		first := relation.NewDB(en.Schemas)
		second := relation.NewDB(en.Schemas)
		union := relation.NewDB(en.Schemas)
		for i := 0; i < 2+r.Intn(8); i++ {
			if args, w, ok := edge(); ok {
				first.Rel("arc/3").InsertJoin(args, w)
				union.Rel("arc/3").InsertJoin(args, w)
			}
		}
		for i := 0; i < r.Intn(6); i++ {
			if args, w, ok := edge(); ok {
				second.Rel("arc/3").InsertJoin(args, w)
				union.Rel("arc/3").InsertJoin(args, w)
			}
		}
		base, _, err := en.Solve(first)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		inc, _, err := en.SolveMore(context.Background(), base, second, Stats{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		full, _, err := en.Solve(union)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if !inc.Equal(full, nil) {
			t.Errorf("seed %d: incremental ≠ fresh\nincremental:\n%s\nfresh:\n%s", seed, inc, full)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSolveMoreCompanyControl: sum is monotone, so ownership networks
// support incremental share acquisitions.
func TestSolveMoreCompanyControl(t *testing.T) {
	en := mustEngine(t, programs.CompanyControl, Options{})
	mk := func(shares [][3]any) *relation.DB {
		db := relation.NewDB(en.Schemas)
		for _, s := range shares {
			db.Rel("s/3").InsertJoin(
				[]val.T{val.Symbol(s[0].(string)), val.Symbol(s[1].(string))},
				val.Number(s[2].(float64)))
		}
		return db
	}
	base, _, err := en.Solve(mk([][3]any{{"a", "b", 0.4}, {"b", "c", 0.6}}))
	if err != nil {
		t.Fatal(err)
	}
	if hasTuple(base, "c", "a", "b") {
		t.Fatal("0.4 is not control")
	}
	// a buys 0.2 more of b (a separate intermediary records it, so the
	// cost FD stays intact: model it as a distinct holding company).
	inc, _, err := en.SolveMore(context.Background(), base, mk([][3]any{{"a2", "b", 0.2}, {"a", "a2", 0.9}}), Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasTuple(inc, "c", "a", "b") {
		t.Fatal("a + a2 control b incrementally")
	}
	if !hasTuple(inc, "c", "a", "c") {
		t.Fatal("control of b unlocks c")
	}
}

// TestSolveMoreRejections: negation, pseudo-monotone aggregation and
// derived predicates are not insert-monotone.
func TestSolveMoreRejections(t *testing.T) {
	// Negated predicate.
	en := mustEngine(t, `p(X) :- q(X), not blocked(X).`, Options{})
	base, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	add := relation.NewDB(en.Schemas)
	add.Rel("blocked/1").InsertJoin([]val.T{val.Symbol("x")}, val.T{})
	if _, _, err := en.SolveMore(context.Background(), base, add, Stats{}); err == nil || !strings.Contains(err.Error(), "negation") {
		t.Fatalf("err = %v, want negation rejection", err)
	}
	// Pseudo-monotone aggregate input.
	en2 := mustEngine(t, programs.Circuit, Options{})
	base2, _, err := en2.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	add2 := relation.NewDB(en2.Schemas)
	add2.Rel("connect/2").InsertJoin([]val.T{val.Symbol("g"), val.Symbol("w")}, val.T{})
	if _, _, err := en2.SolveMore(context.Background(), base2, add2, Stats{}); err == nil || !strings.Contains(err.Error(), "non-monotone") {
		t.Fatalf("err = %v, want pseudo-monotone rejection", err)
	}
	// Derived predicate.
	en3 := mustEngine(t, programs.ShortestPath, Options{})
	base3, _, err := en3.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	add3 := relation.NewDB(en3.Schemas)
	add3.Rel("s/3").InsertJoin([]val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(1))
	if _, _, err := en3.SolveMore(context.Background(), base3, add3, Stats{}); err == nil || !strings.Contains(err.Error(), "derived") {
		t.Fatalf("err = %v, want derived-predicate rejection", err)
	}
}

// TestSolveMorePartyGuests: count is monotone, so new acquaintances can
// arrive incrementally.
func TestSolveMorePartyGuests(t *testing.T) {
	en := mustEngine(t, programs.Party, Options{})
	base, _, err := en.Solve(func() *relation.DB {
		db := relation.NewDB(en.Schemas)
		db.Rel("requires/2").InsertJoin([]val.T{val.Symbol("x")}, val.Number(1))
		db.Rel("requires/2").InsertJoin([]val.T{val.Symbol("y")}, val.Number(0))
		return db
	}())
	if err != nil {
		t.Fatal(err)
	}
	if hasTuple(base, "coming", "x") {
		t.Fatal("x knows nobody yet")
	}
	add := relation.NewDB(en.Schemas)
	add.Rel("knows/2").InsertJoin([]val.T{val.Symbol("x"), val.Symbol("y")}, val.T{})
	inc, _, err := en.SolveMore(context.Background(), base, add, Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasTuple(inc, "coming", "x") {
		t.Fatal("meeting y gets x over the threshold")
	}
}

// negThroughDerived reads r under negation, and r is computed from the
// EDB predicate e: a fact for e can shrink p through r.
const negThroughDerived = `
r(X) :- e(X).
p(X) :- d(X), not r(X).
`

// TestSolveMoreNegationThroughDerived: SolveMore must refuse facts whose
// effect reaches a negation through derived predicates — accepting e(a)
// kept p(a), which a one-shot solve of the same facts does not derive —
// and the refusal names the dependency path and the reading rule.
func TestSolveMoreNegationThroughDerived(t *testing.T) {
	en := mustEngine(t, negThroughDerived, Options{})
	base, _, err := en.Solve(factsDB(t, en, "d(a). d(b). e(b)."))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = en.SolveMore(context.Background(), base, factsDB(t, en, "e(a)."), Stats{})
	if err == nil {
		t.Fatal("SolveMore accepted a fact that reaches a negation through r/1")
	}
	for _, want := range []string{"cannot add facts for e/1", "not r(X)", "under negation", "r/1 → e/1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to mention %q", err, want)
		}
	}
}

// TestSolveMoreRefusesOrMatchesOneShot walks every EDB predicate of the
// internal/programs examples (and of negThroughDerived): SolveMore with
// new facts for it is either refused — exactly for the predicates in
// refuse — or equals both a one-shot Solve of the union and the T_P
// fixpoint over it.
func TestSolveMoreRefusesOrMatchesOneShot(t *testing.T) {
	cases := []struct {
		name, src, edb string
		more           map[ast.PredKey]string // new facts, per EDB predicate
		refuse         []ast.PredKey
	}{
		{name: "shortestpath", src: programs.ShortestPath,
			edb:  "arc(a, b, 1). arc(b, c, 2).",
			more: map[ast.PredKey]string{"arc/3": "arc(c, a, 1). arc(a, c, 9)."}},
		{name: "companycontrol", src: programs.CompanyControl,
			edb:  "s(a, b, 0.6). s(a, c, 0.3).",
			more: map[ast.PredKey]string{"s/3": "s(b, c, 0.3)."}},
		{name: "companycontrolfused", src: programs.CompanyControlFused,
			edb:  "s(a, b, 0.6). s(a, c, 0.3).",
			more: map[ast.PredKey]string{"s/3": "s(b, c, 0.3)."}},
		{name: "party", src: programs.Party,
			edb:  "requires(ann, 0). requires(bob, 1). requires(cal, 2). knows(bob, ann). knows(cal, ann).",
			more: map[ast.PredKey]string{"requires/2": "requires(dee, 0).", "knows/2": "knows(cal, bob)."}},
		// t has a default value, so input and gate only raise the element
		// values the pseudo-monotone and aggregates; connect changes the
		// multisets themselves.
		{name: "circuit", src: programs.Circuit,
			edb: "input(w2, 0). gate(g1, and). connect(g1, w1). connect(g1, w2). gate(g2, or). connect(g2, w1). connect(g2, g1).",
			more: map[ast.PredKey]string{"input/2": "input(w1, 1).", "gate/2": "gate(g3, or).",
				"connect/2": "connect(g2, w2)."},
			refuse: []ast.PredKey{"connect/2"}},
		{name: "halfsum", src: programs.Halfsum},
		{name: "averages", src: programs.Averages,
			edb:    "record(john, math, 80). record(mary, math, 90). courses(math).",
			more:   map[ast.PredKey]string{"record/3": "record(john, art, 70).", "courses/1": "courses(art)."},
			refuse: []ast.PredKey{"record/3"}},
		{name: "negthroughderived", src: negThroughDerived,
			edb:    "d(a). d(b). e(b).",
			more:   map[ast.PredKey]string{"e/1": "e(a).", "d/1": "d(c)."},
			refuse: []ast.PredKey{"e/1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			en := mustEngine(t, tc.src, Options{})
			for ci, c := range en.comps {
				if len(en.plans[ci]) > 0 {
					continue
				}
				for _, k := range c.Preds {
					if _, ok := tc.more[k]; !ok {
						t.Fatalf("no new facts for EDB predicate %s", k)
					}
				}
			}
			base, _, err := en.Solve(factsDB(t, en, tc.edb))
			if err != nil {
				t.Fatal(err)
			}
			for k, more := range tc.more {
				inc, _, err := en.SolveMore(context.Background(), base, factsDB(t, en, more), Stats{})
				if slices.Contains(tc.refuse, k) {
					if err == nil || !strings.Contains(err.Error(), "cannot add facts for "+string(k)) {
						t.Fatalf("%s: err = %v, want a refusal", k, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				union := factsDB(t, en, tc.edb+" "+more)
				full, _, err := en.Solve(union)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualEps(inc, full, 0) {
					t.Fatalf("%s: SolveMore differs from the one-shot solve:\n%s\nwant:\n%s", k, inc, full)
				}
				if want := tpLeastFixpoint(t, en, union, 0); !EqualEps(inc, want, 0) {
					t.Fatalf("%s: SolveMore differs from the T_P fixpoint:\n%s\nwant:\n%s", k, inc, want)
				}
			}
		})
	}
}

// TestSolveMoreCopiesOnlyDispatched: SolveMore leaves prev byte-identical,
// and copies only what it writes — the added EDB predicate and the
// components the walk dispatches. A component whose seed is empty keeps
// prev's relation itself, as does an untouched EDB predicate.
func TestSolveMoreCopiesOnlyDispatched(t *testing.T) {
	en := mustEngine(t, programs.ShortestPath+"\nq(X) :- r(X).\n", Options{})
	prev, _, err := en.Solve(factsDB(t, en, "arc(a, b, 1). arc(b, c, 2). r(a)."))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(db *relation.DB) []byte { return snapshot.Encode(&snapshot.Snapshot{DB: db}) }
	before := encode(prev)
	inc, _, err := en.SolveMore(context.Background(), prev, factsDB(t, en, "arc(c, a, 1)."), Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(prev), before) {
		t.Fatal("SolveMore changed the model it extends")
	}
	for _, k := range []ast.PredKey{"q/1", "r/1"} {
		if inc.Rel(k) != prev.Rel(k) {
			t.Fatalf("%s was copied, though nothing it reads changed", k)
		}
	}
	for _, k := range []ast.PredKey{"arc/3", "path/4", "s/3"} {
		if inc.Rel(k) == prev.Rel(k) {
			t.Fatalf("%s is shared with prev, though SolveMore wrote it", k)
		}
	}

	// inc took prev's storage over. On a ring large enough to span
	// several chunks: a chained successor extends that storage in place,
	// SolveMore from prev again forks it, and a successor that breaches
	// its derivation budget takes a tip over and fails. After each, prev
	// reads the same bytes, and SolveMore from it equals a one-shot solve.
	ring := "r(a)."
	for i := 0; i < 40; i++ {
		ring += fmt.Sprintf(" arc(v%d, v%d, %d).", i, (i+1)%40, 1+i%3)
	}
	oneShot := func(facts string) []byte {
		t.Helper()
		m, _, err := en.Solve(factsDB(t, en, facts))
		if err != nil {
			t.Fatal(err)
		}
		return encode(m)
	}
	more := func(what string, m *relation.DB, facts string) *relation.DB {
		t.Helper()
		next, _, err := en.SolveMore(context.Background(), m, factsDB(t, en, facts), Stats{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return next
	}
	prev, _, err = en.Solve(factsDB(t, en, ring))
	if err != nil {
		t.Fatal(err)
	}
	before = encode(prev)
	chord, shortcut, detour := " arc(v3, v30, 1).", " arc(v10, v5, 1).", " arc(v20, w, 2). arc(w, v2, 1)."
	check := func(what string) {
		t.Helper()
		if !bytes.Equal(encode(prev), before) {
			t.Fatalf("%s: prev's bytes changed", what)
		}
		if !bytes.Equal(encode(more(what, prev, shortcut)), oneShot(ring+shortcut)) {
			t.Fatalf("%s: SolveMore from prev differs from the one-shot solve", what)
		}
	}
	inc = more("successor", prev, chord)
	incBytes := encode(inc)
	chained := more("chained successor", inc, detour)
	if !bytes.Equal(encode(inc), incBytes) || !bytes.Equal(encode(chained), oneShot(ring+chord+detour)) {
		t.Fatal("a chained successor changed its predecessor or differs from the one-shot solve")
	}
	check("after a chained successor")
	fork := more("fork", prev, detour)
	if !bytes.Equal(encode(fork), oneShot(ring+detour)) {
		t.Fatal("a fork differs from the one-shot solve")
	}
	check("after a fork")
	forkBytes := encode(fork)
	en.opts.Limits.MaxFacts = 5
	_, _, err = en.SolveMore(context.Background(), fork, factsDB(t, en, chord), Stats{})
	en.opts.Limits.MaxFacts = 0
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("the budgeted successor returned %v, want a budget breach", err)
	}
	if !bytes.Equal(encode(fork), forkBytes) || !bytes.Equal(encode(more("retry", fork, chord)), oneShot(ring+detour+chord)) {
		t.Fatal("a failed successor changed its predecessor, or a retry from it differs from the one-shot solve")
	}
	check("after a failed successor")
}

// TestSolveMoreProbesFollowDelta: an incremental solve's work follows its
// Δ, not the model it extends. The same two-arc batch — one arc between
// two fresh nodes, one from the DAG's second layer to its third — goes
// into Example 2.6 solved over a layered DAG of 96 and of 384 nodes.
// Each seeded pass runs the driver order of the scan its seed rows feed,
// so path's arc Δ reads its two rows and probes s by Z instead of
// scanning every s row and walking the Δ per row: the SolveMore's index
// probes stay within a small factor of what it derived plus its seed, at
// both sizes. (On the canonical order the same batches probed 3,498 and
// 24,073 rows for 33 and 51 derivations.)
func TestSolveMoreProbesFollowDelta(t *testing.T) {
	for _, n := range []int{96, 384} {
		en := mustEngine(t, programs.ShortestPath+gen.GraphFacts(gen.Graph(gen.LayeredDAG, n, 4*n, 9, 1)), Options{})
		m, cold, err := en.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		batch := arcDB(en, [][3]any{{"fresh0", "fresh1", 3}, {fmt.Sprintf("v%d", n/4+1), fmt.Sprintf("v%d", n/2+1), 1}})
		_, st, err := en.SolveMore(context.Background(), m, batch, Stats{})
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(batch.Rel("arc/3").Len())
		if st.Derived == 0 {
			t.Fatalf("n=%d: the batch derived nothing", n)
		}
		if limit := 4 * (st.Derived + seed); st.Probes > limit {
			t.Errorf("n=%d: SolveMore probed %d rows for %d derivations from %d seed rows, want at most %d (the cold solve probed %d)",
				n, st.Probes, st.Derived, seed, limit, cold.Probes)
		}
	}
}
