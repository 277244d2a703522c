package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/relation"
)

// folded reports whether p's γ step runs as a Δ-fold (a folded plan's
// body is that one step).
func folded(p *plan) bool {
	return len(p.steps) == 1 && p.steps[0].Kind == exec.AggKind && p.steps[0].Agg.Fold
}

// noDeltaFold clears every plan's Δ-fold flag: en's γ steps then
// re-enumerate each changed group in their Δ passes, as before the fold.
func noDeltaFold(en *Engine) {
	for _, ps := range en.plans {
		for _, p := range ps {
			if folded(p) {
				p.steps[0].Agg.Fold = false
			}
		}
	}
}

// foldPlans counts en's plans whose γ runs as a Δ-fold.
func foldPlans(en *Engine) int {
	n := 0
	for _, ps := range en.plans {
		for _, p := range ps {
			if folded(p) {
				n++
			}
		}
	}
	return n
}

// longestPathProg is Example 2.6's max analogue: longest paths over
// maxreal, finite on a DAG.
const longestPathProg = `
.cost arc/3 : maxreal.
.cost path/4 : maxreal.
.cost l/3 : maxreal.
.ic :- arc(direct, Z, C).
path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- l(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
l(X, Y, C)            :- C ?= max D : path(X, Z, Y, D).
`

// foldRun is what one solve shows, minus what the Δ-fold may change:
// every relation's rows in id order with their costs, and the Stats
// with probes, wall-clock times and the Δ counter of every γ operator
// zeroed.
func foldRun(en *Engine, db *relation.DB, st Stats) (string, Stats) {
	var b strings.Builder
	preds := db.Preds()
	for _, k := range preds {
		rel := db.Rel(k)
		fmt.Fprintf(&b, "%s:\n", k)
		for i := 0; i < rel.Len(); i++ {
			row := rel.At(i)
			fmt.Fprintf(&b, "  %v %#v\n", row.Args, row.Cost)
		}
	}
	st = st.Clone()
	st.Probes = 0
	for i := range st.Rules {
		st.Rules[i].Probes, st.Rules[i].Nanos = 0, 0
	}
	for _, ps := range en.plans {
		for _, p := range ps {
			for si := range p.steps {
				if p.steps[si].Kind == exec.AggKind && len(st.Rules) > p.idx {
					op := &st.Rules[p.idx].Ops[si]
					op.Probes, op.Delta = 0, 0
				}
			}
		}
	}
	for i := range st.Comps {
		st.Comps[i].Probes, st.Comps[i].Nanos = 0, 0
	}
	for i := range st.RoundLog {
		st.RoundLog[i].Probes, st.RoundLog[i].Start, st.RoundLog[i].Nanos = 0, 0, 0
	}
	return b.String(), st
}

// foldDelta sums the Δ counters of en's folded γ operators in st: zero
// unless some Δ pass ran as a fold.
func foldDelta(en *Engine, st Stats) int64 {
	var n int64
	for _, ps := range en.plans {
		for _, p := range ps {
			if folded(p) && len(st.Rules) > p.idx {
				n += st.Rules[p.idx].Ops[0].Delta
			}
		}
	}
	return n
}

// checkSameRun fails t unless the folded and regrouping solves show the
// same rows, fact order and masked Stats.
func checkSameRun(t *testing.T, what string, fold, regroup *Engine, fdb, rdb *relation.DB, fst, rst Stats) {
	t.Helper()
	frows, fs := foldRun(fold, fdb, fst)
	rrows, rs := foldRun(regroup, rdb, rst)
	if frows != rrows {
		t.Fatalf("%s: the Δ-fold's model differs:\n%s\nre-enumerating γ:\n%s", what, frows, rrows)
	}
	if f, r := fmt.Sprintf("%+v", fs), fmt.Sprintf("%+v", rs); f != r {
		t.Fatalf("%s: the Δ-fold's Stats differ:\n%s\nre-enumerating γ:\n%s", what, f, r)
	}
}

// foldPair compiles src twice: as New compiles it, with at least one
// folded plan, and with the fold cleared.
func foldPair(t *testing.T, src string, opts Options) (fold, regroup *Engine) {
	t.Helper()
	fold, regroup = mustEngine(t, src, opts), mustEngine(t, src, opts)
	if foldPlans(fold) == 0 {
		t.Fatalf("no plan of the program compiles to a Δ-fold:\n%s", src)
	}
	noDeltaFold(regroup)
	return fold, regroup
}

// solveBoth solves src both ways and checks the runs agree; the fold must
// have run.
func solveBoth(t *testing.T, what, src string, opts Options) {
	t.Helper()
	fold, regroup := foldPair(t, src, opts)
	fdb, fst, ferr := fold.Solve(nil)
	rdb, rst, rerr := regroup.Solve(nil)
	if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
		t.Fatalf("%s: errors differ: %v, re-enumerating γ: %v", what, ferr, rerr)
	}
	checkSameRun(t, what, fold, regroup, fdb, rdb, fst, rst)
	if foldDelta(fold, fst) == 0 {
		t.Fatalf("%s: no Δ pass ran as a fold", what)
	}
}

// fractionalFacts renders g's arcs with weight w/7 instead of w.
func fractionalFacts(g string) string {
	var b strings.Builder
	for _, l := range strings.Split(g, "\n") {
		if i := strings.LastIndex(l, ", "); i >= 0 && strings.HasPrefix(l, "arc(") {
			w, err := strconv.Atoi(strings.TrimSuffix(l[i+2:], ")."))
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "%s, %s).\n", l[:i], strconv.FormatFloat(float64(w)/7, 'g', -1, 64))
			continue
		}
		b.WriteString(l + "\n")
	}
	return b.String()
}

// multiSCCProg is k independent copies of Example 2.6, each over its own
// cycle graph: k components the walk's workers run concurrently.
func multiSCCProg(k, nodes, edges int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, ".cost arc%d/3 : minreal.\n.cost path%d/4 : minreal.\n.cost s%d/3 : minreal.\n", i, i, i)
		fmt.Fprintf(&b, ".ic :- arc%d(direct, Z, C).\n", i)
		fmt.Fprintf(&b, "path%d(X, direct, Y, C) :- arc%d(X, Y, C).\n", i, i)
		fmt.Fprintf(&b, "path%d(X, Z, Y, C) :- s%d(X, Z, C1), arc%d(Z, Y, C2), C = C1 + C2.\n", i, i, i)
		fmt.Fprintf(&b, "s%d(X, Y, C) :- C ?= min D : path%d(X, Z, Y, D).\n", i, i)
		g := gen.GraphFacts(gen.Graph(gen.CycleGraph, nodes, edges, 9, int64(i+1)))
		b.WriteString(strings.ReplaceAll(g, "arc(", fmt.Sprintf("arc%d(", i)))
	}
	return b.String()
}

// TestDeltaFoldMatchesRegroup: a γ step running its Δ passes as a Δ-fold
// (exec's deltaGroups) computes exactly what re-enumerating every changed
// group computes. Each case runs with the fold and with every plan's fold
// flag cleared, and requires the same model rows in the same order and
// the same Stats and RoundLog, with probes and the γ operators' Δ
// counters masked: Example 2.6 over layered DAGs, cycle and random graphs
// at three seeds; its max analogue (longest paths on a DAG); arcs of
// weight −0 and 0 reaching one pair at equal cost; Epsilon > 0 with
// fractional weights; a SolveMore chain over a random partition of the
// arcs; and the multi-component source at GOMAXPROCS 1 and 2.
func TestDeltaFoldMatchesRegroup(t *testing.T) {
	kinds := []struct {
		name string
		kind gen.GraphKind
	}{{"dag", gen.LayeredDAG}, {"cycle", gen.CycleGraph}, {"random", gen.RandomGraph}}
	for _, k := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			what := fmt.Sprintf("ex2.6/%s/seed=%d", k.name, seed)
			solveBoth(t, what, programs.ShortestPath+gen.GraphFacts(gen.Graph(k.kind, 32, 96, 9, seed)), Options{})
		}
	}

	t.Run("max", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			solveBoth(t, fmt.Sprintf("longest/seed=%d", seed),
				longestPathProg+gen.GraphFacts(gen.Graph(gen.LayeredDAG, 32, 96, 9, seed)), Options{})
		}
	})

	t.Run("signed-zero", func(t *testing.T) {
		solveBoth(t, "±0", programs.ShortestPath+`
arc(a, b, -0). arc(a, c, 0). arc(c, b, 0). arc(b, d, 0). arc(c, d, -0).
arc(d, a, 1). arc(a, e, 2). arc(e, b, -2).
`, Options{})
	})

	t.Run("epsilon", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			facts := fractionalFacts(gen.GraphFacts(gen.Graph(gen.CycleGraph, 24, 72, 20, seed)))
			for _, eps := range []float64{0.05, 0.4} {
				solveBoth(t, fmt.Sprintf("eps=%g/seed=%d", eps, seed), programs.ShortestPath+facts, Options{Epsilon: eps})
			}
		}
	})

	t.Run("solve-more-chain", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			fold, regroup := foldPair(t, programs.ShortestPath, Options{})
			arcs := gen.Graph(gen.RandomGraph, 24, 72, 9, seed)
			all := factsDB(t, fold, gen.GraphFacts(arcs))
			// A random partition of the arcs into four batches.
			r := rand.New(rand.NewSource(seed))
			batches := make([]*relation.DB, 4)
			for i := range batches {
				batches[i] = relation.NewDB(fold.Schemas)
			}
			all.Rel(ast.PredKey("arc/3")).Each(func(row relation.Row) bool {
				batches[r.Intn(len(batches))].Rel("arc/3").InsertJoin(row.Args, row.Cost)
				return true
			})
			fdb, fst, err := fold.Solve(batches[0])
			if err != nil {
				t.Fatal(err)
			}
			rdb, rst, err := regroup.Solve(batches[0])
			if err != nil {
				t.Fatal(err)
			}
			checkSameRun(t, fmt.Sprintf("seed %d batch 0", seed), fold, regroup, fdb, rdb, fst, rst)
			for i, b := range batches[1:] {
				if fdb, fst, err = fold.SolveMore(context.Background(), fdb, b, fst); err != nil {
					t.Fatal(err)
				}
				if rdb, rst, err = regroup.SolveMore(context.Background(), rdb, b, rst); err != nil {
					t.Fatal(err)
				}
				checkSameRun(t, fmt.Sprintf("seed %d batch %d", seed, i+1), fold, regroup, fdb, rdb, fst, rst)
			}
			if foldDelta(fold, fst) == 0 {
				t.Fatalf("seed %d: no Δ pass ran as a fold", seed)
			}
		}
	})

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("multi-scc/procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			solveBoth(t, "multi-scc", multiSCCProg(4, 24, 72), Options{})
		})
	}
}

// TestDeltaFoldQualifies pins which rules compile to a Δ-fold: one
// restricted min/max/or γ over one atom of another predicate whose
// non-cost arguments are distinct variables and whose cost is the
// multiset variable, the lattices matching and the γ result the head's
// cost.
func TestDeltaFoldQualifies(t *testing.T) {
	decl := ".cost p/3 : minreal.\n.cost q/3 : minreal.\n.cost b/2 : boolor.\n.cost c/2 : boolor.\n.cost n/3 : sumreal.\n.cost w/3 : sumreal.\n"
	for _, c := range []struct {
		rule string
		fold bool
	}{
		{"q(X, Y, C) :- C ?= min D : p(X, Y, D).", true},
		{"c(X, C) :- C ?= or D : b(X, D).", true},
		{"q(X, Y, C) :- C ?= min D : p(X, Z, D), Y = X.", false},        // a second subgoal
		{"q(X, X, C) :- C ?= min D : p(X, X, D).", false},               // repeated variable
		{"q(X, a, C) :- C ?= min D : p(X, a, D).", false},               // constant argument
		{"q(X, Y, 1) :- C ?= min D : p(X, Y, D).", false},               // result is not the head's cost
		{"p(X, Y, C) :- C ?= min D : p(X, Y, D).", false},               // the head's own predicate
		{"n(X, Y, C) :- C ?= sum D : w(X, Y, D).", false},               // sum is no join
		{"q(X, Y, C) :- C ?= min D : [p(X, Z, D), p(Z, Y, E)].", false}, // two atoms
	} {
		en := mustEngine(t, decl+c.rule, Options{SkipChecks: true})
		if got := foldPlans(en) == 1; got != c.fold {
			t.Errorf("%s: folds = %v, want %v", c.rule, got, c.fold)
		}
	}
}
