package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

// The engine's correctness oracle is the paper's definition itself:
// iterate the immediate-consequence operator T_P (Definition 3.7,
// Engine.TP, computed by the tuple-at-a-time reference interpreter)
// component by component from the EDB until nothing changes, and the
// result is the least model Solve must return — at whatever worker count
// the component walk ran, fresh or as an incremental SolveMore
// continuation.

// withProcs sets GOMAXPROCS — and with it the component walk's worker
// count — to n for the rest of the test, restoring it when the test ends.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// oracleCases pairs each example of internal/programs with the inputs
// the example tests above use. edb is the first batch of facts; more, when
// non-empty, is a second batch restricted to predicates SolveMore
// accepts (used monotonically and not defined by rules). eps is the
// convergence tolerance an ω-limit program needs.
// programs.TwoMinimalModels is left out: it is not admissible, so it has
// no least fixpoint to compare against.
var oracleCases = []struct {
	name, src, edb, more string
	eps                  float64
}{
	{name: "shortestpath/cycle", src: programs.ShortestPath,
		edb:  "arc(a, b, 1). arc(b, c, 1). arc(c, a, 1).",
		more: "arc(c, d, 1). arc(a, d, 9)."},
	{name: "shortestpath/diamond", src: programs.ShortestPath,
		edb:  "arc(a, b, 1). arc(a, c, 4). arc(b, d, 2).",
		more: "arc(c, d, 1). arc(a, d, 9)."},
	{name: "companycontrol/chain", src: programs.CompanyControl,
		edb:  "s(a, b, 0.6). s(a, c, 0.3).",
		more: "s(b, c, 0.3)."},
	{name: "companycontrol/vangelder", src: programs.CompanyControl,
		edb:  "s(a, b, 0.3). s(a, c, 0.3). s(b, c, 0.6).",
		more: "s(c, b, 0.6)."},
	{name: "companycontrolfused", src: programs.CompanyControlFused,
		edb:  "s(a, b, 0.6). s(a, c, 0.3).",
		more: "s(b, c, 0.3)."},
	{name: "party", src: programs.Party,
		edb: "requires(ann, 0). requires(bob, 1). requires(cal, 2). requires(dee, 1). " +
			"knows(bob, ann). knows(cal, ann). knows(dee, cal).",
		more: "knows(cal, bob). knows(ann, dee)."},
	{name: "circuit", src: programs.Circuit,
		edb: "input(w2, 0). gate(g1, and). connect(g1, w1). connect(g1, w2). " +
			"gate(g2, or). connect(g2, w1). connect(g2, g1).",
		more: "input(w1, 1)."},
	{name: "halfsum", src: programs.Halfsum, eps: 1e-9},
	{name: "averages", src: programs.Averages,
		edb: "record(john, math, 80). record(john, physics, 60). record(mary, math, 90). " +
			"courses(math). courses(physics).",
		more: "courses(art)."},
}

// factsDB parses ground facts into an EDB over the engine's schemas.
func factsDB(t *testing.T, en *Engine, text string) *relation.DB {
	t.Helper()
	db := relation.NewDB(en.Schemas)
	prog, err := parser.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Facts {
		for i := 0; i < f.Len(); i++ {
			args, cost, err := f.Value(i, en.Schemas.Info(f.Key))
			if err != nil {
				t.Fatal(err)
			}
			db.Rel(f.Key).InsertJoin(args, cost)
		}
	}
	return db
}

// tpLeastFixpoint iterates J ← J ⊔ T_P(J, I) per component, bottom-up,
// until the interpretation stops changing (within eps).
func tpLeastFixpoint(t *testing.T, en *Engine, edb *relation.DB, eps float64) *relation.DB {
	t.Helper()
	db := relation.NewDB(en.Schemas)
	db.Join(edb)
	for ci := 0; ci < en.ComponentCount(); ci++ {
		for round := 0; ; round++ {
			if round > 10000 {
				t.Fatalf("T_P iteration on component %v does not converge", en.ComponentPreds(ci))
			}
			out, err := en.TP(db, ci)
			if err != nil {
				t.Fatal(err)
			}
			next := db.Clone()
			next.Join(out)
			if EqualEps(next, db, eps) {
				break
			}
			db = next
		}
	}
	return db
}

// explainAll explains every tuple of db and renders the explanations.
// It checks each against db: every positive atom support is in db at
// the shown cost, every negated one is absent, a recursive tuple's
// supports from its own component come from earlier stages, and every
// tuple is explained unless it is in edb, a program fact, or a limit no
// finite chain of stages reaches (stage 0).
func explainAll(t *testing.T, en *Engine, db, edb *relation.DB) string {
	t.Helper()
	var b strings.Builder
	pv := en.Provenance(db)
	for _, k := range db.Preds() {
		for _, row := range db.Rel(k).Rows() {
			d, ok := pv.Explain(k.Name(), row.Args)
			fmt.Fprintf(&b, "%s%v ok=%v", k, row.Args, ok)
			hci, hstage := stageOf(pv, k, row.Args)
			if !ok {
				b.WriteString("\n")
				if _, given := edb.Rel(k).Get(row.Args); !given && !isProgramFact(en, k, row.Args) && (hci < 0 || hstage != 0) {
					t.Fatalf("derived tuple %s%v is unexplained", k, row.Args)
				}
				continue
			}
			fmt.Fprintf(&b, " [%s]", d.Rule)
			for _, s := range d.Supports {
				fmt.Fprintf(&b, " %s;", s)
				if s.Pred != "" && !supportHolds(db, s) {
					t.Fatalf("explanation of %s%v: support %s does not hold in the model", k, row.Args, s)
				}
				if s.Pred == "" || s.Neg {
					continue
				}
				sk := ast.MakePredKey(s.Pred, len(s.Args)+map[bool]int{false: 0, true: 1}[s.HasCost])
				if sci, sstage := stageOf(pv, sk, s.Args); hci >= 0 && sci == hci && (sstage <= 0 || sstage >= hstage) {
					t.Fatalf("explanation of %s%v (stage %d): support %s is from stage %d", k, row.Args, hstage, s, sstage)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// stageOf returns the recursive component defining k and the stage of
// k's tuple args there, or -1 when k's component is not recursive.
// Only a stored tuple has a stage; an absent default-value tuple counts
// as stage 1, for the interpreter reads it whatever the stage.
func stageOf(pv *Provenance, k ast.PredKey, args []val.T) (int, int32) {
	for ci, ps := range pv.en.plans {
		for _, p := range ps {
			if p.head.Pred != k || !pv.en.compRecursive[ci] {
				continue
			}
			if pv.db.Has(k) {
				if id := pv.db.Rel(k).ID(args); id >= 0 {
					return ci, pv.stagesOf(ci)[k][id]
				}
			}
			return ci, 1 // an absent default-value tuple: always visible
		}
	}
	return -1, 0
}

// supportHolds reports whether an atom support agrees with db: a
// positive atom is present at the shown cost (a default-value atom may
// be absent at its default), a negated one is not.
func supportHolds(db *relation.DB, s Support) bool {
	present := false
	for arity := len(s.Args); arity <= len(s.Args)+1; arity++ {
		pi := db.Schemas.Info(ast.MakePredKey(s.Pred, arity))
		if pi == nil || pi.NonCost() != len(s.Args) || pi.HasCost != s.HasCost {
			continue
		}
		row, ok := relation.New(pi).GetOrDefault(s.Args)
		if db.Has(pi.Key) {
			row, ok = db.Rel(pi.Key).GetOrDefault(s.Args)
		}
		present = ok && (!s.HasCost || lattice.Eq(pi.L, row.Cost, s.Cost))
	}
	return present != s.Neg
}

// isProgramFact reports whether the program text states the tuple as a
// fact: in the base EDB, or a fact rule of a rule-defined predicate.
func isProgramFact(en *Engine, k ast.PredKey, args []val.T) bool {
	if en.base.Has(k) {
		if _, ok := en.base.Rel(k).Get(args); ok {
			return true
		}
	}
	for _, ps := range en.plans {
		for _, p := range ps {
			if p.head.Pred == k && p.rule.IsFact() && bindHead(&p.head, args, newEnv(p.nvars)) {
				return true
			}
		}
	}
	return false
}

func TestSolveEqualsTPFixpoint(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			var seq Stats // the one-worker totals, which every worker count must reproduce
			for _, par := range []int{1, 2} {
				withProcs(t, par)
				en := mustEngine(t, tc.src, Options{Epsilon: tc.eps})
				edb, more := factsDB(t, en, tc.edb), factsDB(t, en, tc.more)
				all := edb.Clone()
				all.Join(more)
				want := tpLeastFixpoint(t, en, all, tc.eps)
				// The comparison tolerance is looser than the convergence
				// tolerance: the two iterations stop at different points
				// of the same ω-chain.
				check := func(how string, got *relation.DB) {
					t.Helper()
					if !EqualEps(got, want, tc.eps*1e3) {
						t.Fatalf("GOMAXPROCS %d: %s model differs from the T_P fixpoint:\n%s\nwant:\n%s", par, how, got, want)
					}
					if tc.eps > 0 {
						return // an ε-converged interpretation is not an exact model
					}
					if ok, err := en.IsModel(got); err != nil || !ok {
						t.Fatalf("GOMAXPROCS %d: %s model is not a model (Definition 3.5): %v %v", par, how, ok, err)
					}
				}
				fresh, st, err := en.Solve(all)
				if err != nil {
					t.Fatal(err)
				}
				check("fresh", fresh)
				explained := explainAll(t, en, fresh, all)
				st.Rules, st.Comps, st.RoundLog = nil, nil, nil
				if par == 1 {
					seq = st
				} else if fmt.Sprint(st) != fmt.Sprint(seq) {
					t.Fatalf("GOMAXPROCS %d: stats totals %+v, want the one-worker %+v", par, st, seq)
				}
				if tc.more == "" {
					continue
				}
				first, _, err := en.Solve(edb)
				if err != nil {
					t.Fatal(err)
				}
				split, _, err := en.SolveMore(first, more)
				if err != nil {
					t.Fatal(err)
				}
				check("Solve+SolveMore", split)
				// Provenance is a function of the model: the split model
				// explains byte for byte as the fresh one does.
				if got := explainAll(t, en, split, all); got != explained {
					t.Fatalf("GOMAXPROCS %d: Solve+SolveMore explanations differ:\n%s\nwant:\n%s", par, got, explained)
				}
			}
		})
	}
}

// TestTextFactsEqualTPFixpoint is the same oracle with the first batch of
// facts written into the program text, where they are the engine's base
// EDB rather than rules: they are still the empty-body rules of T_P, so
// iterating Engine.TP from the empty interpretation must reproduce the
// model — fresh, continued by SolveMore, and killed at a round boundary
// and resumed from the last checkpoint — and that model must be the one
// the engine computes when handed the same facts as an EDB argument.
func TestTextFactsEqualTPFixpoint(t *testing.T) {
	for _, tc := range oracleCases {
		if tc.edb == "" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 2} {
				withProcs(t, par)
				opts := Options{Epsilon: tc.eps}
				en := mustEngine(t, tc.src+tc.edb, opts)
				plain := mustEngine(t, tc.src, opts)
				if got, want := len(en.plans), len(plain.plans); got != want {
					t.Fatalf("text facts changed the component count: %d, want %d", got, want)
				}
				if en.nrules != plain.nrules {
					t.Fatalf("text facts were compiled: %d plans, want %d", en.nrules, plain.nrules)
				}
				want := tpLeastFixpoint(t, en, relation.NewDB(en.Schemas), tc.eps)
				fromArgs, argStats, err := plain.Solve(factsDB(t, plain, tc.edb))
				if err != nil {
					t.Fatal(err)
				}
				if !EqualEps(fromArgs, want, tc.eps*1e3) {
					t.Fatalf("GOMAXPROCS %d: T_P from ∅ over text facts differs from Solve(facts):\n%s\nwant:\n%s", par, want, fromArgs)
				}

				sink := &captureSink{}
				lim := Limits{Checkpoint: sink.fn(), CheckpointEvery: 1}
				fresh, st, err := en.SolveLimits(context.Background(), nil, lim)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualEps(fresh, want, tc.eps*1e3) {
					t.Fatalf("GOMAXPROCS %d: fresh model differs from the T_P fixpoint:\n%s\nwant:\n%s", par, fresh, want)
				}
				// One ingest path, one Stats contract: rule work only.
				if !sameTotals(st, argStats) {
					t.Fatalf("GOMAXPROCS %d: stats %+v with text facts, %+v with the same facts as arguments", par, st, argStats)
				}
				if first := sink.dbs[0]; !en.base.Leq(first, nil) {
					t.Fatalf("GOMAXPROCS %d: the first checkpoint lacks the program's facts", par)
				}

				// Kill at a round boundary, resume from the last checkpoint.
				sink = &captureSink{}
				lim.Checkpoint = sink.fn()
				faults.Arm(faults.Fault{Point: faults.CoreRound, After: 1, Panic: true})
				_, _, err = en.SolveLimits(context.Background(), nil, lim)
				faults.Reset()
				if !errors.Is(err, ErrInternal) {
					t.Fatalf("GOMAXPROCS %d: injected crash: err = %v, want ErrInternal", par, err)
				}
				last := len(sink.dbs) - 1
				resumed, _, err := en.Resume(context.Background(), sink.dbs[last], Limits{}, sink.stats[last])
				if err != nil {
					t.Fatal(err)
				}
				if !EqualEps(resumed, want, tc.eps*1e3) {
					t.Fatalf("GOMAXPROCS %d: resumed model differs from the T_P fixpoint:\n%s\nwant:\n%s", par, resumed, want)
				}
				none := relation.NewDB(en.Schemas)
				if got, ref := explainAll(t, en, resumed, none), explainAll(t, en, fresh, none); got != ref {
					t.Fatalf("GOMAXPROCS %d: resumed explanations differ:\n%s\nwant:\n%s", par, got, ref)
				}

				if tc.more == "" {
					continue
				}
				all := mustEngine(t, tc.src+tc.edb+"\n"+tc.more, opts)
				wantAll := tpLeastFixpoint(t, all, relation.NewDB(all.Schemas), tc.eps)
				split, _, err := en.SolveMore(fresh, factsDB(t, en, tc.more))
				if err != nil {
					t.Fatal(err)
				}
				if !EqualEps(split, wantAll, tc.eps*1e3) {
					t.Fatalf("GOMAXPROCS %d: Solve+SolveMore differs from the T_P fixpoint over all facts:\n%s\nwant:\n%s", par, split, wantAll)
				}
				if tc.eps == 0 {
					if ok, err := all.IsModel(split); err != nil || !ok {
						t.Fatalf("GOMAXPROCS %d: Solve+SolveMore model is not a model of the full text: %v %v", par, ok, err)
					}
				}
			}
		})
	}
}

// TestPipelineMatchesInterpreter: the pipelines and the reference
// interpreter read the same compiled steps, so over one model a full
// pass of each plan's canonical pipeline and evaluator.run emit the same
// head tuples in the same order — join order, γ conjunction orders and
// group order included.
func TestPipelineMatchesInterpreter(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			en := mustEngine(t, tc.src, Options{Epsilon: tc.eps})
			edb := factsDB(t, en, tc.edb)
			edb.Join(factsDB(t, en, tc.more))
			db, _, err := en.Solve(edb)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, ps := range en.plans {
				for _, p := range ps {
					var pipe, ref []string
					head := func(out *[]string, vals []val.T) error {
						args, cost, err := headTuple(p, vals)
						*out = append(*out, fmt.Sprint(args, cost))
						return err
					}
					if err := (&evaluator{db: db}).run(p, func(e *env) error { return head(&ref, e.vals) }); err != nil {
						t.Fatal(err)
					}
					m := p.pipe.stream.Acquire(exec.Config{DB: db})
					err := m.Run(func(m *exec.Machine) error { return head(&pipe, m.Vals) })
					p.pipe.stream.Release(m)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := strings.Join(pipe, "\n"), strings.Join(ref, "\n"); got != want {
						t.Fatalf("rule %s: the pipeline emits\n%s\nthe interpreter\n%s", p.text, got, want)
					}
					total += len(ref)
				}
			}
			if total == 0 {
				t.Fatal("no rule fired over the model")
			}
		})
	}
}
