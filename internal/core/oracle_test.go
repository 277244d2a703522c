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
// computed by refTP on the tuple-at-a-time reference interpreter below)
// component by component from the EDB until nothing changes, and the
// result is the least model Solve must return — at whatever worker count
// the component walk ran, fresh or as an incremental SolveMore
// continuation.

// env is a runtime binding of plan variables.
type env struct {
	vals  []val.T
	bound []bool
}

func newEnv(n int) *env {
	return &env{vals: make([]val.T, n), bound: make([]bool, n)}
}

// evaluator is the tuple-at-a-time reference interpreter: a direct
// backtracking reading of rule satisfaction (Definitions 3.4–3.5) over
// the plan's canonical steps. Production runs the same steps as
// streaming pipelines of internal/exec; the interpreter shares nothing
// with them but the compiled steps and BuiltinStep.Eval, which is what
// lets it judge them. It only reads db and the plans — its scratch lives
// on the evaluator.
type evaluator struct {
	db   *relation.DB
	bufs map[*exec.Atom]*atomBuf
}

// atomBuf is one atom's scratch: the Match pattern, bindAtom's
// backtracking list and an instantiated argument tuple (negation and
// default-value lookups). An atom is never re-entered while its own match
// is in progress, so one buffer per atom is enough.
type atomBuf struct {
	pat   []*val.T
	saved []int
	args  []val.T
}

// buf returns sp's scratch, allocating it on first use.
func (ev *evaluator) buf(sp *exec.Atom) *atomBuf {
	b := ev.bufs[sp]
	if b == nil {
		n := len(sp.ArgVar)
		b = &atomBuf{pat: make([]*val.T, n), saved: make([]int, 0, n+1), args: make([]val.T, n)}
		if ev.bufs == nil {
			ev.bufs = map[*exec.Atom]*atomBuf{}
		}
		ev.bufs[sp] = b
	}
	return b
}

// rel returns sp's relation in db without materializing a missing one:
// the evaluator never writes the interpretation it reads.
func (ev *evaluator) rel(sp *exec.Atom) *relation.Relation {
	if ev.db.Has(sp.Pred) {
		return ev.db.Rel(sp.Pred)
	}
	return relation.New(sp.Info)
}

// run enumerates every satisfying assignment of the plan body and calls
// emit with the completed environment.
func (ev *evaluator) run(p *plan, emit func(*env) error) error {
	return ev.step(p.steps, 0, newEnv(p.nvars), emit)
}

func (ev *evaluator) step(steps []exec.Step, i int, e *env, emit func(*env) error) error {
	if i == len(steps) {
		return emit(e)
	}
	s := &steps[i]
	switch s.Kind {
	case exec.ScanKind:
		buf := ev.buf(&s.Atom).saved
		return ev.scan(&s.Atom, e, func(row relation.Row) error {
			saved, ok := bindAtom(&s.Atom, buf, row, e)
			if !ok {
				return nil
			}
			err := ev.step(steps, i+1, e, emit)
			unbind(e, saved)
			return err
		})
	case exec.NegKind:
		ok, err := ev.negSatisfied(&s.Atom, e)
		if err != nil || !ok {
			return err
		}
		return ev.step(steps, i+1, e, emit)
	case exec.BuiltinKind:
		ok, didBind, err := s.Builtin.Eval(e.vals, e.bound)
		if err != nil || !ok {
			return err
		}
		err = ev.step(steps, i+1, e, emit)
		if didBind {
			e.bound[s.Builtin.Assign] = false
		}
		return err
	case exec.AggKind:
		return ev.aggregate(s.Agg, e, func() error { return ev.step(steps, i+1, e, emit) })
	}
	return fmt.Errorf("core: unknown step kind %d", s.Kind)
}

// scan enumerates rows of the atom's relation matching the bound part of
// the environment. Default-value predicates perform a point lookup
// (GetOrDefault); the compiler guarantees their non-cost args are bound.
func (ev *evaluator) scan(sp *exec.Atom, e *env, f func(relation.Row) error) error {
	rel, buf := ev.rel(sp), ev.buf(sp)
	if sp.Info.HasDefault {
		args := buf.args
		for j, v := range sp.ArgVar {
			if v >= 0 {
				args[j] = e.vals[v]
			} else {
				args[j] = sp.ArgVal[j]
			}
		}
		row, ok := rel.Get(args)
		if !ok {
			// Default-value predicates always have a value: the bottom row
			// (§2.3.2).
			row = relation.Row{Args: args, Cost: sp.Info.L.Bottom(), HasCost: true}
		}
		return f(row)
	}
	pattern := buf.pat
	for j, v := range sp.ArgVar {
		switch {
		case v < 0:
			pattern[j] = &sp.ArgVal[j]
		case e.bound[v]:
			pattern[j] = &e.vals[v]
		default:
			pattern[j] = nil
		}
	}
	var ferr error
	rel.Match(pattern, func(row relation.Row) bool {
		if err := f(row); err != nil {
			ferr = err
			return false
		}
		return true
	})
	return ferr
}

// bindAtom unifies a row with the atom spec under e, returning the list
// of variable indices newly bound (for backtracking, built in buf, the
// atom's atomBuf.saved) and whether the row matches.
func bindAtom(sp *exec.Atom, buf []int, row relation.Row, e *env) (saved []int, ok bool) {
	saved = buf[:0]
	for j, v := range sp.ArgVar {
		got := row.Args[j]
		if v < 0 {
			if !val.Equal(sp.ArgVal[j], got) {
				unbind(e, saved)
				return nil, false
			}
			continue
		}
		if e.bound[v] {
			if !val.Equal(e.vals[v], got) {
				unbind(e, saved)
				return nil, false
			}
			continue
		}
		e.vals[v] = got
		e.bound[v] = true
		saved = append(saved, v)
	}
	if sp.Info.HasCost {
		got := row.Cost
		if sp.CostVar < 0 {
			if !lattice.Eq(sp.Info.L, sp.CostVal, got) {
				unbind(e, saved)
				return nil, false
			}
		} else if e.bound[sp.CostVar] {
			if !lattice.Eq(sp.Info.L, e.vals[sp.CostVar], got) {
				unbind(e, saved)
				return nil, false
			}
		} else {
			e.vals[sp.CostVar] = got
			e.bound[sp.CostVar] = true
			saved = append(saved, sp.CostVar)
		}
	}
	return saved, true
}

func unbind(e *env, saved []int) {
	for _, v := range saved {
		e.bound[v] = false
	}
}

// negSatisfied implements Definition 3.4's ¬p: satisfied when the fully
// instantiated atom is absent from the interpretation. For cost
// predicates the atom includes its cost value; the functional dependency
// means presence is a single lookup (default-value predicates always have
// a value — the default — so only an exact cost match refutes ¬p).
func (ev *evaluator) negSatisfied(sp *exec.Atom, e *env) (bool, error) {
	rel, args := ev.rel(sp), ev.buf(sp).args
	for j, v := range sp.ArgVar {
		if v >= 0 {
			if !e.bound[v] {
				return false, fmt.Errorf("core: unbound variable in negation on %s", sp.Pred)
			}
			args[j] = e.vals[v]
		} else {
			args[j] = sp.ArgVal[j]
		}
	}
	row, present := rel.Get(args)
	if !present && sp.Info.HasDefault {
		row = relation.Row{Args: args, Cost: sp.Info.L.Bottom(), HasCost: true}
		present = true
	}
	if !present {
		return true, nil
	}
	if !sp.Info.HasCost {
		return false, nil
	}
	want := sp.CostVal
	if sp.CostVar >= 0 {
		if !e.bound[sp.CostVar] {
			return false, fmt.Errorf("core: unbound cost variable in negation on %s", sp.Pred)
		}
		want = e.vals[sp.CostVar]
	}
	return !lattice.Eq(sp.Info.L, row.Cost, want), nil
}

// aggregate evaluates an aggregate subgoal (Definition 2.4) under the
// current environment and invokes cont for each satisfying extension.
//
// Two execution modes:
//
//   - point mode: every grouping variable is already bound; the multiset
//     of the single group is computed (possibly empty — the total "="
//     form is defined on empty groups, the restricted "?=" form fails).
//   - grouped mode (restricted form only): unbound grouping variables are
//     enumerated by grouping the conjunction's matches, yielding one
//     extension per nonempty group — this is how
//     "s(X,Y,C) :- C ?= min D : path(X,Z,Y,D)" executes.
func (ev *evaluator) aggregate(s *exec.AggStep, e *env, cont func() error) error {
	allBound := true
	for _, v := range s.GroupVars {
		if !e.bound[v] {
			allBound = false
			break
		}
	}
	if !allBound && !s.G.Restricted {
		return fmt.Errorf("core: total aggregate %s with unbound grouping variables", s.G)
	}
	// The conjunction order the compiler fixed for this binding pattern.
	order, err := s.OrderFull, s.OrderFullErr
	if allBound {
		order, err = s.OrderPoint, s.OrderPointErr
	}
	if err != nil {
		return err
	}

	type group struct {
		keyVals []val.T
		elems   []lattice.Elem
	}
	// Groups in first-occurrence order, as the pipelines emit them.
	var keys relation.GroupSet
	keys.Reset(len(s.GroupVars))
	var groups []*group

	element := func() lattice.Elem {
		if s.MsVar >= 0 {
			return e.vals[s.MsVar]
		}
		// Implicit boolean cost: each match contributes one "true".
		return val.Boolean(true)
	}

	// In point mode every match lands in the same group, so the per-match
	// key computation is skipped entirely.
	var pointElems []lattice.Elem
	keyScratch := make([]val.T, len(s.GroupVars))
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i == len(order) {
			if allBound {
				pointElems = append(pointElems, element())
				return nil
			}
			for j, v := range s.GroupVars {
				keyScratch[j] = e.vals[v]
			}
			gi, added := keys.Add(keyScratch)
			if added {
				groups = append(groups, &group{keyVals: keys.At(gi)})
			}
			groups[gi].elems = append(groups[gi].elems, element())
			return nil
		}
		sp := &s.Conj[order[i]]
		buf := ev.buf(sp).saved
		return ev.scan(sp, e, func(row relation.Row) error {
			saved, ok := bindAtom(sp, buf, row, e)
			if !ok {
				return nil
			}
			err := enumerate(i + 1)
			unbind(e, saved)
			return err
		})
	}
	if err := enumerate(0); err != nil {
		return err
	}

	emitGroup := func(g *group) error {
		if s.G.Restricted && len(g.elems) == 0 {
			return nil
		}
		res, ok := s.F.Apply(g.elems)
		if !ok {
			// Undefined aggregate (e.g. avg of the empty multiset in the
			// total form): the ground instance is simply unsatisfied.
			return nil
		}
		var saved []int
		// Bind any unbound grouping variables (grouped mode).
		for j, v := range s.GroupVars {
			if !e.bound[v] {
				e.vals[v] = g.keyVals[j]
				e.bound[v] = true
				saved = append(saved, v)
			}
		}
		if e.bound[s.Result] {
			if !lattice.Eq(s.F.Range(), e.vals[s.Result], res) {
				unbind(e, saved)
				return nil
			}
		} else {
			e.vals[s.Result] = res
			e.bound[s.Result] = true
			saved = append(saved, s.Result)
		}
		err := cont()
		unbind(e, saved)
		return err
	}

	if allBound {
		return emitGroup(&group{elems: pointElems})
	}
	for _, g := range groups {
		if err := emitGroup(g); err != nil {
			return err
		}
	}
	return nil
}

// refTP is Engine.TP computed by the interpreter: one application of T_P
// for component ci over db, the component's program facts included.
func refTP(en *Engine, db *relation.DB, ci int) (*relation.DB, error) {
	out := relation.NewDB(en.Schemas)
	for _, k := range en.comps[ci].Preds {
		if en.base.Has(k) {
			out.Rel(k).Join(en.base.Rel(k))
		}
	}
	ev := &evaluator{db: db}
	for _, p := range en.plans[ci] {
		err := ev.run(p, func(e *env) error {
			args, cost, err := headTuple(p, e.vals)
			if err != nil {
				return err
			}
			return out.Rel(p.head.Pred).InsertStrict(args, cost)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkedTP returns refTP(db, ci) after asserting that Engine.TP, which
// runs the pipelines, computes the same interpretation.
func checkedTP(t testing.TB, en *Engine, db *relation.DB, ci int) (*relation.DB, error) {
	t.Helper()
	want, err := refTP(en, db, ci)
	got, gerr := en.TP(db, ci)
	if fmt.Sprint(gerr) != fmt.Sprint(err) {
		t.Fatalf("component %v: Engine.TP fails with %v, the reference with %v", en.ComponentPreds(ci), gerr, err)
	}
	if err == nil && got.String() != want.String() {
		t.Fatalf("component %v: Engine.TP computes\n%s\nthe reference T_P\n%s", en.ComponentPreds(ci), got, want)
	}
	return want, err
}

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
			out, err := refTP(en, db, ci)
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
// as stage 1, for every generation reads it at its default.
func stageOf(pv *Provenance, k ast.PredKey, args []val.T) (int, int32) {
	for ci, ps := range pv.en.plans {
		for _, p := range ps {
			if p.head.Pred != k || !pv.en.compRecursive[ci] {
				continue
			}
			if pv.db.Has(k) {
				if id := pv.db.Rel(k).ID(args); id >= 0 {
					return ci, pv.stagesOf(ci).of[k][id]
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
			if p.head.Pred == k && p.rule.IsFact() && bindHead(&p.head, args, &exec.Regs{Vals: make([]val.T, p.nvars), Bound: make([]bool, p.nvars)}) {
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
				split, _, err := en.SolveMore(context.Background(), first, more, Stats{})
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
				fresh, st, err := en.Resume(context.Background(), nil, nil, lim, Stats{})
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
				_, _, err = en.Resume(context.Background(), nil, nil, lim, Stats{})
				faults.Reset()
				if !errors.Is(err, ErrInternal) {
					t.Fatalf("GOMAXPROCS %d: injected crash: err = %v, want ErrInternal", par, err)
				}
				last := len(sink.dbs) - 1
				resumed, _, err := en.Resume(context.Background(), sink.dbs[last], nil, Limits{}, sink.stats[last])
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
				split, _, err := en.SolveMore(context.Background(), fresh, factsDB(t, en, tc.more), Stats{})
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

// TestTPMatchesReference: Engine.TP, one naive round of the pipelines,
// computes the reference interpreter's T_P on every component of every
// oracle case, over the empty interpretation, the EDB and the model.
func TestTPMatchesReference(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			en := mustEngine(t, tc.src, Options{Epsilon: tc.eps})
			edb := factsDB(t, en, tc.edb)
			edb.Join(factsDB(t, en, tc.more))
			model, _, err := en.Solve(edb)
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []*relation.DB{relation.NewDB(en.Schemas), edb, model} {
				for ci := 0; ci < en.ComponentCount(); ci++ {
					if _, err := checkedTP(t, en, db, ci); err != nil {
						t.Fatal(err)
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
