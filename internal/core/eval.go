package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// relationRow aliases relation.Row for the inner enumeration loops.
type relationRow = relation.Row

// env is a runtime binding of plan variables.
type env struct {
	vals  []val.T
	bound []bool
	// aggSupports records, per aggregate step index, the contributing
	// ground atoms of the group being emitted (evaluator.supports only).
	aggSupports map[int][]Support
}

func newEnv(n int) *env {
	return &env{vals: make([]val.T, n), bound: make([]bool, n)}
}

// evaluator is the tuple-at-a-time reference interpreter: a direct
// backtracking reading of rule satisfaction (Definitions 3.4–3.5) over
// the plan's canonical steps. Solves never run on it — they run the same
// steps as streaming pipelines of internal/exec — it is the oracle
// behind Engine.TP, IsModel, IsPreModel and GroupStratified that the
// property tests hold the pipelines to, and the re-deriver behind
// Provenance.Explain. It only reads db and the plans — its scratch lives on
// the evaluator — so evaluators may run concurrently over one Engine.
type evaluator struct {
	db *relation.DB
	// supports makes aggregate steps record their contributing atoms into
	// the environment (GroupStratified, Explain).
	supports bool
	bufs     map[*exec.Atom]*atomBuf
	// stage, when set, restricts the evaluation to a prefix of one
	// recursive component's stages (see Provenance): a row of a predicate
	// it holds is visible only when 0 < its stage < below.
	stage map[ast.PredKey][]int32
	below int32
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

// hidden reports whether ev.stage hides the stored row of rel with the
// given arguments (never without ev.stage).
func (ev *evaluator) hidden(rel *relation.Relation, args []val.T) bool {
	if st, ok := ev.stage[rel.Info.Key]; ok {
		s := st[rel.ID(args)]
		return s <= 0 || s >= ev.below
	}
	return false
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
		return ev.aggregate(s.Agg, i, e, func() error { return ev.step(steps, i+1, e, emit) })
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
		if !ok || ev.hidden(rel, args) {
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
		if ev.hidden(rel, row.Args) {
			return true
		}
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
	present = present && !ev.hidden(rel, args)
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
