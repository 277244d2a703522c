// Package core implements the paper's primary contribution: the minimal
// model semantics of monotonic aggregate programs (Ross & Sagiv, PODS
// 1992, §3) via the immediate consequence operator T_P (Definition 3.7)
// and its bottom-up least-fixpoint computation (§6.2), evaluated one
// program component at a time in bottom-up order (§6.3).
//
// Rules are compiled to evaluation plans: an ordering of subgoals such
// that each step sees the variables it needs already bound (aggregates
// with unbound grouping variables execute as a grouped scan, which is how
// the paper's rule "s(X,Y,C) :- C ?= min D : path(X,Z,Y,D)" runs). Besides
// that canonical order, each positive scan that the canonical order does
// not run first gets a Δ-driver order with the scan at position 0
// (driverOrder): the semi-naive pass restricted to that scan's Δ rows
// runs it, which is §6.2's step written as the rule differentiated with
// respect to its Δ literal. Scans of the rule's own component drive the
// fixpoint's rounds; scans of EDB and lower-component predicates drive
// the passes an incremental SolveMore seeds with new rows.
//
// A plan's steps are internal/exec's operators: the compiler emits them
// directly, and the fixpoint loops, the T_P and model checks,
// GroupStratified and Provenance all run them as streaming pipelines —
// the one evaluator; the tuple-at-a-time reference interpreter that
// judges it lives in the tests (oracle_test.go). Components that
// do not depend on one another evaluate concurrently on the component
// walk in parallel.go (one worker per CPU), with results identical at
// every worker count; see docs/ARCHITECTURE.md.
package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// plan is the compiled form of one rule.
type plan struct {
	rule *ast.Rule
	// pos is the plan's position among its component's plans.
	pos int
	// idx is the engine-global rule index (into Stats.Rules); text is
	// the rule rendered once at compile time, so stats attribution and
	// event emission never format; ops are its canonical steps rendered
	// as EXPLAIN operators (counters zero), on the engine's first
	// Profile (Engine.opsOnce).
	idx   int
	text  string
	ops   []OpStats
	nvars int
	names []ast.Var // index -> variable name (for errors)
	// steps is the canonical order: the greedy compiler's, which full
	// passes, the checks and explanations run and every profile counter,
	// explanation and stats entry is keyed by.
	steps []exec.Step
	head  exec.Atom
	// scansOf lists, by predicate number (deltaIndex), the step indices
	// positively scanning each predicate (semi-naive drivers: CDB
	// predicates during the fixpoint, plus EDB and lower-component
	// predicates for incremental SolveMore seeds). hasCDBAgg marks plans
	// referencing CDB predicates inside aggregates.
	scansOf   [][]int
	hasCDBAgg bool
	// pipe is the pipeline over the canonical steps; drivers[k], when
	// non-nil, is the Δ-driver order for the scan at canonical step k
	// (driverOrder). hbuf is the semi-naive insert path's
	// head-projection scratch (solves only).
	pipe    pipeline
	drivers []*pipeline
	hbuf    []val.T
	// conjs holds, per γ step position, the step's conjunction as a
	// pipeline of scans in its point order (OrderPoint), which runs with
	// the grouping variables bound to enumerate one group's
	// contributions; compiled on the first call of contributions.
	conjs     []*exec.Rule
	conjsOnce sync.Once
	// work is the rule's share of the component evaluation under way,
	// its operator counters included (work.Ops, allocated at New): the
	// walk resets it when it dispatches the component and folds it into
	// Stats.Rules at the boundary (mergeStats). Only the worker
	// evaluating the rule's component touches it.
	work RuleStats
}

// pipeline is one step arrangement of a plan: the canonical order, or a
// Δ-driver order. canon maps each pipeline position to the canonical
// step it executes (the identity for the canonical order itself), so
// operator counters fold back onto canonical positions whichever order
// ran.
type pipeline struct {
	stream *exec.Rule
	canon  []int
}

// run runs one pass of pipeline r over db, handing every satisfying
// assignment of its steps to emit. bind, when non-nil, binds registers
// first (the pass is empty when it reports false); they stay bound for
// the pass, which then enumerates only the assignments agreeing with
// them, and are cleared after it. The pipeline resolves its relations
// through db.Rel, which creates a missing one: a db several goroutines
// read must hold every predicate already (readView).
func run(r *exec.Rule, db *relation.DB, bind func(*exec.Regs) bool, emit func(*exec.Machine) error) error {
	m := r.Acquire(exec.Config{DB: db})
	var err error
	if bind == nil || bind(&m.Regs) {
		err = m.Run(emit)
	}
	clear(m.Bound)
	r.Release(m)
	return err
}

// deltaPipe returns the pipeline a Δ pass restricting canonical scan
// step si runs: the canonical order when the scan is already first, its
// Δ-driver order otherwise. Either way the restricted scan is step 0.
func (p *plan) deltaPipe(si int) *pipeline {
	if si == 0 {
		return &p.pipe
	}
	return p.drivers[si]
}

// gammaPass reports whether Δ set d changed a conjunct of one of p's γ
// steps, and whether every changed conjunct is keyed (exec.AggStep.KeyPos).
// Only then can a γ Δ pass restrict every γ step to the groups d changed;
// otherwise the rule re-runs whole. A pass where one γ restricted while
// another ran whole would drop bindings: the whole run is what stands in
// for the scan-driven passes.
func (p *plan) gammaPass(d *deltaSet) (changed, keyed bool) {
	keyed = true
	for si := range p.steps {
		a := p.steps[si].Agg
		if a == nil {
			continue
		}
		for ci := range a.Conj {
			if d.preds[a.Conj[ci].Num] != nil {
				changed = true
				keyed = keyed && a.KeyPos[ci] != nil
			}
		}
	}
	return changed, keyed
}

// compiler builds plans for the rules of one component, whose Δ sets
// number the predicates its rules mention by their place in preds
// (deltaIndex.keys).
type compiler struct {
	schemas ast.Schemas
	cdb     map[ast.PredKey]bool
	preds   []ast.PredKey
}

// num returns k's number in the component's Δ sets.
func (c *compiler) num(k ast.PredKey) int {
	n, _ := slices.BinarySearch(c.preds, k)
	return n
}

// compileRule compiles r to its plan: the canonical order (a greedy pass
// over the subgoals), then a Δ-driver order for every positive scan the
// canonical order does not run first, whatever component the scanned
// predicate belongs to (driverOrder). A cold solve restricts only scans
// of the component's own predicates; an incremental SolveMore also
// restricts scans of the EDB and lower-component predicates its seed
// rows belong to.
func (c *compiler) compileRule(r *ast.Rule) (*plan, error) {
	p := &plan{rule: r}
	idxOf := func(v ast.Var) int {
		if i := slices.Index(p.names, v); i >= 0 {
			return i
		}
		p.names = append(p.names, v)
		p.nvars++
		return p.nvars - 1
	}

	compileAtom := func(a *ast.Atom) (exec.Atom, error) {
		k := a.Key()
		pi := c.schemas.Info(k)
		if pi == nil {
			return exec.Atom{}, fmt.Errorf("core: no schema for %s", k)
		}
		sp := exec.Atom{Pred: k, Num: c.num(k), Info: pi, CostVar: -1, CDB: c.cdb[k]}
		sp.ArgVar = make([]int, 0, len(a.Args))
		sp.ArgVal = make([]val.T, 0, len(a.Args))
		for j, t := range a.Args {
			isCost := pi.HasCost && j == pi.CostIndex()
			switch t := t.(type) {
			case ast.Var:
				if isCost {
					sp.CostVar = idxOf(t)
				} else {
					sp.ArgVar = append(sp.ArgVar, idxOf(t))
					sp.ArgVal = append(sp.ArgVal, val.T{})
				}
			case ast.Const:
				if isCost {
					cv, err := pi.L.Parse(t.V)
					if err != nil {
						return exec.Atom{}, fmt.Errorf("core: %s: %v", a, err)
					}
					sp.CostVal = cv
				} else {
					sp.ArgVar = append(sp.ArgVar, -1)
					sp.ArgVal = append(sp.ArgVal, t.V)
				}
			}
		}
		sp.Wide = len(sp.ArgVar) > 64
		return sp, nil
	}

	// Compile subgoals to unordered steps first.
	type pending struct {
		s        exec.Step
		needs    []int // variables that must be bound before execution
		binds    []int // variables bound by execution
		priority int   // tie-break: lower runs earlier among runnable
	}
	pendings := make([]pending, 0, len(r.Body))

	for bi, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			sp, err := compileAtom(&sg.Atom)
			if err != nil {
				return nil, err
			}
			var needs, binds []int
			if sg.Neg {
				for _, v := range sp.ArgVar {
					if v >= 0 {
						needs = append(needs, v)
					}
				}
				if sp.CostVar >= 0 {
					needs = append(needs, sp.CostVar)
				}
				pendings = append(pendings, pending{s: exec.Step{Kind: exec.NegKind, Atom: sp}, needs: needs, priority: 3})
				continue
			}
			if sp.Info.HasDefault {
				// Default-value predicates cannot be enumerated: all
				// non-cost arguments must be bound (safety guarantees a
				// limiting occurrence exists elsewhere).
				for _, v := range sp.ArgVar {
					if v >= 0 {
						needs = append(needs, v)
					}
				}
			}
			for _, v := range sp.ArgVar {
				if v >= 0 {
					binds = append(binds, v)
				}
			}
			if sp.CostVar >= 0 {
				binds = append(binds, sp.CostVar)
			}
			pendings = append(pendings, pending{s: exec.Step{Kind: exec.ScanKind, Atom: sp}, needs: needs, binds: binds, priority: 1})
		case *ast.Agg:
			f, ok := lattice.AggregateByName(sg.Func)
			if !ok {
				return nil, fmt.Errorf("core: unknown aggregate %s", sg.Func)
			}
			roles := ast.RolesOf(r, bi)
			st := &exec.AggStep{G: sg, F: f, MsVar: -1}
			st.Result = idxOf(sg.Result)
			for _, v := range roles.Grouping {
				st.GroupVars = append(st.GroupVars, idxOf(v))
			}
			if sg.MultisetVar != "" {
				st.MsVar = idxOf(sg.MultisetVar)
			}
			for ci := range sg.Conj {
				sp, err := compileAtom(&sg.Conj[ci])
				if err != nil {
					return nil, err
				}
				p.hasCDBAgg = p.hasCDBAgg || sp.CDB
				st.Conj = append(st.Conj, sp)
				// Record where each grouping variable sits in this atom's
				// non-cost arguments (for Δ-driven group restriction).
				pos := make([]int, len(st.GroupVars))
				for gi, gv := range st.GroupVars {
					if pos[gi] = slices.Index(sp.ArgVar, gv); pos[gi] < 0 {
						pos = nil
						break
					}
				}
				st.KeyPos = append(st.KeyPos, pos)
			}
			var needs, binds []int
			if !sg.Restricted {
				// Total "=" aggregates need every grouping variable bound
				// (they are defined on empty groups, so grouping cannot
				// enumerate them; Definition 2.5 makes them limited
				// elsewhere).
				needs = append(needs, st.GroupVars...)
			} else {
				binds = append(binds, st.GroupVars...)
			}
			binds = append(binds, st.Result)
			pendings = append(pendings, pending{s: exec.Step{Kind: exec.AggKind, Agg: st}, needs: needs, binds: binds, priority: 2})
		case *ast.Builtin:
			pendings = append(pendings, pending{s: exec.Step{Kind: exec.BuiltinKind, Builtin: exec.NewBuiltin(sg, idxOf)}})
		}
	}

	// Greedy ordering: repeatedly emit a runnable step. Builtins are
	// runnable when fully bound (test) or when exactly one side is a
	// single unbound variable and the other side is bound (assignment,
	// exec.BuiltinStep.Mode).
	bound := make([]bool, p.nvars)
	done := make([]bool, len(pendings))
	p.steps = make([]exec.Step, 0, len(pendings))
	for remaining := len(pendings); remaining > 0; remaining-- {
		best := -1
		bestScore := -1
		for i := range pendings {
			if done[i] {
				continue
			}
			pd := &pendings[i]
			runnable := true
			score := 0
			if b := pd.s.Builtin; b != nil {
				assign, ok := b.Mode(bound)
				if !ok {
					runnable = false
				} else if assign < 0 {
					score = 100 // run tests as early as possible
				} else {
					score = 50
				}
			} else {
				for _, v := range pd.needs {
					if !bound[v] {
						runnable = false
						break
					}
				}
				if runnable {
					// Prefer more-bound scans (cheaper joins).
					for _, v := range pd.binds {
						if bound[v] {
							score++
						}
					}
					score += 10 * (3 - pd.priority)
				}
			}
			if runnable && score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: rule %q has no valid evaluation order (is it range-restricted?)", r)
		}
		done[best] = true
		p.steps = append(p.steps, place(pendings[best].s, bound))
	}

	// Record scan positions (semi-naive drivers).
	p.scansOf = make([][]int, len(c.preds))
	for i := range p.steps {
		if s := &p.steps[i]; s.Kind == exec.ScanKind {
			p.scansOf[s.Atom.Num] = append(p.scansOf[s.Atom.Num], i)
		}
	}

	// Compile the head and verify the plan binds its variables (the head
	// may have introduced fresh indices beyond the body's bound set).
	hs, err := compileAtom(&r.Head)
	if err != nil {
		return nil, err
	}
	p.head = hs
	isBound := func(v int) bool { return v < len(bound) && bound[v] }
	for _, v := range hs.ArgVar {
		if v >= 0 && !isBound(v) {
			return nil, fmt.Errorf("core: rule %q: head variable %s never bound", r, p.names[v])
		}
	}
	if hs.CostVar >= 0 && !isBound(hs.CostVar) {
		return nil, fmt.Errorf("core: rule %q: head cost variable %s never bound", r, p.names[hs.CostVar])
	}
	p.hbuf = make([]val.T, len(hs.ArgVar))
	p.deltaFold()
	identity := make([]int, len(p.steps))
	for i := range identity {
		identity[i] = i
	}
	p.pipe = pipeline{stream: exec.NewRule(p.nvars, p.steps), canon: identity}
	for k := 1; k < len(p.steps); k++ {
		if p.steps[k].Kind != exec.ScanKind {
			continue
		}
		if p.drivers == nil {
			p.drivers = make([]*pipeline, len(p.steps))
		}
		p.drivers[k] = p.driverOrder(k)
	}
	return p, nil
}

// deltaFold compiles p's γ step for the Δ-fold (exec.AggStep.Fold)
// when the rule qualifies: its body is one restricted γ over one atom of
// another predicate than the head, neither default-valued nor wide, whose
// non-cost arguments are distinct variables and whose cost is the
// multiset variable; F is the join of its range (lattice.Aggregate.IsJoin),
// the atom's lattice is F's domain and the head's cost lattice F's range;
// and the γ result is the head's cost. Example 2.6's
// "s(X,Y,C) :- C ?= min D : path(X,Z,Y,D)" is the case in point.
func (p *plan) deltaFold() {
	if len(p.steps) != 1 || p.steps[0].Kind != exec.AggKind {
		return
	}
	a, h := p.steps[0].Agg, &p.head
	if !a.G.Restricted || !a.F.IsJoin() || len(a.Conj) != 1 {
		return
	}
	at := &a.Conj[0]
	if at.Pred == h.Pred || at.Info.HasDefault || at.Wide || at.CostVar < 0 || at.CostVar != a.MsVar ||
		at.Info.L != a.F.Domain() || h.Info.L != a.F.Range() || h.CostVar != a.Result || a.Result == a.MsVar {
		return
	}
	seen := map[int]bool{a.MsVar: true, a.Result: true}
	for _, v := range at.ArgVar {
		if v < 0 || seen[v] {
			return
		}
		seen[v] = true
	}
	a.Fold = a.KeyPos[0] != nil
}

// place fixes the position-dependent parts of step s for the bound set
// before it — a builtin's test/assign mode, a γ step's conjunction
// orders — and marks the variables s binds on success. Every step binds
// a fixed variable set whenever it succeeds and the order is fixed, so
// the bound set is exact, not an approximation.
func place(s exec.Step, bound []bool) exec.Step {
	switch s.Kind {
	case exec.ScanKind:
		for _, v := range s.Atom.ArgVar {
			if v >= 0 {
				bound[v] = true
			}
		}
		if s.Atom.CostVar >= 0 {
			bound[s.Atom.CostVar] = true
		}
	case exec.BuiltinKind:
		s.Builtin = s.Builtin.At(bound)
		if s.Builtin.Assign >= 0 {
			bound[s.Builtin.Assign] = true
		}
	case exec.AggKind:
		a := *s.Agg
		orderAgg(&a, bound)
		s.Agg = &a
		for _, v := range a.GroupVars {
			bound[v] = true
		}
		bound[a.Result] = true
	}
	return s
}

// orderAgg fixes a γ step's conjunction orders for the bound set before
// it: OrderFull for the grouped mode (the bound variables the
// conjunction mentions) and OrderPoint for the point mode (the same set
// plus the grouping variables, which the Δ-grouped recursion binds
// before re-entering).
func orderAgg(a *exec.AggStep, bound []bool) {
	point := slices.Clone(bound)
	for _, v := range a.GroupVars {
		point[v] = true
	}
	a.OrderFull, a.OrderFullErr = orderConj(a.Conj, bound)
	a.OrderPoint, a.OrderPointErr = orderConj(a.Conj, point)
}

// driverOrder compiles the Δ-driver order for canonical scan step k:
// the scan at position 0 and every other step in canonical relative
// order. A semi-naive pass restricting step k then reads each Δ row
// once and reaches the rest of the body through index probes, instead
// of walking the whole Δ set once per row of the steps ahead of it.
// Moving a scan forward only binds variables earlier, so every step
// stays runnable and every γ conjunction that has a valid order keeps
// one (a bound variable never makes an atom unrunnable); place
// re-derives a builtin's test/assign mode and a γ step's conjunction
// orders for the new position. Nil only when k is already first.
func (p *plan) driverOrder(k int) *pipeline {
	if k == 0 {
		return nil
	}
	canon := []int{k}
	for i := range p.steps {
		if i != k {
			canon = append(canon, i)
		}
	}
	bound := make([]bool, p.nvars)
	steps := make([]exec.Step, len(canon))
	for pi, i := range canon {
		steps[pi] = place(p.steps[i], bound)
	}
	return &pipeline{stream: exec.NewRule(p.nvars, steps), canon: canon}
}

// orderConj orders the atoms of an aggregate conjunction for a given set
// of pre-bound variables: default-value atoms wait until their non-cost
// arguments are bound; otherwise prefer more-bound atoms. Returns the
// permutation.
func orderConj(conj []exec.Atom, bound []bool) ([]int, error) {
	n := len(conj)
	used := make([]bool, n)
	local := slices.Clone(bound)
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		bestScore := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sp := &conj[i]
			runnable := true
			score := 0
			for _, v := range sp.ArgVar {
				if v >= 0 && local[v] {
					score++
				} else if v >= 0 && sp.Info.HasDefault {
					runnable = false
				}
			}
			if runnable && score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: default-value predicate inside aggregation cannot be enumerated (unbound non-cost arguments)")
		}
		used[best] = true
		order = append(order, best)
		for _, v := range conj[best].ArgVar {
			if v >= 0 {
				local[v] = true
			}
		}
		if cv := conj[best].CostVar; cv >= 0 {
			local[cv] = true
		}
	}
	return order, nil
}
