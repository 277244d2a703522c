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
// that canonical order, each scan of a predicate of the rule's own
// component that the canonical order does not run first gets a Δ-driver
// order with the scan at position 0 (driverOrder): the semi-naive pass
// restricted to that scan's Δ rows runs it, which is §6.2's step written
// as the rule differentiated with respect to its Δ literal.
//
// Plans are lowered once to streaming pipelines (exec_compile.go,
// internal/exec), the only executor the fixpoint loops run. Components
// that do not depend on one another evaluate concurrently on the
// component walk in parallel.go (one worker per CPU), with results
// identical at every worker count; see docs/ARCHITECTURE.md.
package core

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/val"
)

// plan is the compiled form of one rule.
type plan struct {
	rule *ast.Rule
	// idx is the engine-global rule index (into Stats.Rules); text is
	// the rule rendered once at compile time, and ops its canonical
	// steps rendered as EXPLAIN operators (counters zero), so stats
	// attribution, event emission and profile views never format.
	idx   int
	text  string
	ops   []OpStats
	nvars int
	names []ast.Var // index -> variable name (for errors)
	// steps is the canonical order: the greedy compiler's, which full
	// passes and the reference interpreter run and every profile counter,
	// explanation and stats entry is keyed by.
	steps []step
	head  atomSpec
	// scanSteps maps each positively scanned predicate to the step
	// indices scanning it (semi-naive drivers: CDB predicates during the
	// fixpoint, plus EDB predicates for incremental SolveMore seeds);
	// cdbScanSteps keeps just the CDB ones. hasCDBAgg marks plans
	// referencing CDB predicates inside aggregates.
	scanSteps    map[ast.PredKey][]int
	cdbScanSteps []int
	hasCDBAgg    bool
	// pipe is the canonical order lowered to its streaming pipeline
	// (exec_compile.go); drivers[k], when non-nil, is the Δ-driver order
	// for the CDB scan at canonical step k (driverOrder). hbuf is the
	// semi-naive insert path's head-projection scratch (solves only).
	pipe    pipeline
	drivers []*pipeline
	hbuf    []val.T
	// work is the rule's share of the component evaluation under way,
	// its operator counters included (work.Ops, allocated at New): the
	// walk resets it when it dispatches the component and folds it into
	// Stats.Rules at the boundary (mergeStats). Only the worker
	// evaluating the rule's component touches it.
	work RuleStats
}

// pipeline is one step arrangement of a plan lowered to its streaming
// pipeline: the canonical order, or a Δ-driver order. canon maps each
// pipeline position to the canonical step it executes (the identity for
// the canonical order itself), so operator counters fold back onto
// canonical positions whichever order ran.
type pipeline struct {
	stream *exec.Rule
	canon  []int
}

// deltaPipe returns the pipeline a Δ pass restricting canonical scan
// step si runs, and the pipeline position of that scan: si's driver
// order with the scan first when it has one, the canonical order
// otherwise.
func (p *plan) deltaPipe(si int) (*pipeline, int) {
	if p.drivers != nil && p.drivers[si] != nil {
		return p.drivers[si], 0
	}
	return &p.pipe, si
}

// step is one executable body element.
type step interface{ isStep() }

// atomSpec is a compiled atom: per argument either a variable index or a
// constant, with the cost argument split out.
type atomSpec struct {
	pred    ast.PredKey
	pi      *ast.PredInfo
	argVar  []int   // variable index per non-cost position, -1 for const
	argVal  []val.T // constant per non-cost position when argVar < 0
	costVar int     // variable index of the cost argument, -1 if none/const
	costVal val.T   // constant cost when costVar < 0 and pi.HasCost
	cdb     bool
}

// scanStep matches an atom against the database (positive literal).
type scanStep struct {
	atomSpec
}

func (*scanStep) isStep() {}

// negStep checks a fully bound negative literal.
type negStep struct {
	atomSpec
}

func (*negStep) isStep() {}

// builtinStep tests a comparison or performs a definitional assignment.
type builtinStep struct {
	b *ast.Builtin
	// assign is the variable defined by a "V = expr" builtin, -1 for a
	// pure test; expr is the defining side.
	assign int
	expr   ast.Expr
	lVars  []int
	rVars  []int
	// vmap resolves expression variable names to plan indices (shared
	// with the plan's compiler).
	vmap map[ast.Var]int
}

func (*builtinStep) isStep() {}

func (b *builtinStep) varIndex(v ast.Var) (int, bool) {
	i, ok := b.vmap[v]
	return i, ok
}

// aggStep evaluates an aggregate subgoal.
type aggStep struct {
	g          *ast.Agg
	f          lattice.Aggregate
	restricted bool
	result     int   // variable index of the aggregate variable
	groupVars  []int // variable indices of the grouping variables
	msVar      int   // variable index of the multiset variable, -1 if none
	conj       []atomSpec
	cdb        bool // references a CDB predicate
	// groupKeyPos[i] maps each grouping variable to its position in the
	// non-cost arguments of conj atom i, or nil when atom i does not
	// carry every grouping variable (then Δ-driven group restriction is
	// impossible and the rule re-runs whole).
	groupKeyPos [][]int
	// groupScratch is changedGroups' per-round changed-group map,
	// cleared (retaining its buckets) and refilled each round. It relies
	// on the engine solving from one goroutine at a time.
	groupScratch map[string]exec.GroupRef
	// groupKeys interns group-key strings across rounds (and solves), so
	// a group that changes in many rounds allocates its key exactly
	// once. Bounded by the number of distinct groups the step ever sees.
	groupKeys map[string]string
}

func (*aggStep) isStep() {}

// compiler builds plans for the rules of one component.
type compiler struct {
	schemas ast.Schemas
	cdb     map[ast.PredKey]bool
}

func (c *compiler) compileRule(r *ast.Rule) (*plan, error) {
	p := &plan{rule: r}
	vidx := map[ast.Var]int{}
	idxOf := func(v ast.Var) int {
		if i, ok := vidx[v]; ok {
			return i
		}
		i := p.nvars
		vidx[v] = i
		p.names = append(p.names, v)
		p.nvars++
		return i
	}

	compileAtom := func(a *ast.Atom) (atomSpec, error) {
		pi := c.schemas.Info(a.Key())
		if pi == nil {
			return atomSpec{}, fmt.Errorf("core: no schema for %s", a.Key())
		}
		sp := atomSpec{pred: a.Key(), pi: pi, costVar: -1, cdb: c.cdb[a.Key()]}
		for j, t := range a.Args {
			isCost := pi.HasCost && j == pi.CostIndex()
			switch t := t.(type) {
			case ast.Var:
				if isCost {
					sp.costVar = idxOf(t)
				} else {
					sp.argVar = append(sp.argVar, idxOf(t))
					sp.argVal = append(sp.argVal, val.T{})
				}
			case ast.Const:
				if isCost {
					cv, err := pi.L.Parse(t.V)
					if err != nil {
						return atomSpec{}, fmt.Errorf("core: %s: %v", a, err)
					}
					sp.costVal = cv
				} else {
					sp.argVar = append(sp.argVar, -1)
					sp.argVal = append(sp.argVal, t.V)
				}
			}
		}
		return sp, nil
	}

	// Compile subgoals to unordered steps first.
	type pending struct {
		s        step
		needs    []int // variables that must be bound before execution
		binds    []int // variables bound by execution
		priority int   // tie-break: lower runs earlier among runnable
	}
	var pendings []pending

	for bi, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			sp, err := compileAtom(&sg.Atom)
			if err != nil {
				return nil, err
			}
			var needs, binds []int
			if sg.Neg {
				for _, v := range sp.argVar {
					if v >= 0 {
						needs = append(needs, v)
					}
				}
				if sp.costVar >= 0 {
					needs = append(needs, sp.costVar)
				}
				pendings = append(pendings, pending{s: &negStep{sp}, needs: needs, priority: 3})
				continue
			}
			if sp.pi.HasDefault {
				// Default-value predicates cannot be enumerated: all
				// non-cost arguments must be bound (safety guarantees a
				// limiting occurrence exists elsewhere).
				for _, v := range sp.argVar {
					if v >= 0 {
						needs = append(needs, v)
					}
				}
			}
			for _, v := range sp.argVar {
				if v >= 0 {
					binds = append(binds, v)
				}
			}
			if sp.costVar >= 0 {
				binds = append(binds, sp.costVar)
			}
			pendings = append(pendings, pending{s: &scanStep{sp}, needs: needs, binds: binds, priority: 1})
		case *ast.Agg:
			f, ok := lattice.AggregateByName(sg.Func)
			if !ok {
				return nil, fmt.Errorf("core: unknown aggregate %s", sg.Func)
			}
			roles := ast.RolesOf(r, bi)
			st := &aggStep{g: sg, f: f, restricted: sg.Restricted, msVar: -1}
			st.result = idxOf(sg.Result)
			for _, v := range roles.Grouping {
				st.groupVars = append(st.groupVars, idxOf(v))
			}
			if sg.MultisetVar != "" {
				st.msVar = idxOf(sg.MultisetVar)
			}
			for ci := range sg.Conj {
				sp, err := compileAtom(&sg.Conj[ci])
				if err != nil {
					return nil, err
				}
				if sp.cdb {
					st.cdb = true
					p.hasCDBAgg = true
				}
				st.conj = append(st.conj, sp)
				// Record where each grouping variable sits in this atom's
				// non-cost arguments (for Δ-driven group restriction).
				pos := make([]int, len(st.groupVars))
				usable := true
				for gi, gv := range st.groupVars {
					pos[gi] = -1
					for ai, av := range sp.argVar {
						if av == gv {
							pos[gi] = ai
							break
						}
					}
					if pos[gi] < 0 {
						usable = false
					}
				}
				if !usable {
					pos = nil
				}
				st.groupKeyPos = append(st.groupKeyPos, pos)
			}
			var needs, binds []int
			if !sg.Restricted {
				// Total "=" aggregates need every grouping variable bound
				// (they are defined on empty groups, so grouping cannot
				// enumerate them; Definition 2.5 makes them limited
				// elsewhere).
				needs = append(needs, st.groupVars...)
			} else {
				binds = append(binds, st.groupVars...)
			}
			binds = append(binds, st.result)
			pendings = append(pendings, pending{s: st, needs: needs, binds: binds, priority: 2})
		case *ast.Builtin:
			lv := exprIdx(sg.L.Vars(nil), idxOf)
			rv := exprIdx(sg.R.Vars(nil), idxOf)
			pendings = append(pendings, pending{
				s: &builtinStep{b: sg, assign: -1, lVars: lv, rVars: rv, vmap: vidx},
				// needs computed dynamically below (assignment form).
				priority: 0,
			})
		}
	}

	// Greedy ordering: repeatedly emit a runnable step. Builtins are
	// runnable when fully bound (test) or when exactly one side is a
	// single unbound variable and the other side is bound (assignment).
	bound := make([]bool, p.nvars+8)
	grow := func() {
		if p.nvars > len(bound) {
			nb := make([]bool, p.nvars+8)
			copy(nb, bound)
			bound = nb
		}
	}
	grow()
	done := make([]bool, len(pendings))
	for remaining := len(pendings); remaining > 0; {
		best := -1
		bestScore := -1
		for i := range pendings {
			if done[i] {
				continue
			}
			pd := &pendings[i]
			runnable := true
			score := 0
			if b, isB := pd.s.(*builtinStep); isB {
				mode, _, ok := builtinMode(b, bound)
				if !ok {
					runnable = false
				} else if mode == "test" {
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
		pd := &pendings[best]
		done[best] = true
		remaining--
		if b, isB := pd.s.(*builtinStep); isB {
			mode, assignVar, _ := builtinMode(b, bound)
			if mode == "assign" {
				b.assign = assignVar
				if lv, ok := b.b.L.(ast.VarExpr); ok && vidx[lv.V] == assignVar {
					b.expr = b.b.R
				} else {
					b.expr = b.b.L
				}
				bound[assignVar] = true
			}
			p.steps = append(p.steps, b)
			continue
		}
		for _, v := range pd.binds {
			bound[v] = true
		}
		p.steps = append(p.steps, pd.s)
	}

	// Record scan positions (semi-naive drivers).
	p.scanSteps = map[ast.PredKey][]int{}
	for i, s := range p.steps {
		if s, ok := s.(*scanStep); ok {
			p.scanSteps[s.pred] = append(p.scanSteps[s.pred], i)
			if s.cdb {
				p.cdbScanSteps = append(p.cdbScanSteps, i)
			}
		}
	}

	// Compile the head.
	hs, err := compileAtom(&r.Head)
	if err != nil {
		return nil, err
	}
	p.head = hs
	// Verify head variables are bound by the plan (the head may have
	// introduced fresh indices beyond the body's bound set).
	isBound := func(v int) bool { return v < len(bound) && bound[v] }
	for _, v := range hs.argVar {
		if v >= 0 && !isBound(v) {
			return nil, fmt.Errorf("core: rule %q: head variable %s never bound", r, p.names[v])
		}
	}
	if hs.costVar >= 0 && !isBound(hs.costVar) {
		return nil, fmt.Errorf("core: rule %q: head cost variable %s never bound", r, p.names[hs.costVar])
	}
	p.hbuf = make([]val.T, len(hs.argVar))
	identity := make([]int, len(p.steps))
	for i := range identity {
		identity[i] = i
	}
	p.pipe = pipeline{stream: compileStream(p, p.steps, identity), canon: identity}
	for _, k := range p.cdbScanSteps {
		if d := p.driverOrder(k); d != nil {
			if p.drivers == nil {
				p.drivers = make([]*pipeline, len(p.steps))
			}
			p.drivers[k] = d
		}
	}
	return p, nil
}

// driverOrder compiles the Δ-driver order for canonical scan step k:
// the scan at position 0 and every other step in canonical relative
// order. A semi-naive pass restricting step k then reads each Δ row
// once and reaches the rest of the body through index probes, instead
// of walking the whole Δ set once per row of the steps ahead of it.
// Moving a scan forward only binds variables earlier, so every step
// stays runnable; a builtin re-derives its test/assign mode for the
// larger bound set, and γ steps get the conjunction orders of their new
// position. Nil when k is already first, or when some γ conjunction has
// no valid order at its new position (that pass keeps the canonical
// order).
func (p *plan) driverOrder(k int) *pipeline {
	if k == 0 {
		return nil
	}
	bound := make([]bool, p.nvars)
	steps := make([]step, 0, len(p.steps))
	canon := make([]int, 0, len(p.steps))
	add := func(i int) {
		s := p.steps[i]
		if bs, ok := s.(*builtinStep); ok {
			s = cloneBuiltin(bs, bound)
		}
		bindStep(s, bound)
		steps = append(steps, s)
		canon = append(canon, i)
	}
	add(k)
	for i := range p.steps {
		if i != k {
			add(i)
		}
	}
	stream := compileStream(p, steps, canon)
	for pi, s := range steps {
		if _, ok := s.(*aggStep); !ok {
			continue
		}
		na, oa := stream.Steps[pi].Agg, p.pipe.stream.Steps[canon[pi]].Agg
		if (na.OrderFullErr != nil && oa.OrderFullErr == nil) ||
			(na.OrderPointErr != nil && oa.OrderPointErr == nil) {
			return nil
		}
	}
	return &pipeline{stream: stream, canon: canon}
}

// bindStep marks the variables a step binds on success, mirroring the
// greedy compiler's binds sets.
func bindStep(s step, bound []bool) {
	switch s := s.(type) {
	case *scanStep:
		for _, v := range s.argVar {
			if v >= 0 {
				bound[v] = true
			}
		}
		if s.costVar >= 0 {
			bound[s.costVar] = true
		}
	case *builtinStep:
		if s.assign >= 0 {
			bound[s.assign] = true
		}
	case *aggStep:
		for _, v := range s.groupVars {
			bound[v] = true
		}
		bound[s.result] = true
	}
}

// cloneBuiltin re-derives a builtin's execution mode for its position
// in a driver order. The canonical step object keeps the assign/expr
// fixed for its canonical position, so a moved builtin gets its own
// step with the mode the new bound set implies (mirroring the greedy
// compiler's emission).
func cloneBuiltin(bs *builtinStep, bound []bool) *builtinStep {
	clone := &builtinStep{b: bs.b, assign: -1, lVars: bs.lVars, rVars: bs.rVars, vmap: bs.vmap}
	if mode, assignVar, ok := builtinMode(clone, bound); ok && mode == "assign" {
		clone.assign = assignVar
		if lv, isVar := clone.b.L.(ast.VarExpr); isVar && clone.vmap[lv.V] == assignVar && len(clone.lVars) == 1 {
			clone.expr = clone.b.R
		} else {
			clone.expr = clone.b.L
		}
	}
	return clone
}

// builtinMode decides how a builtin runs under the current bound set:
// "test" when every variable is bound; "assign" when the builtin is an
// equality with a single unbound variable alone on one side.
func builtinMode(b *builtinStep, bound []bool) (mode string, assignVar int, ok bool) {
	allBound := func(vs []int) bool {
		for _, v := range vs {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	lb, rb := allBound(b.lVars), allBound(b.rVars)
	if lb && rb {
		return "test", -1, true
	}
	if b.b.Op != ast.OpEq {
		return "", -1, false
	}
	if lv, isVar := b.b.L.(ast.VarExpr); isVar && !lb && len(b.lVars) == 1 && rb {
		_ = lv
		return "assign", b.lVars[0], true
	}
	if rv, isVar := b.b.R.(ast.VarExpr); isVar && !rb && len(b.rVars) == 1 && lb {
		_ = rv
		return "assign", b.rVars[0], true
	}
	return "", -1, false
}

func exprIdx(vs []ast.Var, idxOf func(ast.Var) int) []int {
	seen := map[ast.Var]bool{}
	var out []int
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, idxOf(v))
		}
	}
	return out
}

// orderConj orders the atoms of an aggregate conjunction for a given set
// of pre-bound variables: default-value atoms wait until their non-cost
// arguments are bound; otherwise prefer more-bound atoms. Returns the
// permutation.
func orderConj(conj []atomSpec, bound map[int]bool) ([]int, error) {
	n := len(conj)
	used := make([]bool, n)
	local := map[int]bool{}
	for v := range bound {
		local[v] = true
	}
	var order []int
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
			for _, v := range sp.argVar {
				if v >= 0 && local[v] {
					score++
				} else if v >= 0 && sp.pi.HasDefault {
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
		for _, v := range conj[best].argVar {
			if v >= 0 {
				local[v] = true
			}
		}
		if cv := conj[best].costVar; cv >= 0 {
			local[cv] = true
		}
	}
	return order, nil
}

// sortedKeys is a small helper for deterministic map iteration.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
