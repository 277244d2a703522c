// Package monotone implements the syntactic sufficient conditions of §4.2
// of Ross & Sagiv (PODS 1992) for a program component to be monotonic:
// well-formed rules (Definition 4.2), monotonic built-in conjunctions E_r
// (Definitions 4.3-4.4, via a checkable sufficient condition), and
// admissible rules (Definition 4.5), which by Lemma 4.1 make T_P monotone
// in its first argument.
//
// It also classifies programs on the related-work ladder of §5:
// r-monotonicity (Mumick et al., Definition 5.1) and aggregate
// stratification.
package monotone

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/deps"
	"repro/internal/lattice"
)

// dir describes how a value can move as CDB cost values increase in their
// lattice order.
type dir int

const (
	dirFixed dir = iota // same value under the increased interpretation
	dirUp               // numerically non-decreasing
	dirDown             // numerically non-increasing
	dirMixed            // unknown / both ways — rejected
)

// latticeDir maps a numeric cost lattice to the numeric direction its
// elements move when they increase in ⊑.
func latticeDir(l lattice.Lattice) dir {
	switch l.Name() {
	case "maxreal", "sumreal", "prodnat", "countnat":
		return dirUp
	case "minreal":
		return dirDown
	default:
		return dirMixed // boolean/set lattices take no part in arithmetic
	}
}

func combineAdd(a, b dir) dir {
	if a == dirFixed {
		return b
	}
	if b == dirFixed {
		return a
	}
	if a == b {
		return a
	}
	return dirMixed
}

func flip(d dir) dir {
	switch d {
	case dirUp:
		return dirDown
	case dirDown:
		return dirUp
	}
	return d
}

// Context carries the componentwise CDB/LDB split needed by the checks.
type Context struct {
	Schemas ast.Schemas
	// CDB is the set of predicates defined in the component under
	// analysis; everything else referenced is LDB.
	CDB map[ast.PredKey]bool
}

// varMap maps a rule's variables, which are few, to values: a short list
// in first-insertion order, searched in order.
type varMap[T any] []varEntry[T]

type varEntry[T any] struct {
	v ast.Var
	x T
}

func (m varMap[T]) get(v ast.Var) (T, bool) {
	for _, e := range m {
		if e.v == v {
			return e.x, true
		}
	}
	var zero T
	return zero, false
}

func (m varMap[T]) has(v ast.Var) bool {
	_, ok := m.get(v)
	return ok
}

func (m *varMap[T]) set(v ast.Var, x T) {
	for i := range *m {
		if (*m)[i].v == v {
			(*m)[i].x = x
			return
		}
	}
	*m = append(*m, varEntry[T]{v, x})
}

// cdbVar is one CDB cost variable of a rule: the lattice its occurrences
// type it in, and their number among non-built-in subgoals.
type cdbVar struct {
	l lattice.Lattice
	n int
}

// costVars is the outcome of cdbCostVars for one rule, which every check
// of CheckAdmissible reads.
type costVars struct {
	vars varMap[cdbVar]
	err  error
}

// cdbCostVars returns, for rule r, the CDB cost variables (§4.2): a
// variable in a cost argument of a CDB predicate occurrence, or the
// aggregate variable of a CDB aggregate; together with the lattice typing
// each such occurrence implies, and the number of occurrences among
// non-built-in subgoals. A variable typed in two lattices is an error,
// which names the subgoal where the second typing occurs; the subgoal is
// rendered only then.
func (cx *Context) cdbCostVars(r *ast.Rule) costVars {
	var cv costVars
	note := func(v ast.Var, l lattice.Lattice, where ast.Subgoal) bool {
		prev, ok := cv.vars.get(v)
		if ok && prev.l.Name() != l.Name() {
			cv.err = fmt.Errorf("monotone: rule %q: CDB cost variable %s typed both %s and %s (%s)",
				r, v, prev.l.Name(), l.Name(), where)
			return false
		}
		cv.vars.set(v, cdbVar{l: l, n: prev.n + 1})
		return true
	}
	for _, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			k := sg.Atom.Key()
			pi := cx.Schemas.Info(k)
			if pi == nil || !pi.HasCost || !cx.CDB[k] {
				continue
			}
			if v, ok := sg.Atom.Args[pi.CostIndex()].(ast.Var); ok && !note(v, pi.L, sg) {
				return cv
			}
		case *ast.Agg:
			if cx.isCDBAggregate(sg) {
				f, ok := lattice.AggregateByName(sg.Func)
				if !ok {
					cv.err = fmt.Errorf("monotone: rule %q: unknown aggregate %s", r, sg.Func)
					return cv
				}
				if !note(sg.Result, f.Range(), sg) {
					return cv
				}
			}
			// A CDB cost variable may also occur inside the aggregation's
			// cost arguments (other than the multiset variable).
			for ci := range sg.Conj {
				a := &sg.Conj[ci]
				k := a.Key()
				pi := cx.Schemas.Info(k)
				if pi == nil || !pi.HasCost || !cx.CDB[k] {
					continue
				}
				if v, ok := a.Args[pi.CostIndex()].(ast.Var); ok && v != sg.MultisetVar && !note(v, pi.L, sg) {
					return cv
				}
			}
		}
	}
	return cv
}

// isCDBAggregate reports whether the aggregate subgoal mentions a CDB
// predicate (a "CDB aggregate", §4.2).
func (cx *Context) isCDBAggregate(g *ast.Agg) bool {
	for i := range g.Conj {
		if cx.CDB[g.Conj[i].Key()] {
			return true
		}
	}
	return false
}

// checkWellFormed enforces Definition 4.2 on r, whose CDB cost variables
// are cv, plus the implicit condition that CDB cost variables do not leak
// into non-cost positions of the head or body (which would let a cost
// value act as data and break Lemma 4.1's proof).
func (cx *Context) checkWellFormed(r *ast.Rule, cv costVars) error {
	// (1) Built-ins cannot appear inside aggregate subgoals: guaranteed
	// structurally (ast.Agg aggregates a conjunction of atoms).

	// (2) Only variables in cost arguments of CDB predicates.
	for _, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			pi := cx.Schemas.Info(sg.Atom.Key())
			if pi != nil && pi.HasCost && cx.CDB[sg.Atom.Key()] {
				if _, ok := sg.Atom.Args[pi.CostIndex()].(ast.Var); !ok {
					return fmt.Errorf("monotone: rule %q: constant in CDB cost argument of %s (add a built-in equality instead)", r, sg.Atom.String())
				}
			}
		case *ast.Agg:
			for ci := range sg.Conj {
				a := &sg.Conj[ci]
				pi := cx.Schemas.Info(a.Key())
				if pi != nil && pi.HasCost && cx.CDB[a.Key()] {
					if _, ok := a.Args[pi.CostIndex()].(ast.Var); !ok {
						return fmt.Errorf("monotone: rule %q: constant in CDB cost argument inside %s", r, sg)
					}
				}
			}
		}
	}
	hp := cx.Schemas.Info(r.Head.Key())
	if hp != nil && hp.HasCost && cx.CDB[r.Head.Key()] {
		if _, ok := r.Head.Args[hp.CostIndex()].(ast.Var); !ok {
			if r.IsFact() {
				// Ground cost facts are harmless seeds (they behave as
				// LDB input joined into the bottom interpretation).
			} else {
				return fmt.Errorf("monotone: rule %q: constant cost in rule head (add a built-in equality instead)", r)
			}
		}
	}

	// (3) Each CDB cost variable occurs at most once among the
	// non-built-in subgoals.
	if cv.err != nil {
		return cv.err
	}
	vars := cv.vars
	for _, e := range vars {
		if e.x.n > 1 {
			return fmt.Errorf("monotone: rule %q: CDB cost variable %s occurs %d times among non-built-in subgoals", r, e.v, e.x.n)
		}
	}
	// The multiset variable is exempt from (3) for its occurrence after
	// the aggregate function, but Lemma 4.1's proof still requires that
	// no two CDB atoms of one conjunction share it in their cost
	// arguments (their costs could then not be raised independently).
	for _, sg := range r.Body {
		g, ok := sg.(*ast.Agg)
		if !ok || g.MultisetVar == "" {
			continue
		}
		cdbMsUses := 0
		for ci := range g.Conj {
			a := &g.Conj[ci]
			pi := cx.Schemas.Info(a.Key())
			if pi == nil || !pi.HasCost || !cx.CDB[a.Key()] {
				continue
			}
			if v, isVar := a.Args[pi.CostIndex()].(ast.Var); isVar && v == g.MultisetVar {
				cdbMsUses++
			}
		}
		if cdbMsUses > 1 {
			return fmt.Errorf("monotone: rule %q: multiset variable %s ties the costs of %d CDB atoms together in %s (Lemma 4.1's proof requires independent costs)",
				r, g.MultisetVar, cdbMsUses, g)
		}
	}

	// CDB cost variables must not appear in non-cost positions anywhere
	// (body handled by (3) since any extra occurrence is counted; the
	// head needs an explicit check).
	if hp != nil {
		for j, t := range r.Head.Args {
			v, ok := t.(ast.Var)
			if !ok {
				continue
			}
			if hp.HasCost && j == hp.CostIndex() {
				continue
			}
			if vars.has(v) {
				return fmt.Errorf("monotone: rule %q: CDB cost variable %s appears in a non-cost head argument", r, v)
			}
		}
	}
	// Count non-cost body occurrences of CDB cost variables explicitly:
	// occurrence counting in (3) covers cost positions and aggregate
	// results; a CDB cost variable used as ordinary data is a separate
	// leak.
	for _, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			pi := cx.Schemas.Info(sg.Atom.Key())
			for j, t := range sg.Atom.Args {
				v, ok := t.(ast.Var)
				if !ok {
					continue
				}
				if pi != nil && pi.HasCost && j == pi.CostIndex() {
					continue
				}
				if vars.has(v) {
					return fmt.Errorf("monotone: rule %q: CDB cost variable %s appears in a non-cost argument of %s", r, v, sg.Atom.String())
				}
			}
		case *ast.Agg:
			for ci := range sg.Conj {
				a := &sg.Conj[ci]
				pi := cx.Schemas.Info(a.Key())
				for j, t := range a.Args {
					v, ok := t.(ast.Var)
					if !ok {
						continue
					}
					if pi != nil && pi.HasCost && j == pi.CostIndex() {
						continue
					}
					if vars.has(v) {
						return fmt.Errorf("monotone: rule %q: CDB cost variable %s appears in a non-cost argument inside %s", r, v, sg)
					}
				}
			}
		}
	}
	return nil
}

// checkBuiltins verifies, for r with CDB cost variables cdbVars, the
// sufficient condition for E_r (the conjunction of built-in subgoals) to
// be monotonic in the sense of Definition 4.4: increasing the CDB cost
// variables (with respect to their lattices) must keep the conjunction
// satisfiable by re-choosing the built-in-only variables, and can only
// increase the head cost variable.
func (cx *Context) checkBuiltins(r *ast.Rule, cdbVars varMap[cdbVar]) error {
	// Direction environment: CDB cost vars move with their lattices;
	// variables bound by non-built-in subgoals otherwise are fixed;
	// built-in-only variables get directions derived from defining
	// equalities.
	dirs := make(varMap[dir], 0, 8)
	boundOutside := make(varMap[bool], 0, 8)
	vbuf := make([]ast.Var, 0, 8)
	for _, sg := range r.Body {
		if _, isB := sg.(*ast.Builtin); isB {
			continue
		}
		vbuf = sg.FreeVars(vbuf[:0])
		for _, v := range vbuf {
			boundOutside.set(v, true)
		}
	}
	for _, e := range boundOutside {
		v := e.v
		if c, isCost := cdbVars.get(v); isCost {
			l := c.l
			d := latticeDir(l)
			if d == dirMixed {
				// Boolean/set-valued CDB cost variables may flow only
				// through non-built-in subgoals; participating in E_r is
				// rejected below if they appear there.
				dirs.set(v, dirMixed)
			} else {
				dirs.set(v, d)
			}
		} else {
			dirs.set(v, dirFixed)
		}
	}

	var exprDir func(e ast.Expr) dir
	exprDir = func(e ast.Expr) dir {
		switch e := e.(type) {
		case ast.NumExpr, ast.ConstExpr:
			return dirFixed
		case ast.VarExpr:
			if d, ok := dirs.get(e.V); ok {
				return d
			}
			return dirMixed // not yet derived
		case *ast.BinExpr:
			l, rr := exprDir(e.L), exprDir(e.R)
			switch e.Op {
			case ast.OpAdd:
				return combineAdd(l, rr)
			case ast.OpSub:
				return combineAdd(l, flip(rr))
			case ast.OpMul, ast.OpDiv:
				if l == dirFixed && rr == dirFixed {
					return dirFixed
				}
				// The sign of the other factor is unknown statically, so
				// a moving operand makes the product direction unknown.
				return dirMixed
			}
		}
		return dirMixed
	}

	// Pass 1: derive directions for built-in-only variables from
	// definitional equalities, iterating to handle chains.
	builtins := []*ast.Builtin{}
	for _, sg := range r.Body {
		if b, ok := sg.(*ast.Builtin); ok {
			builtins = append(builtins, b)
		}
	}
	for pass := 0; pass < len(builtins)+1; pass++ {
		for _, b := range builtins {
			if b.Op != ast.OpEq {
				continue
			}
			tryDefine := func(lhs, rhs ast.Expr) {
				v, ok := lhs.(ast.VarExpr)
				if !ok || boundOutside.has(v.V) {
					return
				}
				if dirs.has(v.V) {
					return
				}
				d := exprDir(rhs)
				if d != dirMixed {
					dirs.set(v.V, d)
				}
			}
			tryDefine(b.L, b.R)
			tryDefine(b.R, b.L)
		}
	}

	// Pass 2: check every built-in subgoal.
	for _, b := range builtins {
		ld, rd := exprDir(b.L), exprDir(b.R)
		switch b.Op {
		case ast.OpEq:
			// A definitional equality (one side a built-in-only variable)
			// is always re-satisfiable by re-choosing that variable; its
			// direction was derived above. Otherwise both sides must be
			// fixed.
			if lv, ok := b.L.(ast.VarExpr); ok && !boundOutside.has(lv.V) {
				if dirs.has(lv.V) {
					continue
				}
			}
			if rv, ok := b.R.(ast.VarExpr); ok && !boundOutside.has(rv.V) {
				if dirs.has(rv.V) {
					continue
				}
			}
			if ld == dirFixed && rd == dirFixed {
				continue
			}
			return fmt.Errorf("monotone: rule %q: equality %s constrains a CDB cost variable non-definitionally", r, b)
		case ast.OpNe:
			if ld == dirFixed && rd == dirFixed {
				continue
			}
			return fmt.Errorf("monotone: rule %q: disequality %s involves a moving CDB cost value", r, b)
		case ast.OpGt, ast.OpGe:
			// L > R stays satisfied when L can only grow and R can only
			// shrink (numerically) as CDB costs increase.
			if (ld == dirFixed || ld == dirUp) && (rd == dirFixed || rd == dirDown) {
				continue
			}
			return fmt.Errorf("monotone: rule %q: comparison %s can be invalidated by a cost increase", r, b)
		case ast.OpLt, ast.OpLe:
			if (ld == dirFixed || ld == dirDown) && (rd == dirFixed || rd == dirUp) {
				continue
			}
			return fmt.Errorf("monotone: rule %q: comparison %s can be invalidated by a cost increase", r, b)
		}
	}

	// Pass 3: the head cost variable must move in the head lattice's
	// direction (Definition 4.4's σ1(v_h) ⊑ σ'2(v_h)).
	hp := cx.Schemas.Info(r.Head.Key())
	if hp != nil && hp.HasCost && cx.CDB[r.Head.Key()] && !r.IsFact() {
		hv, ok := r.Head.Args[hp.CostIndex()].(ast.Var)
		if ok {
			hd, derived := dirs.get(hv)
			if !derived {
				return fmt.Errorf("monotone: rule %q: head cost variable %s has no derivable direction (unbound or non-monotone definition)", r, hv)
			}
			want := latticeDir(hp.L)
			if want == dirMixed {
				// Boolean/set head lattices: the head cost must be bound
				// directly by a non-built-in subgoal of the same lattice.
				if boundOutside.has(hv) {
					c, isCost := cdbVars.get(hv)
					if !isCost || c.l.Name() == hp.L.Name() {
						return nil
					}
					return fmt.Errorf("monotone: rule %q: head cost variable %s typed %s but head is %s", r, hv, c.l.Name(), hp.L.Name())
				}
				return fmt.Errorf("monotone: rule %q: %s-valued head cost must be bound by an atom or aggregate, not arithmetic", r, hp.L.Name())
			}
			if hd != dirFixed && hd != want {
				return fmt.Errorf("monotone: rule %q: head cost variable %s moves %s but lattice %s requires %s",
					r, hv, dirName(hd), hp.L.Name(), dirName(want))
			}
			// Typing: when the head cost is bound directly by a body
			// occurrence, the lattices must agree.
			if c, isCost := cdbVars.get(hv); isCost && c.l.Name() != hp.L.Name() {
				return fmt.Errorf("monotone: rule %q: head cost variable %s typed %s but head is %s", r, hv, c.l.Name(), hp.L.Name())
			}
		}
	}
	return nil
}

func dirName(d dir) string {
	switch d {
	case dirFixed:
		return "fixed"
	case dirUp:
		return "upward"
	case dirDown:
		return "downward"
	}
	return "mixed"
}

// CheckAdmissible verifies Definition 4.5 for one rule.
func (cx *Context) CheckAdmissible(r *ast.Rule) error {
	cv := cx.cdbCostVars(r)
	if err := cx.checkWellFormed(r, cv); err != nil {
		return err
	}
	// Negative CDB subgoals always break monotonicity (§6.3).
	for _, sg := range r.Body {
		if l, ok := sg.(*ast.Lit); ok && l.Neg && cx.CDB[l.Atom.Key()] {
			return fmt.Errorf("monotone: rule %q: negation on CDB predicate %s", r, l.Atom.Key())
		}
	}
	// Each CDB aggregate must use a monotone function, or a
	// pseudo-monotone one over default-value CDB predicates only.
	for _, sg := range r.Body {
		g, ok := sg.(*ast.Agg)
		if !ok || !cx.isCDBAggregate(g) {
			continue
		}
		f, ok := lattice.AggregateByName(g.Func)
		if !ok {
			return fmt.Errorf("monotone: rule %q: unknown aggregate %s", r, g.Func)
		}
		if f.Monotone() {
			continue
		}
		if !f.PseudoMonotone() {
			return fmt.Errorf("monotone: rule %q: aggregate %s is neither monotone nor pseudo-monotone", r, g.Func)
		}
		for ci := range g.Conj {
			a := &g.Conj[ci]
			if !cx.CDB[a.Key()] {
				continue
			}
			pi := cx.Schemas.Info(a.Key())
			if pi == nil || !pi.HasDefault {
				return fmt.Errorf("monotone: rule %q: pseudo-monotone aggregate %s over CDB predicate %s that is not a default-value cost predicate (Definition 4.5)",
					r, g.Func, a.Key())
			}
		}
	}
	return cx.checkBuiltins(r, cv.vars)
}

// Report summarizes the classification of a whole program.
type Report struct {
	// Admissible is nil when every rule of every component passes
	// Definition 4.5, making each component monotonic (Lemma 4.1).
	Admissible error
	// RMonotonic is nil when every rule is r-monotonic in the sense of
	// Mumick et al. (Definition 5.1).
	RMonotonic error
	// AggregateStratified reports the absence of recursion through
	// aggregation (§5.1).
	AggregateStratified bool
	// NegationStratified reports the absence of recursion through
	// negation.
	NegationStratified bool
}

// CheckProgram classifies the program on the §5 ladder, checking
// admissibility componentwise (CDB/LDB is a per-component notion).
// Pure-EDB facts are admissible and r-monotonic by construction (they
// are the fixed input I of T_P), so only the rules are examined.
func CheckProgram(p *ast.Program, s ast.Schemas) Report {
	rules, _ := p.SplitFacts()
	rep, _ := Classify(deps.Build(p).SCCs(), rules, s)
	return rep
}

// Classify is CheckProgram for a caller that already holds the program's
// components (bottom-up) and its rules (pure-EDB facts split off):
// besides the Report it returns every component's own admissibility
// verdict (nil = admissible), which is what decides whether a component
// can run under the fixpoint engine or needs the well-founded fallback
// of §6.3.
func Classify(comps []*deps.Component, rules []*ast.Rule, s ast.Schemas) (Report, []error) {
	adm := make([]error, len(comps))
	for ci, crules := range deps.RulesByComponent(rules, comps) {
		if len(crules) > 0 {
			cdb, _ := deps.SplitRules(comps[ci], crules)
			adm[ci] = Admissible(crules, s, cdb)
		}
	}
	return Ladder(comps, rules, s, adm), adm
}

// Admissible checks Definition 4.5 on the rules of one component, whose
// own predicates cdb marks: nil when every rule is admissible, else the
// first rule's violation.
func Admissible(rules []*ast.Rule, s ast.Schemas, cdb map[ast.PredKey]bool) error {
	cx := &Context{Schemas: s, CDB: cdb}
	for _, r := range rules {
		if err := cx.CheckAdmissible(r); err != nil {
			return err
		}
	}
	return nil
}

// Ladder places the program on the §5 ladder given its components
// (bottom-up), its rules and every component's admissibility verdict
// (Admissible): the report's Admissible is the lowest component's
// violation, RMonotonic the first rule's in program order.
func Ladder(comps []*deps.Component, rules []*ast.Rule, s ast.Schemas, adm []error) Report {
	rep := Report{
		AggregateStratified: deps.AggregateStratified(comps),
		NegationStratified:  deps.NegationStratified(comps),
	}
	for _, err := range adm {
		if err != nil {
			rep.Admissible = err
			break
		}
	}
	for _, r := range rules {
		if err := CheckRMonotonic(r, s); err != nil {
			rep.RMonotonic = err
			break
		}
	}
	return rep
}
