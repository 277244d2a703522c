// Package consistency implements the cost-consistency analysis of §2.4-2.5
// of Ross & Sagiv (PODS 1992): cost-respecting rules via functional-
// dependency inference with Armstrong's axioms (Definition 2.7),
// containment mappings (Definition 2.8), integrity constraints (Definition
// 2.9) and the conflict-freedom condition (Definition 2.10), which by
// Lemma 2.3 is sufficient for cost-consistency (Definition 2.6).
package consistency

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/val"
)

// fd is a functional dependency From -> To over rule variables.
type fd struct {
	from []ast.Var
	to   ast.Var
}

// CostRespecting checks Definition 2.7: the cost argument of the head is
// functionally determined by the head's non-cost arguments, using the FDs
// of cost predicates in the body, the FDs of aggregates on their grouping
// variables, equality built-ins, and Armstrong's axioms (implemented as
// attribute-set closure).
func CostRespecting(r *ast.Rule, s ast.Schemas) error {
	hp := s.Info(r.Head.Key())
	if hp == nil || !hp.HasCost {
		return nil // no cost argument, trivially cost-respecting
	}
	costTerm := r.Head.Args[hp.CostIndex()]
	costVar, isVar := costTerm.(ast.Var)
	if !isVar {
		return nil // a constant cost is trivially determined
	}

	var fds []fd
	addAtomFD := func(a *ast.Atom) {
		pi := s.Info(a.Key())
		if pi == nil || !pi.HasCost {
			return
		}
		cv, ok := a.Args[pi.CostIndex()].(ast.Var)
		if !ok {
			return
		}
		var from []ast.Var
		for j, t := range a.Args {
			if j == pi.CostIndex() {
				continue
			}
			if w, ok := t.(ast.Var); ok {
				from = append(from, w)
			}
		}
		fds = append(fds, fd{from: from, to: cv})
	}
	for i, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			if !sg.Neg {
				addAtomFD(&sg.Atom)
			}
		case *ast.Agg:
			// An aggregate's value is functionally dependent on the
			// grouping variables.
			roles := ast.RolesOf(r, i)
			fds = append(fds, fd{from: roles.Grouping, to: sg.Result})
		case *ast.Builtin:
			if sg.Op != ast.OpEq {
				continue
			}
			if w, ok := sg.L.(ast.VarExpr); ok {
				fds = append(fds, fd{from: sg.R.Vars(nil), to: w.V})
			}
			if w, ok := sg.R.(ast.VarExpr); ok {
				fds = append(fds, fd{from: sg.L.Vars(nil), to: w.V})
			}
		}
	}

	// Closure of the head's non-cost variables.
	closure := make([]ast.Var, 0, len(r.Head.Args)+len(fds))
	for j, t := range r.Head.Args {
		if j == hp.CostIndex() {
			continue
		}
		if w, ok := t.(ast.Var); ok {
			closure = append(closure, w)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range fds {
			if slices.Contains(closure, d.to) {
				continue
			}
			all := true
			for _, w := range d.from {
				if !slices.Contains(closure, w) {
					all = false
					break
				}
			}
			if all {
				closure = append(closure, d.to)
				changed = true
			}
		}
	}
	if !slices.Contains(closure, costVar) {
		return fmt.Errorf("consistency: rule %q is not cost-respecting: head cost %s is not determined by the non-cost head arguments", r, costVar)
	}
	return nil
}

// side tells apart the variables of the two rules of a pair, and those
// of an integrity constraint: one name on two sides is two variables,
// so Definition 2.10's check copies and renames no rule.
type side uint8

const (
	left side = iota
	right
	icSide
)

// svar is a variable of one side.
type svar struct {
	s side
	v ast.Var
}

// term is a term as the check reads it: a side's variable, or a
// constant.
type term struct {
	isConst bool
	v       svar
	c       val.T
}

func (a term) equal(b term) bool {
	if a.isConst || b.isConst {
		return a.isConst && b.isConst && val.Same(a.c, b.c)
	}
	return a.v == b.v
}

// binding maps a side variable to a term.
type binding struct {
	v svar
	t term
}

// bindings is a map of side variables, which are few: a short list,
// searched in order.
type bindings []binding

func (b bindings) get(v svar) (term, bool) {
	for _, e := range b {
		if e.v == v {
			return e.t, true
		}
	}
	return term{}, false
}

// unifier maps side variables to terms. The check reads each rule of a
// pair through it, which is the unified rule of Definition 2.10 without
// building it.
type unifier struct{ b bindings }

// walk returns what v stands for under u.
func (u *unifier) walk(v svar) term {
	for {
		t, ok := u.b.get(v)
		if !ok {
			return term{v: v}
		}
		if t.isConst {
			return t
		}
		v = t.v
	}
}

// resolve returns what t, a term of side s, stands for under u.
func (u *unifier) resolve(s side, t ast.Term) term {
	if v, ok := t.(ast.Var); ok {
		return u.walk(svar{s, v})
	}
	return term{isConst: true, c: t.(ast.Const).V}
}

// resolveVar is resolve for a variable that must stay one, an aggregate's
// result or multiset variable: bound to a constant, it keeps its own
// name for the structure.
func (u *unifier) resolveVar(s side, v ast.Var) svar {
	if t := u.walk(svar{s, v}); !t.isConst {
		return t.v
	}
	return svar{s, v}
}

// unify extends u so that the left terms xs and the right terms ys
// become equal, or reports failure. Terms are variables and constants
// only (no function symbols), so unification is straightforward.
func (u *unifier) unify(xs, ys []ast.Term) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		x, y := u.resolve(left, xs[i]), u.resolve(right, ys[i])
		switch {
		case !x.isConst:
			if !y.isConst && y.v == x.v {
				continue
			}
			u.b = append(u.b, binding{x.v, y})
		case !y.isConst:
			u.b = append(u.b, binding{y.v, x})
		case !val.Same(x.c, y.c):
			return false
		}
	}
	return true
}

// matcher searches for a mapping h from the variables of one side's
// subgoals to the terms of another's, reading both through the unifier
// u. h lists its bindings in the order they were made, so a failed
// branch unbinds what it bound by truncating it.
type matcher struct {
	u unifier
	h bindings
}

// goals is a body as one side reads it.
type goals struct {
	body []ast.Subgoal
	s    side
}

// ContainmentMapping searches for a containment mapping (Definition 2.8)
// from r1 to r2: a variable mapping making the head of r1 identical to the
// head of r2 and each subgoal of r1 identical to some subgoal of r2.
func ContainmentMapping(r1, r2 *ast.Rule) bool {
	var m matcher
	return m.contains(left, r1, right, r2)
}

// contains reports whether a containment mapping leads from rule a of
// side sa to rule b of side sb.
func (m *matcher) contains(sa side, a *ast.Rule, sb side, b *ast.Rule) bool {
	m.reset()
	return m.atom(sa, &a.Head, sb, &b.Head) && m.subgoals(goals{a.Body, sa}, []goals{{b.Body, sb}})
}

func (m *matcher) reset() { m.h = m.h[:0] }

// bind maps v to t, or reports whether it is mapped to t already.
func (m *matcher) bind(v svar, t term) bool {
	if prev, ok := m.h.get(v); ok {
		return prev.equal(t)
	}
	m.h = append(m.h, binding{v, t})
	return true
}

// undo unbinds everything bound since h was n long.
func (m *matcher) undo(n int) { m.h = m.h[:n] }

// atom extends h so that applying it to a (of side sa) yields exactly b
// (of side sb).
func (m *matcher) atom(sa side, a *ast.Atom, sb side, b *ast.Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		ta, tb := m.u.resolve(sa, a.Args[i]), m.u.resolve(sb, b.Args[i])
		if !ta.isConst {
			if !m.bind(ta.v, tb) {
				return false
			}
		} else if !tb.isConst || !val.Same(ta.c, tb.c) {
			return false
		}
	}
	return true
}

// subgoals backtracks over assignments of src's subgoals to those of the
// bodies dst.
func (m *matcher) subgoals(src goals, dst []goals) bool {
	if len(src.body) == 0 {
		return true
	}
	s1 := src.body[0]
	rest := goals{src.body[1:], src.s}
	for _, d := range dst {
		for _, s2 := range d.body {
			n := len(m.h)
			if m.subgoal(src.s, s1, d.s, s2) && m.subgoals(rest, dst) {
				return true
			}
			m.undo(n)
		}
	}
	return false
}

func (m *matcher) subgoal(sa side, a ast.Subgoal, sb side, b ast.Subgoal) bool {
	switch a := a.(type) {
	case *ast.Lit:
		bl, ok := b.(*ast.Lit)
		return ok && a.Neg == bl.Neg && m.atom(sa, &a.Atom, sb, &bl.Atom)
	case *ast.Agg:
		bg, ok := b.(*ast.Agg)
		if !ok || a.Func != bg.Func || a.Restricted != bg.Restricted || len(a.Conj) != len(bg.Conj) {
			return false
		}
		if !m.bind(m.u.resolveVar(sa, a.Result), term{v: m.u.resolveVar(sb, bg.Result)}) {
			return false
		}
		if (a.MultisetVar == "") != (bg.MultisetVar == "") {
			return false
		}
		if a.MultisetVar != "" && !m.bind(m.u.resolveVar(sa, a.MultisetVar), term{v: m.u.resolveVar(sb, bg.MultisetVar)}) {
			return false
		}
		for i := range a.Conj {
			if !m.atom(sa, &a.Conj[i], sb, &bg.Conj[i]) {
				return false
			}
		}
		return true
	case *ast.Builtin:
		bb, ok := b.(*ast.Builtin)
		return ok && a.Op == bb.Op && m.expr(sa, a.L, sb, bb.L) && m.expr(sa, a.R, sb, bb.R)
	}
	return false
}

// expr matches expression a (of side sa) into b (of side sb). A variable
// the unifier binds to a constant reads as that constant.
func (m *matcher) expr(sa side, a ast.Expr, sb side, b ast.Expr) bool {
	switch a := a.(type) {
	case ast.VarExpr:
		ta := m.u.walk(svar{sa, a.V})
		if ta.isConst {
			return m.constExpr(ta.c, sb, b)
		}
		switch b := b.(type) {
		case ast.VarExpr:
			return m.bind(ta.v, m.u.walk(svar{sb, b.V}))
		case ast.NumExpr:
			return m.bind(ta.v, term{isConst: true, c: val.Number(b.N)})
		case ast.ConstExpr:
			return m.bind(ta.v, term{isConst: true, c: b.V})
		}
		return false
	case ast.NumExpr:
		bn, ok := b.(ast.NumExpr)
		return ok && a.N == bn.N
	case ast.ConstExpr:
		return m.constExpr(a.V, sb, b)
	case *ast.BinExpr:
		bb, ok := b.(*ast.BinExpr)
		return ok && a.Op == bb.Op && m.expr(sa, a.L, sb, bb.L) && m.expr(sa, a.R, sb, bb.R)
	}
	return false
}

// constExpr matches the constant c into b (of side sb): b must be, or
// read as, the same constant.
func (m *matcher) constExpr(c val.T, sb side, b ast.Expr) bool {
	switch b := b.(type) {
	case ast.ConstExpr:
		return val.Same(c, b.V)
	case ast.VarExpr:
		tb := m.u.walk(svar{sb, b.V})
		return tb.isConst && val.Same(c, tb.c)
	}
	return false
}

// falseGroundBuiltin reports whether the body (of side s) contains a
// builtin subgoal that the unifier makes ground and that evaluates to
// false (the unified rules then cannot fire together).
func (m *matcher) falseGroundBuiltin(s side, body []ast.Subgoal) bool {
	lookup := func(v ast.Var) (val.T, bool) {
		t := m.u.walk(svar{s, v})
		return t.c, t.isConst
	}
	for _, sg := range body {
		b, ok := sg.(*ast.Builtin)
		if !ok || !m.ground(s, b.L) || !m.ground(s, b.R) {
			continue
		}
		l, err := ast.EvalExpr(b.L, lookup)
		if err != nil {
			continue
		}
		r, err := ast.EvalExpr(b.R, lookup)
		if err != nil {
			continue
		}
		res, err := ast.Compare(b.Op, l, r)
		if err == nil && !res {
			return true
		}
	}
	return false
}

// ground reports whether the unifier binds every variable of e (of side
// s) to a constant.
func (m *matcher) ground(s side, e ast.Expr) bool {
	switch e := e.(type) {
	case ast.VarExpr:
		return m.u.walk(svar{s, e.V}).isConst
	case *ast.BinExpr:
		return m.ground(s, e.L) && m.ground(s, e.R)
	}
	return true
}

// violatesConstraint reports whether the unified bodies of a pair (left
// r1, right r2) together contain an instance of some integrity
// constraint: a substitution mapping every (positive-literal) subgoal of
// the constraint to a subgoal of the bodies.
func (m *matcher) violatesConstraint(r1, r2 *ast.Rule, ics []*ast.Constraint) bool {
	for _, ic := range ics {
		// Only positive-literal constraints participate (Definition 2.9's
		// examples are conjunctions of atoms).
		ok := len(ic.Body) > 0
		for _, sg := range ic.Body {
			if l, isLit := sg.(*ast.Lit); !isLit || l.Neg {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		m.reset()
		if m.subgoals(goals{ic.Body, icSide}, []goals{{r1.Body, left}, {r2.Body, right}}) {
			return true
		}
	}
	return false
}

// FactConflict is the error for two ground facts that give one tuple of
// a cost predicate two different costs — the only way two facts can
// violate the cost functional dependency of §2.3.1.
func FactConflict(prev, r *ast.Rule) error {
	return fmt.Errorf("consistency: facts %q and %q assign different costs", prev, r)
}

// ConflictFree checks Definition 2.10: every rule is cost-respecting, and
// every pair of rules whose heads unify on the non-cost arguments either
// admits a containment mapping between the unified rules or jointly
// contains an instance of an integrity constraint. By Lemma 2.3 this
// implies cost-consistency.
//
// The definition quantifies over pairs of rules, but a ground fact is
// trivially cost-respecting and two ground facts conflict exactly when
// they give one tuple two costs, so facts are settled in one hash pass
// and the pair loop runs per head predicate over the pairs that involve
// a rule proper: a predicate defined by facts alone costs O(1) per fact,
// whatever the size of the EDB. Fact rows take part as the rules they
// were written as (ast.Program.AsRules).
func ConflictFree(p *ast.Program, s ast.Schemas) error {
	p = p.AsRules()
	for _, r := range p.Rules {
		if r.IsGroundFact() {
			continue // a constant cost is trivially determined
		}
		if err := CostRespecting(r, s); err != nil {
			return err
		}
	}
	// byHead[k] lists, in program order, the rules of cost predicate k,
	// proper[k] those among them that are not ground facts, and heads[i]
	// is rule i's cost predicate ("" for a non-cost head).
	byHead := map[ast.PredKey][]int{}
	proper := map[ast.PredKey][]int{}
	heads := make([]ast.PredKey, len(p.Rules))
	factKey := map[string]*ast.Rule{}
	var kbuf []byte
	var memo ast.KeyMemo
	var key ast.PredKey
	var hp *ast.PredInfo
	for i, r := range p.Rules {
		if k := memo.Of(&r.Head); k != key {
			key, hp = k, s.Info(k)
		}
		if hp == nil || !hp.HasCost {
			continue
		}
		heads[i] = key
		byHead[key] = append(byHead[key], i)
		if !r.IsGroundFact() {
			proper[key] = append(proper[key], i)
			continue
		}
		// A fact is keyed by its predicate and its non-cost arguments'
		// words (val.AppendWordKey); two facts conflict when their costs
		// are not one value.
		kbuf = append(append(kbuf[:0], key...), 0)
		for k, t := range r.Head.Args {
			if k == hp.CostIndex() {
				continue
			}
			kbuf = val.AppendWordKey(kbuf, []val.T{t.(ast.Const).V})
		}
		if prev, dup := factKey[string(kbuf)]; dup {
			c1 := prev.Head.Args[hp.CostIndex()].(ast.Const)
			c2 := r.Head.Args[hp.CostIndex()].(ast.Const)
			if !val.Same(c1.V, c2.V) {
				return FactConflict(prev, r)
			}
		} else {
			factKey[string(kbuf)] = r
		}
	}
	if len(proper) == 0 {
		return nil // no cost predicate has a rule proper: nothing to pair
	}
	// Pairs are visited in the order of the plain double loop (i < j in
	// program order), so the first conflict reported is the same one.
	for i, r1 := range p.Rules {
		key := heads[i]
		if key == "" || len(proper[key]) == 0 {
			continue
		}
		partners := byHead[key]
		if r1.IsGroundFact() {
			partners = proper[key] // fact/fact pairs were settled above
		}
		for _, j := range partners {
			if j <= i {
				continue
			}
			if err := checkPair(p, s.Info(key), r1, p.Rules[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPair applies Definition 2.10 to two rules with the same cost
// predicate hp in their heads.
func checkPair(p *ast.Program, hp *ast.PredInfo, r1, r2 *ast.Rule) error {
	// Unify the heads restricted to non-cost arguments.
	n := hp.NonCost()
	var m matcher
	if !m.u.unify(r1.Head.Args[:n], r2.Head.Args[:n]) {
		return nil
	}
	if m.contains(left, r1, right, r2) || m.contains(right, r2, left, r1) {
		return nil
	}
	if m.violatesConstraint(r1, r2, p.Constraints) {
		return nil
	}
	// Definition 2.10 condition (a): the unified bodies cannot be
	// simultaneously satisfied. A ground builtin made false by the
	// unification (e.g. "t != t" after Y ↦ t) settles that.
	if m.falseGroundBuiltin(left, r1.Body) || m.falseGroundBuiltin(right, r2.Body) {
		return nil
	}
	return fmt.Errorf("consistency: rules %q and %q may generate conflicting costs for %s (no containment mapping, no integrity constraint applies)",
		r1, r2, hp.Key)
}
