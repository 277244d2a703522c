// Package consistency implements the cost-consistency analysis of §2.4-2.5
// of Ross & Sagiv (PODS 1992): cost-respecting rules via functional-
// dependency inference with Armstrong's axioms (Definition 2.7),
// containment mappings (Definition 2.8), integrity constraints (Definition
// 2.9) and the conflict-freedom condition (Definition 2.10), which by
// Lemma 2.3 is sufficient for cost-consistency (Definition 2.6).
package consistency

import (
	"fmt"

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
	closure := map[ast.Var]bool{}
	for j, t := range r.Head.Args {
		if j == hp.CostIndex() {
			continue
		}
		if w, ok := t.(ast.Var); ok {
			closure[w] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range fds {
			if closure[d.to] {
				continue
			}
			all := true
			for _, w := range d.from {
				if !closure[w] {
					all = false
					break
				}
			}
			if all {
				closure[d.to] = true
				changed = true
			}
		}
	}
	if !closure[costVar] {
		return fmt.Errorf("consistency: rule %q is not cost-respecting: head cost %s is not determined by the non-cost head arguments", r, costVar)
	}
	return nil
}

// subst maps variables to terms.
type subst map[ast.Var]ast.Term

func applyTerm(t ast.Term, sb subst) ast.Term {
	if v, ok := t.(ast.Var); ok {
		if r, bound := sb[v]; bound {
			return applyTerm(r, sb)
		}
	}
	return t
}

func applyAtom(a *ast.Atom, sb subst) ast.Atom {
	out := ast.Atom{Pred: a.Pred, Args: make([]ast.Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = applyTerm(t, sb)
	}
	return out
}

// unifyTerms extends sb so that the two term lists become equal, or
// reports failure. Terms are variables and constants only (no function
// symbols), so unification is straightforward.
func unifyTerms(xs, ys []ast.Term, sb subst) (subst, bool) {
	if len(xs) != len(ys) {
		return nil, false
	}
	for i := range xs {
		x, y := applyTerm(xs[i], sb), applyTerm(ys[i], sb)
		switch xv := x.(type) {
		case ast.Var:
			if yv, ok := y.(ast.Var); ok && yv == xv {
				continue
			}
			sb[xv] = y
		case ast.Const:
			switch yv := y.(type) {
			case ast.Var:
				sb[yv] = x
			case ast.Const:
				if xv.V.Key() != yv.V.Key() {
					return nil, false
				}
			}
		}
	}
	return sb, true
}

// renameRule returns a copy of r with every variable prefixed, keeping the
// two rules' variable spaces disjoint before unification.
func renameRule(r *ast.Rule, prefix string) *ast.Rule {
	ren := func(t ast.Term) ast.Term {
		if v, ok := t.(ast.Var); ok {
			return ast.Var(prefix + string(v))
		}
		return t
	}
	renAtom := func(a ast.Atom) ast.Atom {
		out := ast.Atom{Pred: a.Pred, Args: make([]ast.Term, len(a.Args))}
		for i, t := range a.Args {
			out.Args[i] = ren(t)
		}
		return out
	}
	var renExpr func(e ast.Expr) ast.Expr
	renExpr = func(e ast.Expr) ast.Expr {
		switch e := e.(type) {
		case ast.VarExpr:
			return ast.VarExpr{V: ast.Var(prefix + string(e.V))}
		case *ast.BinExpr:
			return &ast.BinExpr{Op: e.Op, L: renExpr(e.L), R: renExpr(e.R)}
		default:
			return e
		}
	}
	out := &ast.Rule{Head: renAtom(r.Head)}
	for _, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			out.Body = append(out.Body, &ast.Lit{Atom: renAtom(sg.Atom), Neg: sg.Neg})
		case *ast.Agg:
			g := &ast.Agg{Result: ast.Var(prefix + string(sg.Result)), Restricted: sg.Restricted, Func: sg.Func}
			if sg.MultisetVar != "" {
				g.MultisetVar = ast.Var(prefix + string(sg.MultisetVar))
			}
			for _, a := range sg.Conj {
				g.Conj = append(g.Conj, renAtom(a))
			}
			out.Body = append(out.Body, g)
		case *ast.Builtin:
			out.Body = append(out.Body, &ast.Builtin{Op: sg.Op, L: renExpr(sg.L), R: renExpr(sg.R)})
		}
	}
	return out
}

// substRule applies sb to a whole rule.
func substRule(r *ast.Rule, sb subst) *ast.Rule {
	var sExpr func(e ast.Expr) ast.Expr
	sExpr = func(e ast.Expr) ast.Expr {
		switch e := e.(type) {
		case ast.VarExpr:
			t := applyTerm(e.V, sb)
			switch t := t.(type) {
			case ast.Var:
				return ast.VarExpr{V: t}
			case ast.Const:
				return ast.ConstExpr{V: t.V}
			}
		case *ast.BinExpr:
			return &ast.BinExpr{Op: e.Op, L: sExpr(e.L), R: sExpr(e.R)}
		}
		return e
	}
	out := &ast.Rule{Head: applyAtom(&r.Head, sb)}
	for _, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			out.Body = append(out.Body, &ast.Lit{Atom: applyAtom(&sg.Atom, sb), Neg: sg.Neg})
		case *ast.Agg:
			g := &ast.Agg{Restricted: sg.Restricted, Func: sg.Func}
			if t := applyTerm(sg.Result, sb); true {
				if v, ok := t.(ast.Var); ok {
					g.Result = v
				} else {
					g.Result = sg.Result // result bound to a constant: keep the variable name for structure
				}
			}
			g.MultisetVar = sg.MultisetVar
			if sg.MultisetVar != "" {
				if v, ok := applyTerm(sg.MultisetVar, sb).(ast.Var); ok {
					g.MultisetVar = v
				}
			}
			for _, a := range sg.Conj {
				g.Conj = append(g.Conj, applyAtom(&a, sb))
			}
			out.Body = append(out.Body, g)
		case *ast.Builtin:
			out.Body = append(out.Body, &ast.Builtin{Op: sg.Op, L: sExpr(sg.L), R: sExpr(sg.R)})
		}
	}
	return out
}

// ContainmentMapping searches for a containment mapping (Definition 2.8)
// from r1 to r2: a variable mapping making the head of r1 identical to the
// head of r2 and each subgoal of r1 identical to some subgoal of r2.
func ContainmentMapping(r1, r2 *ast.Rule) bool {
	h := map[ast.Var]ast.Term{}
	if !matchAtomInto(&r1.Head, &r2.Head, h) {
		return false
	}
	return matchSubgoals(r1.Body, r2.Body, h)
}

// matchAtomInto extends h so that applying it to a yields exactly b.
func matchAtomInto(a, b *ast.Atom, h map[ast.Var]ast.Term) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		switch at := a.Args[i].(type) {
		case ast.Var:
			if prev, ok := h[at]; ok {
				if !termEqual(prev, b.Args[i]) {
					return false
				}
			} else {
				h[at] = b.Args[i]
			}
		case ast.Const:
			bt, ok := b.Args[i].(ast.Const)
			if !ok || at.V.Key() != bt.V.Key() {
				return false
			}
		}
	}
	return true
}

func termEqual(a, b ast.Term) bool {
	switch a := a.(type) {
	case ast.Var:
		bv, ok := b.(ast.Var)
		return ok && a == bv
	case ast.Const:
		bc, ok := b.(ast.Const)
		return ok && a.V.Key() == bc.V.Key()
	}
	return false
}

// matchSubgoals backtracks over assignments of r1 subgoals to r2 subgoals.
func matchSubgoals(body1, body2 []ast.Subgoal, h map[ast.Var]ast.Term) bool {
	if len(body1) == 0 {
		return true
	}
	s1 := body1[0]
	for _, s2 := range body2 {
		snap := snapshot(h)
		if matchSubgoal(s1, s2, h) && matchSubgoals(body1[1:], body2, h) {
			return true
		}
		restore(h, snap)
	}
	return false
}

func snapshot(h map[ast.Var]ast.Term) map[ast.Var]ast.Term {
	c := make(map[ast.Var]ast.Term, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func restore(h, snap map[ast.Var]ast.Term) {
	for k := range h {
		if _, ok := snap[k]; !ok {
			delete(h, k)
		}
	}
	for k, v := range snap {
		h[k] = v
	}
}

func matchSubgoal(a, b ast.Subgoal, h map[ast.Var]ast.Term) bool {
	switch a := a.(type) {
	case *ast.Lit:
		bl, ok := b.(*ast.Lit)
		return ok && a.Neg == bl.Neg && matchAtomInto(&a.Atom, &bl.Atom, h)
	case *ast.Agg:
		bg, ok := b.(*ast.Agg)
		if !ok || a.Func != bg.Func || a.Restricted != bg.Restricted || len(a.Conj) != len(bg.Conj) {
			return false
		}
		if !matchVarInto(a.Result, ast.Term(bg.Result), h) {
			return false
		}
		if (a.MultisetVar == "") != (bg.MultisetVar == "") {
			return false
		}
		if a.MultisetVar != "" && !matchVarInto(a.MultisetVar, ast.Term(bg.MultisetVar), h) {
			return false
		}
		for i := range a.Conj {
			if !matchAtomInto(&a.Conj[i], &bg.Conj[i], h) {
				return false
			}
		}
		return true
	case *ast.Builtin:
		bb, ok := b.(*ast.Builtin)
		return ok && a.Op == bb.Op && matchExprInto(a.L, bb.L, h) && matchExprInto(a.R, bb.R, h)
	}
	return false
}

func matchVarInto(v ast.Var, t ast.Term, h map[ast.Var]ast.Term) bool {
	if prev, ok := h[v]; ok {
		return termEqual(prev, t)
	}
	h[v] = t
	return true
}

func matchExprInto(a, b ast.Expr, h map[ast.Var]ast.Term) bool {
	switch a := a.(type) {
	case ast.VarExpr:
		switch b := b.(type) {
		case ast.VarExpr:
			return matchVarInto(a.V, ast.Term(b.V), h)
		case ast.NumExpr:
			return matchVarInto(a.V, ast.Num(b.N), h)
		case ast.ConstExpr:
			return matchVarInto(a.V, ast.Const{V: b.V}, h)
		}
		return false
	case ast.NumExpr:
		bn, ok := b.(ast.NumExpr)
		return ok && a.N == bn.N
	case ast.ConstExpr:
		bc, ok := b.(ast.ConstExpr)
		return ok && a.V.Key() == bc.V.Key()
	case *ast.BinExpr:
		bb, ok := b.(*ast.BinExpr)
		return ok && a.Op == bb.Op && matchExprInto(a.L, bb.L, h) && matchExprInto(a.R, bb.R, h)
	}
	return false
}

// hasFalseGroundBuiltin reports whether the body contains a fully ground
// builtin subgoal that evaluates to false (the unified rules then cannot
// fire together).
func hasFalseGroundBuiltin(body []ast.Subgoal) bool {
	noVars := func(v ast.Var) (val.T, bool) { return val.T{}, false }
	for _, sg := range body {
		b, ok := sg.(*ast.Builtin)
		if !ok {
			continue
		}
		if len(b.L.Vars(nil)) > 0 || len(b.R.Vars(nil)) > 0 {
			continue
		}
		l, err := ast.EvalExpr(b.L, noVars)
		if err != nil {
			continue
		}
		r, err := ast.EvalExpr(b.R, noVars)
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

// violatesConstraint reports whether the combined body contains an
// instance of some integrity constraint: a substitution mapping every
// (positive-literal) subgoal of the constraint to a subgoal of the body.
func violatesConstraint(body []ast.Subgoal, ics []*ast.Constraint) bool {
	for _, ic := range ics {
		// Only positive-literal constraints participate (Definition 2.9's
		// examples are conjunctions of atoms).
		var icLits []ast.Subgoal
		ok := true
		for _, sg := range ic.Body {
			l, isLit := sg.(*ast.Lit)
			if !isLit || l.Neg {
				ok = false
				break
			}
			icLits = append(icLits, l)
		}
		if !ok || len(icLits) == 0 {
			continue
		}
		h := map[ast.Var]ast.Term{}
		if matchSubgoals(icLits, body, h) {
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
		kbuf = append(kbuf[:0], key...)
		for k, t := range r.Head.Args {
			if k == hp.CostIndex() {
				continue
			}
			kbuf = append(kbuf, 0)
			kbuf = val.AppendKey(kbuf, t.(ast.Const).V)
		}
		if prev, dup := factKey[string(kbuf)]; dup {
			c1 := prev.Head.Args[hp.CostIndex()].(ast.Const)
			c2 := r.Head.Args[hp.CostIndex()].(ast.Const)
			if c1.V.Key() != c2.V.Key() {
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
	a := renameRule(r1, "l_")
	b := renameRule(r2, "r_")
	// Unify the heads restricted to non-cost arguments.
	n := hp.NonCost()
	sb, ok := unifyTerms(a.Head.Args[:n], b.Head.Args[:n], subst{})
	if !ok {
		return nil
	}
	ua := substRule(a, sb)
	ub := substRule(b, sb)
	if ContainmentMapping(ua, ub) || ContainmentMapping(ub, ua) {
		return nil
	}
	if violatesConstraint(append(append([]ast.Subgoal{}, ua.Body...), ub.Body...), p.Constraints) {
		return nil
	}
	// Definition 2.10 condition (a): the unified bodies cannot be
	// simultaneously satisfied. A ground builtin made false by the
	// unification (e.g. "t != t" after Y ↦ t) settles that.
	if hasFalseGroundBuiltin(ua.Body) || hasFalseGroundBuiltin(ub.Body) {
		return nil
	}
	return fmt.Errorf("consistency: rules %q and %q may generate conflicting costs for %s (no containment mapping, no integrity constraint applies)",
		r1, r2, hp.Key)
}
