// Package safety implements the range-restriction analysis of Definition
// 2.5 of Ross & Sagiv (PODS 1992): the computation of limited and
// quasi-limited variables and the per-rule safety conditions that, by
// Lemma 2.2, guarantee finiteness of each T_P application and of every
// aggregated multiset.
package safety

import (
	"fmt"

	"repro/internal/ast"
)

// Vars is the result of the limited/quasi-limited fixpoint for one rule.
type Vars struct {
	Limited      map[ast.Var]bool
	QuasiLimited map[ast.Var]bool
}

// Analyze computes the limited and quasi-limited variables of r
// (Definition 2.5). A limited argument is a non-cost argument of a
// predicate with no default declaration.
func Analyze(r *ast.Rule, s ast.Schemas) Vars {
	v := Vars{Limited: map[ast.Var]bool{}, QuasiLimited: map[ast.Var]bool{}}

	// roles[i] caches grouping/local classification for aggregate body
	// positions.
	roles := map[int]ast.AggRoles{}
	for i, sg := range r.Body {
		if _, ok := sg.(*ast.Agg); ok {
			roles[i] = ast.RolesOf(r, i)
		}
	}

	// limitedInConj reports whether v appears in a limited argument of
	// some atom of the conjunction.
	limitedIn := func(atoms []ast.Atom, w ast.Var) bool {
		for ai := range atoms {
			a := &atoms[ai]
			pi := s.Info(a.Key())
			if pi == nil || pi.HasDefault {
				continue
			}
			for j, t := range a.Args {
				if pi.HasCost && j == pi.CostIndex() {
					continue
				}
				if x, ok := t.(ast.Var); ok && x == w {
					return true
				}
			}
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		mark := func(m map[ast.Var]bool, w ast.Var) {
			if !m[w] {
				m[w] = true
				changed = true
			}
		}
		for i, sg := range r.Body {
			switch sg := sg.(type) {
			case *ast.Lit:
				if sg.Neg {
					continue
				}
				pi := s.Info(sg.Atom.Key())
				if pi == nil {
					continue
				}
				for j, t := range sg.Atom.Args {
					w, ok := t.(ast.Var)
					if !ok {
						continue
					}
					if pi.HasCost && j == pi.CostIndex() {
						// Cost arguments of positive subgoals make their
						// variable quasi-limited.
						mark(v.QuasiLimited, w)
						continue
					}
					if !pi.HasDefault {
						mark(v.Limited, w)
					}
				}
			case *ast.Agg:
				rs := roles[i]
				// The aggregate variable is quasi-limited.
				mark(v.QuasiLimited, sg.Result)
				// Local variables in limited arguments inside the subgoal
				// are limited; grouping variables of ?= subgoals likewise.
				for _, w := range rs.Local {
					if limitedIn(sg.Conj, w) {
						mark(v.Limited, w)
					}
				}
				if sg.Restricted {
					for _, w := range rs.Grouping {
						if limitedIn(sg.Conj, w) {
							mark(v.Limited, w)
						}
					}
				}
				// Cost-argument variables inside the aggregation are
				// quasi-limited.
				for ci := range sg.Conj {
					a := &sg.Conj[ci]
					pi := s.Info(a.Key())
					if pi == nil || !pi.HasCost {
						continue
					}
					if w, ok := a.Args[pi.CostIndex()].(ast.Var); ok {
						mark(v.QuasiLimited, w)
					}
				}
			case *ast.Builtin:
				if sg.Op != ast.OpEq {
					continue
				}
				// V = Y / Y = V with Y limited; V = a with a constant.
				propagate := func(to, from ast.Expr) {
					w, ok := to.(ast.VarExpr)
					if !ok {
						return
					}
					switch e := from.(type) {
					case ast.VarExpr:
						if v.Limited[e.V] {
							mark(v.Limited, w.V)
						}
						if v.QuasiLimited[e.V] {
							mark(v.QuasiLimited, w.V)
						}
					case ast.NumExpr, ast.ConstExpr:
						mark(v.Limited, w.V)
					default:
						// V = E with E an arithmetic expression over
						// limited/quasi-limited variables: V is
						// quasi-limited.
						all := true
						for _, x := range from.Vars(nil) {
							if !v.Limited[x] && !v.QuasiLimited[x] {
								all = false
								break
							}
						}
						if all {
							mark(v.QuasiLimited, w.V)
						}
					}
				}
				propagate(sg.L, sg.R)
				propagate(sg.R, sg.L)
			}
		}
	}
	return v
}

// CheckRule verifies the range-restriction conditions of Definition 2.5.
func CheckRule(r *ast.Rule, s ast.Schemas) error {
	v := Analyze(r, s)
	ok := func(w ast.Var) bool { return v.Limited[w] || v.QuasiLimited[w] }
	where := func(what string) string { return fmt.Sprintf("safety: rule %q: %s", r, what) }

	checkAtomArgs := func(a *ast.Atom, needQuasiCost bool, ctx string) error {
		pi := s.Info(a.Key())
		for j, t := range a.Args {
			w, isVar := t.(ast.Var)
			if !isVar {
				continue
			}
			if pi != nil && pi.HasCost && j == pi.CostIndex() {
				if needQuasiCost && !ok(w) {
					return fmt.Errorf("%s", where(fmt.Sprintf("cost variable %s of %s is not quasi-limited", w, ctx)))
				}
				continue
			}
			if !v.Limited[w] {
				return fmt.Errorf("%s", where(fmt.Sprintf("variable %s of %s is not limited", w, ctx)))
			}
		}
		return nil
	}

	for i, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			pi := s.Info(sg.Atom.Key())
			if sg.Neg {
				if err := checkAtomArgs(&sg.Atom, true, "negated subgoal "+sg.String()); err != nil {
					return err
				}
			} else if pi != nil && pi.HasDefault {
				// Positive subgoals of default-value cost predicates must
				// have limited non-cost arguments (§2.3.3).
				if err := checkAtomArgs(&sg.Atom, false, "default-value subgoal "+sg.String()); err != nil {
					return err
				}
			}
		case *ast.Agg:
			rs := ast.RolesOf(r, i)
			for _, w := range rs.Grouping {
				if !v.Limited[w] {
					return fmt.Errorf("%s", where(fmt.Sprintf("grouping variable %s of %s is not limited", w, sg)))
				}
			}
			// Local variables in non-cost arguments must be limited, and
			// default-value predicates inside the aggregation must have
			// limited non-cost arguments.
			for ci := range sg.Conj {
				a := &sg.Conj[ci]
				pi := s.Info(a.Key())
				for j, t := range a.Args {
					w, isVar := t.(ast.Var)
					if !isVar || w == sg.MultisetVar {
						continue
					}
					isCost := pi != nil && pi.HasCost && j == pi.CostIndex()
					if isCost {
						continue
					}
					if !v.Limited[w] {
						return fmt.Errorf("%s", where(fmt.Sprintf("variable %s inside %s is not limited", w, sg)))
					}
				}
			}
		case *ast.Builtin:
			for _, w := range sg.FreeVars(nil) {
				if !ok(w) {
					return fmt.Errorf("%s", where(fmt.Sprintf("variable %s of builtin %s is neither limited nor quasi-limited", w, sg)))
				}
			}
		}
	}
	// Head: non-cost variables limited, cost variable quasi-limited.
	hp := s.Info(r.Head.Key())
	for j, t := range r.Head.Args {
		w, isVar := t.(ast.Var)
		if !isVar {
			continue
		}
		if hp != nil && hp.HasCost && j == hp.CostIndex() {
			if !ok(w) {
				return fmt.Errorf("%s", where(fmt.Sprintf("head cost variable %s is not quasi-limited", w)))
			}
			continue
		}
		if !v.Limited[w] {
			return fmt.Errorf("%s", where(fmt.Sprintf("head variable %s is not limited", w)))
		}
	}
	return nil
}

// CheckProgram applies CheckRule to every rule. Ground facts have no
// variables to limit, so they cost a groundness test each.
func CheckProgram(p *ast.Program, s ast.Schemas) error {
	for _, r := range p.Rules {
		if r.IsGroundFact() {
			continue
		}
		if err := CheckRule(r, s); err != nil {
			return err
		}
	}
	return nil
}
