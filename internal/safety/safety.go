// Package safety implements the range-restriction analysis of Definition
// 2.5 of Ross & Sagiv (PODS 1992): the computation of limited and
// quasi-limited variables and the per-rule safety conditions that, by
// Lemma 2.2, guarantee finiteness of each T_P application and of every
// aggregated multiset.
package safety

import (
	"fmt"
	"slices"

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
	f := analyze(r, s, aggRoles(r))
	v := Vars{Limited: map[ast.Var]bool{}, QuasiLimited: map[ast.Var]bool{}}
	for _, w := range f.limited {
		v.Limited[w] = true
	}
	for _, w := range f.quasi {
		v.QuasiLimited[w] = true
	}
	return v
}

// varSets is Vars as the checks use it: a rule has a handful of
// variables, so each set is a short list.
type varSets struct {
	limited, quasi []ast.Var
}

func (f *varSets) isLimited(w ast.Var) bool { return slices.Contains(f.limited, w) }
func (f *varSets) isQuasi(w ast.Var) bool   { return slices.Contains(f.quasi, w) }

// aggRoles returns the grouping/local classification of r's aggregate
// subgoals by body position (nil when r has none).
func aggRoles(r *ast.Rule) []ast.AggRoles {
	var roles []ast.AggRoles
	for i, sg := range r.Body {
		if _, ok := sg.(*ast.Agg); ok {
			if roles == nil {
				roles = make([]ast.AggRoles, len(r.Body))
			}
			roles[i] = ast.RolesOf(r, i)
		}
	}
	return roles
}

// analyze is Analyze given r's aggregate roles (aggRoles).
func analyze(r *ast.Rule, s ast.Schemas, roles []ast.AggRoles) varSets {
	v := varSets{limited: make([]ast.Var, 0, 8), quasi: make([]ast.Var, 0, 8)}

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
		mark := func(set *[]ast.Var, w ast.Var) {
			if !slices.Contains(*set, w) {
				*set = append(*set, w)
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
						mark(&v.quasi, w)
						continue
					}
					if !pi.HasDefault {
						mark(&v.limited, w)
					}
				}
			case *ast.Agg:
				rs := roles[i]
				// The aggregate variable is quasi-limited.
				mark(&v.quasi, sg.Result)
				// Local variables in limited arguments inside the subgoal
				// are limited; grouping variables of ?= subgoals likewise.
				for _, w := range rs.Local {
					if limitedIn(sg.Conj, w) {
						mark(&v.limited, w)
					}
				}
				if sg.Restricted {
					for _, w := range rs.Grouping {
						if limitedIn(sg.Conj, w) {
							mark(&v.limited, w)
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
						mark(&v.quasi, w)
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
						if v.isLimited(e.V) {
							mark(&v.limited, w.V)
						}
						if v.isQuasi(e.V) {
							mark(&v.quasi, w.V)
						}
					case ast.NumExpr, ast.ConstExpr:
						mark(&v.limited, w.V)
					default:
						// V = E with E an arithmetic expression over
						// limited/quasi-limited variables: V is
						// quasi-limited.
						all := true
						for _, x := range from.Vars(nil) {
							if !v.isLimited(x) && !v.isQuasi(x) {
								all = false
								break
							}
						}
						if all {
							mark(&v.quasi, w.V)
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
	roles := aggRoles(r)
	v := analyze(r, s, roles)
	ok := func(w ast.Var) bool { return v.isLimited(w) || v.isQuasi(w) }
	where := func(what string) string { return fmt.Sprintf("safety: rule %q: %s", r, what) }

	// checkAtomArgs checks the arguments of literal l, which the error
	// names as "what l".
	checkAtomArgs := func(l *ast.Lit, needQuasiCost bool, what string) error {
		a := &l.Atom
		pi := s.Info(a.Key())
		for j, t := range a.Args {
			w, isVar := t.(ast.Var)
			if !isVar {
				continue
			}
			if pi != nil && pi.HasCost && j == pi.CostIndex() {
				if needQuasiCost && !ok(w) {
					return fmt.Errorf("%s", where(fmt.Sprintf("cost variable %s of %s %s is not quasi-limited", w, what, l)))
				}
				continue
			}
			if !v.isLimited(w) {
				return fmt.Errorf("%s", where(fmt.Sprintf("variable %s of %s %s is not limited", w, what, l)))
			}
		}
		return nil
	}

	for i, sg := range r.Body {
		switch sg := sg.(type) {
		case *ast.Lit:
			pi := s.Info(sg.Atom.Key())
			if sg.Neg {
				if err := checkAtomArgs(sg, true, "negated subgoal"); err != nil {
					return err
				}
			} else if pi != nil && pi.HasDefault {
				// Positive subgoals of default-value cost predicates must
				// have limited non-cost arguments (§2.3.3).
				if err := checkAtomArgs(sg, false, "default-value subgoal"); err != nil {
					return err
				}
			}
		case *ast.Agg:
			rs := roles[i]
			for _, w := range rs.Grouping {
				if !v.isLimited(w) {
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
					if !v.isLimited(w) {
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
		if !v.isLimited(w) {
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
