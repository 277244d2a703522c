// Package rewrite implements the Ganguly–Greco–Zaniolo translation of
// min/max aggregate rules into normal rules with negation (§5.4 of Ross &
// Sagiv, PODS 1992): a rule
//
//	s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).
//
// becomes
//
//	s(X, Y, C)        :- path(X, Z, Y, C), not less_s(X, Y, C).
//	less_s(X, Y, C)   :- path(X, W, Y, C), path(X, Z, Y, D), D < C.
//
// evaluated under the well-founded semantics. Cost declarations are
// dropped: the rewritten program treats costs as ordinary data, which is
// why it enumerates *all* candidate costs (and diverges where the native
// monotonic engine, protected by the cost functional dependency,
// terminates — the contrast benchmarked in EXPERIMENTS.md E10).
package rewrite

import (
	"fmt"

	"repro/internal/ast"
)

// MinMax rewrites every rule containing a min or max aggregate subgoal.
// Rules with other aggregates are rejected (the paper notes the technique
// "does not apply to arbitrary aggregate operators").
func MinMax(prog *ast.Program) (*ast.Program, error) {
	out := &ast.Program{}
	fresh := 0
	for _, r := range prog.AsRules().Rules {
		aggIdx := -1
		for i, sg := range r.Body {
			if _, ok := sg.(*ast.Agg); ok {
				if aggIdx >= 0 {
					return nil, fmt.Errorf("rewrite: rule %q has several aggregates", r)
				}
				aggIdx = i
			}
		}
		if aggIdx < 0 {
			out.Rules = append(out.Rules, r)
			continue
		}
		g := r.Body[aggIdx].(*ast.Agg)
		var cmp ast.CmpOp
		switch g.Func {
		case "min":
			cmp = ast.OpLt
		case "max":
			cmp = ast.OpGt
		default:
			return nil, fmt.Errorf("rewrite: aggregate %s is not min/max (the GGZ rewriting does not apply, §5.4)", g.Func)
		}
		if g.MultisetVar == "" {
			return nil, fmt.Errorf("rewrite: rule %q aggregates an implicit cost", r)
		}
		roles := ast.RolesOf(r, aggIdx)
		fresh++
		lessPred := fmt.Sprintf("ggz_less_%s_%d", r.Head.Pred, fresh)

		keep := map[ast.Var]bool{}
		for _, v := range roles.Grouping {
			keep[v] = true
		}
		// Witness conjunction: the multiset variable becomes the result
		// variable (the extremum is realised by some tuple).
		witness := renameConj(g.Conj, g.MultisetVar, g.Result, keep, "w_")
		// Competitor conjunction keeps a fresh competitor value.
		compVar := ast.Var("Ggz_D")
		competitor := renameConj(g.Conj, g.MultisetVar, compVar, keep, "z_")

		lessArgs := make([]ast.Term, 0, len(roles.Grouping)+1)
		for _, v := range roles.Grouping {
			lessArgs = append(lessArgs, v)
		}
		lessArgs = append(lessArgs, g.Result)

		// Main rule: original body with the aggregate replaced by the
		// witness conjunction plus the negated dominance test.
		var body []ast.Subgoal
		for i, sg := range r.Body {
			if i != aggIdx {
				body = append(body, sg)
				continue
			}
			for ci := range witness {
				body = append(body, &ast.Lit{Atom: witness[ci]})
			}
			body = append(body, &ast.Lit{Atom: ast.Atom{Pred: lessPred, Args: lessArgs}, Neg: true})
		}
		out.Rules = append(out.Rules, &ast.Rule{Head: r.Head, Body: body})

		// Dominance rule: some competitor beats the witness value.
		var lessBody []ast.Subgoal
		wit2 := renameConj(g.Conj, g.MultisetVar, g.Result, keep, "y_")
		for ci := range wit2 {
			lessBody = append(lessBody, &ast.Lit{Atom: wit2[ci]})
		}
		for ci := range competitor {
			lessBody = append(lessBody, &ast.Lit{Atom: competitor[ci]})
		}
		lessBody = append(lessBody, &ast.Builtin{Op: cmp, L: ast.VarExpr{V: compVar}, R: ast.VarExpr{V: g.Result}})
		out.Rules = append(out.Rules, &ast.Rule{
			Head: ast.Atom{Pred: lessPred, Args: lessArgs},
			Body: lessBody,
		})
	}
	// Constraints and declarations are dropped: the rewritten program is
	// a normal program over plain tuples.
	return out, nil
}

// renameConj copies a conjunction, replacing the multiset variable with
// msRepl, keeping the variables in keep (the grouping variables) intact,
// and prefixing every other (local) variable so separate copies use
// disjoint locals.
func renameConj(conj []ast.Atom, msVar, msRepl ast.Var, keep map[ast.Var]bool, prefix string) []ast.Atom {
	out := make([]ast.Atom, len(conj))
	for i := range conj {
		a := conj[i]
		na := ast.Atom{Pred: a.Pred, Args: make([]ast.Term, len(a.Args))}
		for j, t := range a.Args {
			v, isVar := t.(ast.Var)
			switch {
			case !isVar:
				na.Args[j] = t
			case v == msVar:
				na.Args[j] = msRepl
			case keep[v]:
				na.Args[j] = v
			default:
				na.Args[j] = ast.Var(prefix + string(v))
			}
		}
		out[i] = na
	}
	return out
}
