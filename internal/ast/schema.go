package ast

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/lattice"
)

// PredInfo is the resolved schema of one predicate.
type PredInfo struct {
	Key   PredKey
	Arity int
	// HasCost marks a cost predicate; by convention (§2.3) the cost
	// argument is the final argument.
	HasCost bool
	// L is the cost lattice (nil unless HasCost).
	L lattice.Lattice
	// HasDefault marks a default-value cost predicate (§2.3.2). The
	// default value is always the lattice bottom, which the paper insists
	// on ("the default truth value is the minimal element").
	HasDefault bool
}

// NonCost returns the number of non-cost arguments.
func (pi *PredInfo) NonCost() int {
	if pi.HasCost {
		return pi.Arity - 1
	}
	return pi.Arity
}

// CostIndex returns the index of the cost argument, or -1.
func (pi *PredInfo) CostIndex() int {
	if pi.HasCost {
		return pi.Arity - 1
	}
	return -1
}

// Schemas maps predicate keys to their resolved schemas.
type Schemas map[PredKey]*PredInfo

// Info returns the schema for k, materializing a plain (non-cost) schema
// for predicates that were never declared.
func (s Schemas) Info(k PredKey) *PredInfo {
	if pi, ok := s[k]; ok {
		return pi
	}
	return nil
}

// BuildSchemas resolves the declarations of a program into per-predicate
// schemas and validates them: lattices must exist, declarations must be
// unique, and defaults are only legal on declared cost predicates.
func BuildSchemas(p *Program) (Schemas, error) {
	s := Schemas{}
	for _, k := range p.Preds() {
		s[k] = &PredInfo{Key: k, Arity: k.Arity()}
	}
	for _, d := range p.CostDecls {
		pi, ok := s[d.Pred]
		if !ok {
			// Declared but unused predicates get a schema anyway so that
			// EDB-only programs can be loaded incrementally.
			pi = &PredInfo{Key: d.Pred, Arity: d.Pred.Arity()}
			s[d.Pred] = pi
		}
		if pi.HasCost {
			return nil, fmt.Errorf("ast: duplicate .cost declaration for %s", d.Pred)
		}
		if pi.Arity == 0 {
			return nil, fmt.Errorf("ast: %s has no arguments, cannot carry a cost", d.Pred)
		}
		l, ok := lattice.ByName(d.Lattice)
		if !ok {
			return nil, fmt.Errorf("ast: unknown lattice %q for %s", d.Lattice, d.Pred)
		}
		pi.HasCost = true
		pi.L = l
	}
	for _, d := range p.DefaultDecl {
		pi, ok := s[d.Pred]
		if !ok || !pi.HasCost {
			return nil, fmt.Errorf("ast: .default %s requires a prior .cost declaration", d.Pred)
		}
		if pi.HasDefault {
			return nil, fmt.Errorf("ast: duplicate .default declaration for %s", d.Pred)
		}
		v, err := pi.L.Parse(d.Value)
		if err != nil {
			return nil, fmt.Errorf("ast: .default %s: %v", d.Pred, err)
		}
		if !lattice.Eq(pi.L, v, pi.L.Bottom()) {
			// §2.3.2: "We shall insist that the default truth value is the
			// minimal element with respect to the cost order."
			return nil, fmt.Errorf("ast: default value %s for %s is not the lattice bottom %s",
				d.Value, d.Pred, pi.L.Bottom())
		}
		pi.HasDefault = true
	}
	return s, nil
}

// AggRoles classifies the variables of an aggregate subgoal within its
// rule (Definition 2.4): grouping variables also occur outside the
// subgoal; local variables occur only inside it.
type AggRoles struct {
	Grouping []Var
	Local    []Var
}

// RolesOf computes the grouping/local split for the aggregate subgoal at
// body index idx of rule r. Variables are returned in first-occurrence
// order without duplicates.
func RolesOf(r *Rule, idx int) AggRoles {
	g := r.Body[idx].(*Agg)
	var roles AggRoles
	for i := range g.Conj {
		for _, t := range g.Conj[i].Args {
			v, ok := t.(Var)
			if !ok || v == g.MultisetVar || slices.Contains(roles.Grouping, v) || slices.Contains(roles.Local, v) {
				continue
			}
			// The result variable does not make an inner variable
			// "grouping".
			if v == g.Result || occursOutside(r, idx, v) {
				roles.Grouping = append(roles.Grouping, v)
			} else {
				roles.Local = append(roles.Local, v)
			}
		}
	}
	return roles
}

// occursOutside reports whether v occurs in r's head or in a body
// subgoal other than the one at idx.
func occursOutside(r *Rule, idx int, v Var) bool {
	if atomHas(&r.Head, v) {
		return true
	}
	for i, s := range r.Body {
		if i != idx && subgoalHas(s, v) {
			return true
		}
	}
	return false
}

// subgoalHas reports whether v is among s.FreeVars.
func subgoalHas(s Subgoal, v Var) bool {
	switch s := s.(type) {
	case *Lit:
		return atomHas(&s.Atom, v)
	case *Agg:
		if s.Result == v {
			return true
		}
		for i := range s.Conj {
			if atomHas(&s.Conj[i], v) {
				return true
			}
		}
		return false
	case *Builtin:
		return exprHas(s.L, v) || exprHas(s.R, v)
	}
	return slices.Contains(s.FreeVars(nil), v)
}

func atomHas(a *Atom, v Var) bool {
	for _, t := range a.Args {
		if w, ok := t.(Var); ok && w == v {
			return true
		}
	}
	return false
}

func exprHas(e Expr, v Var) bool {
	switch e := e.(type) {
	case VarExpr:
		return e.V == v
	case *BinExpr:
		return exprHas(e.L, v) || exprHas(e.R, v)
	}
	return false
}

// ValidateProgram performs the structural checks of Definition 2.4 on
// every aggregate subgoal, resolves aggregate names, and checks
// well-typedness of multiset variables (§4.2: the aggregate's domain type
// must equal the type of each cost argument in which the multiset variable
// occurs). It checks the costs of bodiless rules; fact rows are data,
// whose costs are checked where they are loaded (FactRows.Value).
func ValidateProgram(p *Program, s Schemas) error {
	for _, r := range p.Rules {
		hi := s.Info(r.Head.Key())
		if hi == nil {
			return fmt.Errorf("ast: no schema for %s", r.Head.Key())
		}
		if hi.HasCost && r.IsFact() {
			// Ground cost facts must carry a value from the lattice.
			if c, ok := r.Head.Args[hi.CostIndex()].(Const); ok {
				if _, err := hi.L.Parse(c.V); err != nil {
					return fmt.Errorf("ast: fact %s: %v", &r.Head, err)
				}
			}
		}
		for i, sg := range r.Body {
			g, ok := sg.(*Agg)
			if !ok {
				continue
			}
			if err := validateAgg(r, i, g, s); err != nil {
				return fmt.Errorf("ast: rule %q, aggregate %q: %v", r, g, err)
			}
		}
	}
	return nil
}

func validateAgg(r *Rule, idx int, g *Agg, s Schemas) error {
	f, ok := lattice.AggregateByName(g.Func)
	if !ok {
		return fmt.Errorf("unknown aggregate function %q", g.Func)
	}
	if len(g.Conj) == 0 {
		return errors.New("empty aggregation")
	}
	if g.Result == g.MultisetVar {
		return errors.New("aggregate variable equals multiset variable")
	}
	// The multiset variable must occur in cost arguments of the
	// conjunction (and nowhere else in the rule); the aggregate variable
	// must not occur inside the conjunction (Definition 2.4 requires it to
	// differ from the local variables, and making it a grouping variable
	// inside the aggregation would be circular).
	costOccurrences := 0
	for ci := range g.Conj {
		a := &g.Conj[ci]
		pi := s.Info(a.Key())
		if pi == nil {
			return fmt.Errorf("no schema for %s", a.Key())
		}
		for ai, t := range a.Args {
			v, isVar := t.(Var)
			if !isVar {
				continue
			}
			isCostPos := pi.HasCost && ai == pi.CostIndex()
			if v == g.MultisetVar && g.MultisetVar != "" {
				if !isCostPos {
					return fmt.Errorf("multiset variable %s in non-cost position of %s", v, a)
				}
				if !sameLattice(pi.L, f.Domain()) {
					return fmt.Errorf("cost domain %s of %s differs from domain %s of %s",
						pi.L.Name(), a.Pred, f.Domain().Name(), g.Func)
				}
				costOccurrences++
			}
			if v == g.Result {
				return fmt.Errorf("aggregate variable %s occurs inside the aggregation", v)
			}
		}
	}
	if g.MultisetVar != "" && costOccurrences == 0 {
		return fmt.Errorf("multiset variable %s does not occur in any cost argument", g.MultisetVar)
	}
	// The multiset variable must not leak outside the aggregate subgoal.
	if g.MultisetVar != "" {
		for i, sg := range r.Body {
			if i != idx && subgoalHas(sg, g.MultisetVar) {
				return fmt.Errorf("multiset variable %s escapes the aggregate subgoal", g.MultisetVar)
			}
		}
		if atomHas(&r.Head, g.MultisetVar) {
			return fmt.Errorf("multiset variable %s occurs in the head", g.MultisetVar)
		}
	}
	return nil
}

func sameLattice(a, b lattice.Lattice) bool { return a.Name() == b.Name() }
