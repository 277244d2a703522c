package wfs

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// subst is a variable binding.
type subst map[ast.Var]val.T

// aggMode selects the aggregate satisfaction semantics.
type aggMode int

const (
	// aggDefinite: Kemp & Stuckey truth — the group must be fully defined
	// (every possible tuple already known true), then C = F(multiset).
	aggDefinite aggMode = iota
	// aggOptimistic: possible truth — C ranges over the achievable values
	// given the definite (low) and possible (high) tuple sets.
	aggOptimistic
)

// semantics parameterizes one lfp computation of the alternating fixpoint.
type semantics struct {
	// grow is the set being computed; positive literals match it.
	grow *Store
	// negFalseIn: ¬p holds iff p is absent from this store.
	negFalseIn *Store
	mode       aggMode
	// low/high are the frozen definite and possible tuple sources for
	// aggregate evaluation.
	low, high *Store
}

func (sem *semantics) highStore() *Store { return sem.high }

func (sem *semantics) lowHas(k ast.PredKey, args []val.T) bool {
	return sem.low.Has(k, args)
}

// evalRule enumerates satisfying substitutions of the body and calls emit
// with each completed binding.
func evalRule(r *ast.Rule, sem *semantics, emit func(subst) error) error {
	sb := subst{}
	roles := map[*ast.Agg]ast.AggRoles{}
	for i, sg := range r.Body {
		if g, ok := sg.(*ast.Agg); ok {
			roles[g] = ast.RolesOf(r, i)
		}
	}
	var rec func(remaining []ast.Subgoal) error
	rec = func(remaining []ast.Subgoal) error {
		if len(remaining) == 0 {
			return emit(sb)
		}
		pick := -1
		for i, sg := range remaining {
			if runnable(sg, sb) {
				pick = i
				break
			}
		}
		if pick < 0 {
			return fmt.Errorf("wfs: rule %q has no evaluation order under current bindings", r)
		}
		sg := remaining[pick]
		rest := append(append([]ast.Subgoal{}, remaining[:pick]...), remaining[pick+1:]...)
		switch sg := sg.(type) {
		case *ast.Lit:
			if sg.Neg {
				ok, err := negSatisfied(&sg.Atom, sb, sem)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				return rec(rest)
			}
			return matchAtom(&sg.Atom, sem.grow, sb, func() error { return rec(rest) })
		case *ast.Builtin:
			return evalBuiltin(sg, sb, func() error { return rec(rest) })
		case *ast.Agg:
			return evalAgg(sg, roles[sg], sb, sem, func() error { return rec(rest) })
		}
		return fmt.Errorf("wfs: unknown subgoal %T", sg)
	}
	return rec(r.Body)
}

// runnable reports whether a subgoal can execute under the current
// bindings: positive literals and restricted aggregates always can;
// builtins need bound-or-assignable form; negation and total aggregates
// need full grouping/variable binding.
func runnable(sg ast.Subgoal, sb subst) bool {
	switch sg := sg.(type) {
	case *ast.Lit:
		if !sg.Neg {
			return true
		}
		for _, v := range sg.Atom.Vars(nil) {
			if _, ok := sb[v]; !ok {
				return false
			}
		}
		return true
	case *ast.Builtin:
		_, _, ok := builtinForm(sg, sb)
		return ok
	case *ast.Agg:
		return true
	}
	return false
}

// builtinForm classifies a builtin under the current bindings: mode
// "test" (fully bound) or "assign" (equality defining one unbound var).
func builtinForm(b *ast.Builtin, sb subst) (mode string, assign ast.Var, ok bool) {
	unboundL := unboundVars(b.L, sb)
	unboundR := unboundVars(b.R, sb)
	if len(unboundL) == 0 && len(unboundR) == 0 {
		return "test", "", true
	}
	if b.Op != ast.OpEq {
		return "", "", false
	}
	if v, isV := b.L.(ast.VarExpr); isV && len(unboundL) == 1 && len(unboundR) == 0 {
		return "assign", v.V, true
	}
	if v, isV := b.R.(ast.VarExpr); isV && len(unboundR) == 1 && len(unboundL) == 0 {
		return "assign", v.V, true
	}
	return "", "", false
}

func unboundVars(e ast.Expr, sb subst) []ast.Var {
	var out []ast.Var
	for _, v := range e.Vars(nil) {
		if _, ok := sb[v]; !ok {
			out = append(out, v)
		}
	}
	return out
}

func evalBuiltin(b *ast.Builtin, sb subst, cont func() error) error {
	lookup := func(v ast.Var) (val.T, bool) { x, ok := sb[v]; return x, ok }
	mode, assign, ok := builtinForm(b, sb)
	if !ok {
		return fmt.Errorf("wfs: builtin %s not evaluable", b)
	}
	if mode == "assign" {
		src := b.R
		if v, isV := b.R.(ast.VarExpr); isV && v.V == assign {
			src = b.L
		}
		x, err := ast.EvalExpr(src, lookup)
		if err != nil {
			return err
		}
		sb[assign] = x
		err = cont()
		delete(sb, assign)
		return err
	}
	l, err := ast.EvalExpr(b.L, lookup)
	if err != nil {
		return err
	}
	r, err := ast.EvalExpr(b.R, lookup)
	if err != nil {
		return err
	}
	res, err := ast.Compare(b.Op, l, r)
	if err != nil {
		return err
	}
	if !res {
		return nil
	}
	return cont()
}

// matchAtom enumerates store rows unifying with the atom under sb.
func matchAtom(a *ast.Atom, st *Store, sb subst, cont func() error) error {
	var ferr error
	st.Each(a.Key(), func(args []val.T) bool {
		var bound []ast.Var
		ok := true
		for i, t := range a.Args {
			switch t := t.(type) {
			case ast.Const:
				if !val.Equal(t.V, args[i]) {
					ok = false
				}
			case ast.Var:
				if prev, b := sb[t]; b {
					if !val.Equal(prev, args[i]) {
						ok = false
					}
				} else {
					sb[t] = args[i]
					bound = append(bound, t)
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			if err := cont(); err != nil {
				ferr = err
			}
		}
		for _, v := range bound {
			delete(sb, v)
		}
		return ferr == nil
	})
	return ferr
}

// groundArgs instantiates an atom's arguments (must be fully bound).
func groundArgs(a *ast.Atom, sb subst) ([]val.T, error) {
	out := make([]val.T, len(a.Args))
	for i, t := range a.Args {
		switch t := t.(type) {
		case ast.Const:
			out[i] = t.V
		case ast.Var:
			x, ok := sb[t]
			if !ok {
				return nil, fmt.Errorf("wfs: unbound variable %s in %s", t, a)
			}
			out[i] = x
		}
	}
	return out, nil
}

func negSatisfied(a *ast.Atom, sb subst, sem *semantics) (bool, error) {
	args, err := groundArgs(a, sb)
	if err != nil {
		return false, err
	}
	return !sem.negFalseIn.Has(a.Key(), args), nil
}

type atomInst struct {
	k    ast.PredKey
	args []val.T
}

type aggMatch struct {
	elem  val.T
	atoms []atomInst
	key   []val.T // grouping-variable values
}

// evalAgg evaluates an aggregate subgoal. Matches of the conjunction are
// enumerated over the "possible" store; they are grouped by the values of
// the grouping variables; each group's candidate results follow the mode
// semantics (see the package comment).
func evalAgg(g *ast.Agg, roles ast.AggRoles, sb subst, sem *semantics, cont func() error) error {
	f, ok := lattice.AggregateByName(g.Func)
	if !ok {
		return fmt.Errorf("wfs: unknown aggregate %s", g.Func)
	}
	high := sem.highStore()

	allGroupingBound := true
	for _, v := range roles.Grouping {
		if _, b := sb[v]; !b {
			allGroupingBound = false
		}
	}
	if !allGroupingBound && !g.Restricted {
		return fmt.Errorf("wfs: total aggregate %s with unbound grouping variables", g)
	}

	var matches []aggMatch
	var atoms []atomInst
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i == len(g.Conj) {
			m := aggMatch{elem: val.Boolean(true)}
			if g.MultisetVar != "" {
				m.elem = sb[g.MultisetVar]
			}
			m.atoms = append([]atomInst{}, atoms...)
			m.key = make([]val.T, len(roles.Grouping))
			for j, v := range roles.Grouping {
				m.key[j] = sb[v]
			}
			matches = append(matches, m)
			return nil
		}
		a := &g.Conj[i]
		return matchAtom(a, high, sb, func() error {
			args, err := groundArgs(a, sb)
			if err != nil {
				return err
			}
			atoms = append(atoms, atomInst{a.Key(), args})
			err = enumerate(i + 1)
			atoms = atoms[:len(atoms)-1]
			return err
		})
	}
	if err := enumerate(0); err != nil {
		return err
	}

	// Groups are told apart by their keys' words and emitted in
	// displayOrder.
	type group struct {
		key string
		ms  []aggMatch
	}
	var groups []*group
	byWords := map[string]*group{}
	for _, m := range matches {
		id := val.WordKey(m.key)
		gr := byWords[id]
		if gr == nil {
			gr = &group{key: val.KeyOf(m.key)}
			byWords[id] = gr
			groups = append(groups, gr)
		}
		gr.ms = append(gr.ms, m)
	}

	emit := func(ms []aggMatch) error {
		var lowElems, highElems []val.T
		defined := true
		for _, m := range ms {
			highElems = append(highElems, m.elem)
			inLow := true
			for _, at := range m.atoms {
				if !sem.lowHas(at.k, at.args) {
					inLow = false
					break
				}
			}
			if inLow {
				lowElems = append(lowElems, m.elem)
			} else {
				defined = false
			}
		}
		candidates := aggCandidates(f, g, sem.mode, defined, lowElems, highElems)
		if len(candidates) == 0 {
			return nil
		}
		// Bind the unbound grouping variables from the group exemplar.
		var boundVars []ast.Var
		if len(ms) > 0 {
			for j, v := range roles.Grouping {
				if _, b := sb[v]; !b {
					sb[v] = ms[0].key[j]
					boundVars = append(boundVars, v)
				}
			}
		}
		defer func() {
			for _, v := range boundVars {
				delete(sb, v)
			}
		}()
		for _, c := range candidates {
			if prev, bound := sb[g.Result]; bound {
				if val.Equal(prev, c) {
					if err := cont(); err != nil {
						return err
					}
				}
				continue
			}
			sb[g.Result] = c
			err := cont()
			delete(sb, g.Result)
			if err != nil {
				return err
			}
		}
		return nil
	}

	if len(groups) == 0 {
		if g.Restricted {
			return nil
		}
		return emit(nil) // total aggregate over the empty group
	}
	slices.SortFunc(groups, func(a, b *group) int { return displayOrder(a.key, a.ms[0].key, b.key, b.ms[0].key) })
	for _, gr := range groups {
		if err := emit(gr.ms); err != nil {
			return err
		}
	}
	return nil
}

// aggCandidates computes candidate results of F for one group.
func aggCandidates(f lattice.Aggregate, g *ast.Agg, mode aggMode, defined bool, low, high []val.T) []val.T {
	switch mode {
	case aggDefinite:
		if !defined {
			return nil
		}
		if g.Restricted && len(low) == 0 {
			return nil
		}
		r, ok := f.Apply(low)
		if !ok {
			return nil
		}
		return []val.T{r}
	default:
		var out []val.T
		add := func(v val.T) {
			for _, o := range out {
				if val.Equal(o, v) {
					return
				}
			}
			out = append(out, v)
		}
		switch f.Name() {
		case "min":
			// Achievable minima over multisets M with low ⊆ M ⊆ high:
			// min(low) plus every possible element not above it.
			lowMin := math.Inf(1)
			for _, e := range low {
				lowMin = math.Min(lowMin, e.Num())
			}
			if len(low) > 0 || !g.Restricted {
				add(val.Number(lowMin))
			}
			for _, e := range high {
				if e.Num() <= lowMin {
					add(e)
				}
			}
		case "max":
			lowMax := math.Inf(-1)
			for _, e := range low {
				lowMax = math.Max(lowMax, e.Num())
			}
			if len(low) > 0 || !g.Restricted {
				add(val.Number(lowMax))
			}
			for _, e := range high {
				if e.Num() >= lowMax {
					add(e)
				}
			}
		default:
			// Extremes only — exact for the paper's threshold-style uses
			// (documented under-approximation of possible truth).
			if len(low) > 0 || !g.Restricted {
				if r, ok := f.Apply(low); ok {
					add(r)
				}
			}
			if len(high) > 0 {
				if r, ok := f.Apply(high); ok {
					add(r)
				}
			}
		}
		return out
	}
}
