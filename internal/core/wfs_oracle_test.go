package core

// This file keeps the tuple-at-a-time interpreter the well-founded
// semantics first ran on as the reference the production path
// (wfs.go) is held to: it walks the rules' syntax with map
// substitutions over Stores of ground atoms, and each lfp is a naive
// iteration. TestWFSMatchesReference compares the two atom for atom.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// refResult is the reference WFSResult, over Stores.
type refResult struct {
	True     *Store
	Possible *Store
	// Iterations is the number of outer alternation rounds.
	Iterations int
}

// refSolveWFS is the reference SolveWFS: the alternating fixpoint over
// Stores, each lfp a naive iteration of the interpreter above.
func refSolveWFS(ctx context.Context, prog *ast.Program, opts WFSOptions) (*refResult, error) {
	refDefaults(&opts)
	prog = prog.AsRules()

	u, err := lfp(ctx, relaxedProgram(prog), &semantics{negFalseIn: NewStore(), mode: aggDefinite, low: NewStore(), high: NewStore()}, opts)
	if err != nil {
		return nil, err
	}
	k := NewStore()
	for iter := 1; ; iter++ {
		if iter > opts.MaxIters {
			return nil, fmt.Errorf("refwfs: alternation did not converge within %d rounds: %w", opts.MaxIters, ErrDiverged)
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		k2, err := lfp(ctx, prog, &semantics{negFalseIn: u, mode: aggDefinite, low: k, high: u}, opts)
		if err != nil {
			return nil, err
		}
		u2, err := lfp(ctx, prog, &semantics{negFalseIn: k2, mode: aggOptimistic, low: k2, high: u}, opts)
		if err != nil {
			return nil, err
		}
		if k2.Equal(k) && u2.Equal(u) {
			return &refResult{True: k2, Possible: u2, Iterations: iter}, nil
		}
		k, u = k2, u2
	}
}

// ctxErr converts a fired context into the shared cancellation class.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("refwfs: %w: %w", ErrCanceled, ctx.Err())
	default:
		return nil
	}
}

// relaxedProgram over-approximates derivability structure for the U_0
// bootstrap: negative literals are dropped (assumed true), aggregate
// subgoals are dropped, builtins that lose bindings are dropped, and
// rules whose head variables become unbound are skipped entirely (their
// atoms enter U later, once aggregate witnesses exist).
func relaxedProgram(prog *ast.Program) *ast.Program {
	out := &ast.Program{}
	for _, r := range prog.Rules {
		available := map[ast.Var]bool{}
		for _, sg := range r.Body {
			if l, ok := sg.(*ast.Lit); ok && !l.Neg {
				for _, v := range l.Atom.Vars(nil) {
					available[v] = true
				}
			}
		}
		var body []ast.Subgoal
		for _, sg := range r.Body {
			switch sg := sg.(type) {
			case *ast.Lit:
				if !sg.Neg {
					body = append(body, sg)
				}
			case *ast.Builtin:
				ok := true
				for _, v := range sg.FreeVars(nil) {
					if !available[v] {
						ok = false
						break
					}
				}
				if ok {
					body = append(body, sg)
				}
			case *ast.Agg:
				// dropped
			}
		}
		headOK := true
		for _, v := range r.Head.Vars(nil) {
			if !available[v] {
				headOK = false
				break
			}
		}
		if headOK {
			out.Rules = append(out.Rules, &ast.Rule{Head: r.Head, Body: body})
		}
	}
	return out
}

// refReductLfp is the reference ReductLfp.
func refReductLfp(prog *ast.Program, m *Store, opts WFSOptions) (*Store, error) {
	refDefaults(&opts)
	return lfp(context.Background(), prog.AsRules(), &semantics{negFalseIn: m, mode: aggDefinite, low: m, high: m}, opts)
}

// lfp computes the least fixpoint of the immediate-consequence operator
// under the given (frozen) semantics: starting empty, rules fire against
// the growing store until nothing new is derivable.
func lfp(ctx context.Context, prog *ast.Program, sem *semantics, opts WFSOptions) (*Store, error) {
	grow := NewStore()
	sem.grow = grow
	for iter := 0; ; iter++ {
		if iter > opts.MaxIters {
			return nil, fmt.Errorf("refwfs: inner fixpoint did not converge within %d rounds: %w", opts.MaxIters, ErrDiverged)
		}
		changed := false
		for _, r := range prog.Rules {
			r := r
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			err := evalRule(r, sem, func(sb subst) error {
				args, err := groundArgs(&r.Head, sb)
				if err != nil {
					return err
				}
				if grow.Add(r.Head.Key(), args) {
					changed = true
				}
				if grow.Len() > opts.MaxAtoms {
					return fmt.Errorf("refwfs: atom universe exceeded %d (diverging input — the set-based treatment of costs is infinite here, §5.3): %w", opts.MaxAtoms, ErrBudgetExceeded)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if !changed {
			return grow, nil
		}
	}
}

// Store is a set of ground atoms (all arguments data, including costs).
// An atom is identified by its arguments' words (val.WordKey) and
// enumerated in the order of their display key (val.KeyOf).
type Store struct {
	m     map[ast.PredKey]map[string]atom
	count int
}

// atom is a stored tuple with its display key.
type atom struct {
	key  string
	args []val.T
}

// NewStore returns an empty atom set.
func NewStore() *Store {
	return &Store{m: map[ast.PredKey]map[string]atom{}}
}

// Add inserts a ground atom, reporting whether it was new.
func (s *Store) Add(k ast.PredKey, args []val.T) bool {
	t := s.m[k]
	if t == nil {
		t = map[string]atom{}
		s.m[k] = t
	}
	id := val.WordKey(args)
	if _, dup := t[id]; dup {
		return false
	}
	t[id] = atom{val.KeyOf(args), append([]val.T{}, args...)}
	s.count++
	return true
}

// Has reports membership of a ground atom.
func (s *Store) Has(k ast.PredKey, args []val.T) bool {
	t := s.m[k]
	if t == nil {
		return false
	}
	var buf [64]byte
	_, ok := t[string(val.AppendWordKey(buf[:0], args))]
	return ok
}

// Len returns the number of atoms.
func (s *Store) Len() int { return s.count }

// displayOrder orders tuples a and b, whose display keys (val.KeyOf)
// are ak and bk, by display key, and tuples that share one — a text
// holding a NUL byte can make two — by val.Compare.
func displayOrder(ak string, a []val.T, bk string, b []val.T) int {
	if c := strings.Compare(ak, bk); c != 0 {
		return c
	}
	return relation.CompareArgs(a, b)
}

// Each iterates the atoms of predicate k in deterministic order
// (displayOrder).
func (s *Store) Each(k ast.PredKey, f func(args []val.T) bool) {
	t := s.m[k]
	if t == nil {
		return
	}
	atoms := make([]atom, 0, len(t))
	for _, a := range t {
		atoms = append(atoms, a)
	}
	slices.SortFunc(atoms, func(a, b atom) int { return displayOrder(a.key, a.args, b.key, b.args) })
	for _, a := range atoms {
		if !f(a.args) {
			return
		}
	}
}

// Preds returns the predicates present, sorted.
func (s *Store) Preds() []ast.PredKey {
	out := make([]ast.PredKey, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone deep-copies the store.
func (s *Store) Clone() *Store {
	c := NewStore()
	for k, t := range s.m {
		c.m[k] = maps.Clone(t)
		c.count += len(t)
	}
	return c
}

// Equal reports set equality.
func (s *Store) Equal(o *Store) bool {
	if s.count != o.count {
		return false
	}
	for k, t := range s.m {
		ot := o.m[k]
		if len(ot) != len(t) {
			return false
		}
		for key := range t {
			if _, ok := ot[key]; !ok {
				return false
			}
		}
	}
	return true
}

// storeOf converts an interpretation to a plain atom set: the cost value
// of each tuple becomes an ordinary final argument.
func storeOf(db *relation.DB) *Store {
	s := NewStore()
	for _, k := range db.Preds() {
		rel := db.Rel(k)
		rel.Each(func(row relation.Row) bool {
			args := row.Args
			if row.HasCost {
				args = append(append([]val.T{}, row.Args...), row.Cost)
			}
			s.Add(k, args)
			return true
		})
	}
	return s
}

// SubsetOf reports s ⊆ o.
func (s *Store) SubsetOf(o *Store) bool {
	for k, t := range s.m {
		ot := o.m[k]
		if len(t) > len(ot) {
			return false
		}
		for key := range t {
			if _, ok := ot[key]; !ok {
				return false
			}
		}
	}
	return true
}

// subst is a variable binding.
type subst map[ast.Var]val.T

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
			return fmt.Errorf("refwfs: rule %q has no evaluation order under current bindings", r)
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
		return fmt.Errorf("refwfs: unknown subgoal %T", sg)
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
		return fmt.Errorf("refwfs: builtin %s not evaluable", b)
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
				return nil, fmt.Errorf("refwfs: unbound variable %s in %s", t, a)
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
		return fmt.Errorf("refwfs: unknown aggregate %s", g.Func)
	}
	high := sem.highStore()

	allGroupingBound := true
	for _, v := range roles.Grouping {
		if _, b := sb[v]; !b {
			allGroupingBound = false
		}
	}
	if !allGroupingBound && !g.Restricted {
		return fmt.Errorf("refwfs: total aggregate %s with unbound grouping variables", g)
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

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	a := []val.T{val.Symbol("a")}
	b := []val.T{val.Symbol("b")}
	if !s.Add("p/1", a) || s.Add("p/1", a) {
		t.Fatal("Add dedup broken")
	}
	if !s.Has("p/1", a) || s.Has("p/1", b) {
		t.Fatal("Has broken")
	}
	c := s.Clone()
	c.Add("p/1", b)
	if s.Has("p/1", b) {
		t.Fatal("Clone must not alias")
	}
	if !s.SubsetOf(c) || c.SubsetOf(s) {
		t.Fatal("SubsetOf broken")
	}
	if s.Equal(c) || !s.Equal(s.Clone()) {
		t.Fatal("Equal broken")
	}
}

// refDefaults fills in WFSOptions' defaults as SolveWFS does.
func refDefaults(o *WFSOptions) {
	if o.MaxAtoms == 0 {
		o.MaxAtoms = 200000
	}
	if o.MaxIters == 0 {
		o.MaxIters = 10000
	}
}
