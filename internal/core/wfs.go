package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// This file implements the Kemp–Stuckey well-founded semantics with
// aggregates (§5.3), the comparator of the paper's minimal-model
// semantics: for normal programs it is the classic alternating fixpoint
// (which evaluates the GGZ rewriting of §5.4). Costs are ordinary data —
// so path relations on cycles can be infinite (§5.3-5.4), which MaxAtoms
// bounds — and an interpretation is a *relation.DB of cost-free
// relations. An aggregate subgoal holds only once every instance of its
// group is defined, so on cycles its consumers stay undefined (§5.3).
//
// Each lfp of the alternation reads negation and aggregates from a frozen
// interpretation only, so it is a stratified program (the approximation
// view of Pelov, Denecker and Bruynooghe) and runs as one solve of the
// engine. CompileWFS rewrites the program once, costs as data: not p(…)
// scans a shadow bound to the frozen side's p relation itself; an
// aggregate subgoal scans a shadow of its candidate results (grouping
// values, result), computed before the lfp from its conjunction's
// instances over the frozen sides (aggCandidates); an unrestricted (=)
// aggregate gets a rule variant for groups with no instance, whose one
// candidate is F(∅).

// WFSOptions caps the atom universe and the alternation depth.
type WFSOptions struct {
	// MaxAtoms caps the tuples any one lfp derives: the derivation
	// budget (Limits.MaxFacts) of its solve (default 200000).
	MaxAtoms int
	// MaxIters caps the rounds of each lfp (Options.MaxRounds) and the
	// alternations (default 10000).
	MaxIters int
}

// WFSResult is a partial (three-valued) model: True ⊆ Possible; atoms
// outside Possible are false; Possible \ True is undefined. Iterations is
// the number of outer alternation rounds.
type WFSResult struct {
	True, Possible *relation.DB
	Iterations     int
}

// Truth is a three-valued status.
type Truth int

const (
	False Truth = iota
	Undefined
	True
)

func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case Undefined:
		return "undefined"
	}
	return "false"
}

// Status classifies a ground atom in the partial model.
func (r *WFSResult) Status(k ast.PredKey, args []val.T) Truth {
	if holds(r.True, k, args) {
		return True
	}
	if holds(r.Possible, k, args) {
		return Undefined
	}
	return False
}

// TwoValued reports whether no atom is undefined.
func (r *WFSResult) TwoValued() bool { return r.True.Equal(r.Possible, nil) }

// UndefinedCount returns the number of undefined atoms.
func (r *WFSResult) UndefinedCount() int { return CountAtoms(r.Possible) - CountAtoms(r.True) }

func holds(db *relation.DB, k ast.PredKey, args []val.T) bool {
	_, ok := relOf(db, k).Get(args)
	return ok
}

// CountAtoms returns the number of tuples of db.
func CountAtoms(db *relation.DB) int {
	n := 0
	for _, k := range db.Preds() {
		n += db.Rel(k).Len()
	}
	return n
}

// FlattenCosts returns db as the set-based comparator reads it: the cost
// of each tuple becomes an ordinary final argument. The result shares no
// writable storage with db.
func FlattenCosts(db *relation.DB) *relation.DB {
	out := relation.NewDB(ast.Schemas{})
	for _, k := range db.Preds() {
		if rel := db.Rel(k); rel.Info.HasCost {
			out.SetRel(k, flatten(rel))
		} else {
			out.Rel(k).Join(rel)
		}
	}
	return out
}

// flatten returns rel with each cost as a final argument: rel itself when
// it has no costs.
func flatten(rel *relation.Relation) *relation.Relation {
	if !rel.Info.HasCost {
		return rel
	}
	out := relation.New(&ast.PredInfo{Key: rel.Info.Key, Arity: rel.Info.Key.Arity()})
	var args []val.T
	rel.Each(func(row relation.Row) bool {
		args = append(append(args[:0], row.Args...), row.Cost)
		out.InsertJoin(args, val.T{})
		return true
	})
	return out
}

// SolveWFS computes the well-founded partial model of the program under
// the Kemp–Stuckey aggregate semantics via an alternating fixpoint:
//
//	U_0     = lfp(T) of the *relaxed* program: negation assumed true,
//	          aggregate subgoals dropped (with their dependent builtins;
//	          rules whose heads lose bindings are skipped)
//	K_{i+1} = lfp(T) with ¬p iff p ∉ U_i; aggregates definite per (K_i, U_i)
//	U_{i+1} = lfp(T) with ¬p iff p ∉ K_{i+1}; aggregates optimistic per
//	          (K_{i+1}, U_i)
//
// until both sequences stabilize. K underestimates truth; U tracks
// possible truth (it may grow in early rounds as aggregate witnesses
// appear, then shrinks); the limits are the well-founded truth and
// possibility sets. Normal programs (no aggregates) get the classic Van
// Gelder–Ross–Schlipf alternating fixpoint.
func SolveWFS(prog *ast.Program, opts WFSOptions) (*WFSResult, error) {
	return SolveWFSContext(context.Background(), prog, opts)
}

// SolveWFSContext is SolveWFS with cooperative cancellation: every lfp
// polls ctx and stops with an error wrapping ErrCanceled when it fires.
func SolveWFSContext(ctx context.Context, prog *ast.Program, opts WFSOptions) (*WFSResult, error) {
	w, err := CompileWFS(prog, opts)
	if err != nil {
		return nil, err
	}
	return w.Solve(ctx)
}

// WFSProgram is a program compiled for the alternating fixpoint: step
// runs a K or U step (and the reduct), relaxed runs U_0, and inst
// enumerates the aggregate conjunctions' instances (nil without
// aggregates). facts, the program's ground facts, start every lfp; negs
// binds each negation shadow to the predicate it stands for; instPreds
// are the predicates the aggregate conjunctions read.
type WFSProgram struct {
	opts                WFSOptions
	step, relaxed, inst *Engine
	facts               *relation.DB
	negs                map[ast.PredKey]ast.PredKey
	aggs                []*wfsAgg
	instPreds           []ast.PredKey
}

// wfsAgg is one aggregate subgoal: the rows of inst are its conjunction's
// instances (grouping values, then the element when the aggregate has a
// multiset variable, then the local values); cands holds its candidate
// results (grouping values, result) and keys, for an unrestricted
// aggregate with an F(∅) variant, the groups that have an instance.
type wfsAgg struct {
	g                 *ast.Agg
	f                 lattice.Aggregate
	inst, cands, keys ast.PredKey
	ngroup            int
}

// shadowPrefix starts every name the rewriting makes up: no parsed name.
const shadowPrefix = "~"

// CompileWFS rewrites and compiles the program for SolveWFS and ReductLfp.
func CompileWFS(prog *ast.Program, opts WFSOptions) (*WFSProgram, error) {
	rules, edb := prog.SplitFacts()
	return compileWFS(rules, edb, opts)
}

// compileWFS compiles rules over the fact rows edb (which may be nil:
// the fallback hands over its facts at each solve).
func compileWFS(rules []*ast.Rule, edb []*ast.FactRows, opts WFSOptions) (*WFSProgram, error) {
	opts.MaxAtoms, opts.MaxIters = cmp.Or(opts.MaxAtoms, 200000), cmp.Or(opts.MaxIters, 10000)
	w := &WFSProgram{opts: opts, negs: map[ast.PredKey]ast.PredKey{}}
	var own, step, inst, facts []*ast.Rule
	for _, r := range rules {
		if r.IsGroundFact() {
			facts = append(facts, r)
			continue
		}
		rs, ir, err := w.rewrite(r)
		if err != nil {
			return nil, err
		}
		own, step, inst = append(own, r), append(step, rs...), append(inst, ir...)
	}
	eopts := Options{SkipChecks: true, MaxRounds: opts.MaxIters, Limits: Limits{MaxFacts: int64(opts.MaxAtoms)}}
	var err error
	if w.step, err = New(&ast.Program{Rules: step}, eopts); err != nil {
		return nil, err
	}
	if w.relaxed, err = New(&ast.Program{Rules: relaxedRules(own)}, eopts); err != nil {
		return nil, err
	}
	if len(inst) > 0 {
		if w.inst, err = New(&ast.Program{Rules: inst}, eopts); err != nil {
			return nil, err
		}
	}
	w.facts = relation.NewDB(ast.Schemas{})
	for _, f := range edb {
		rel := w.facts.Rel(f.Key)
		rel.Reserve(f.Len())
		for i := 0; i < f.Len(); i++ {
			rel.InsertJoin(f.Row(i), val.T{})
		}
	}
	for _, r := range facts {
		args := make([]val.T, len(r.Head.Args))
		for i, t := range r.Head.Args {
			args[i] = t.(ast.Const).V
		}
		w.facts.Rel(r.Head.Key()).InsertJoin(args, val.T{})
	}
	return w, nil
}

// rewrite returns r's rules in the step program — one per combination of
// variants of its unrestricted aggregates — and the instance rules of its
// aggregates.
func (w *WFSProgram) rewrite(r *ast.Rule) (rules, inst []*ast.Rule, err error) {
	bodies := [][]ast.Subgoal{nil}
	for i, sg := range r.Body {
		alts := [][]ast.Subgoal{{sg}}
		switch sg := sg.(type) {
		case *ast.Lit:
			if sg.Neg {
				alts[0][0] = &ast.Lit{Neg: true, Atom: ast.Atom{Pred: w.negShadow(sg.Atom.Key()), Args: sg.Atom.Args}}
			}
		case *ast.Agg:
			a, ir, err := w.addAgg(r, i)
			if err != nil {
				return nil, nil, err
			}
			inst = append(inst, ir)
			group := ir.Head.Args[:a.ngroup]
			alts[0][0] = &ast.Lit{Atom: ast.Atom{Pred: a.cands.Name(), Args: append(slices.Clip(group), sg.Result)}}
			if empty, ok := a.f.Apply(nil); ok && !sg.Restricted {
				a.keys = ast.MakePredKey(shadowPrefix+"keys"+a.cands.Name(), a.ngroup)
				alts = append(alts, []ast.Subgoal{
					&ast.Lit{Neg: true, Atom: ast.Atom{Pred: a.keys.Name(), Args: group}},
					&ast.Builtin{Op: ast.OpEq, L: ast.VarExpr{V: sg.Result}, R: ast.ConstExpr{V: empty}},
				})
			}
		}
		var next [][]ast.Subgoal
		for _, b := range bodies {
			for _, alt := range alts {
				next = append(next, append(slices.Clip(b), alt...))
			}
		}
		bodies = next
	}
	for _, b := range bodies {
		rules = append(rules, &ast.Rule{Head: r.Head, Body: b})
	}
	return rules, inst, nil
}

// negShadow returns the shadow predicate negated scans of k read.
func (w *WFSProgram) negShadow(k ast.PredKey) string {
	name := shadowPrefix + "not:" + k.Name()
	w.negs[ast.MakePredKey(name, k.Arity())] = k
	return name
}

// addAgg registers the aggregate subgoal at body index i of r and returns
// it with the rule enumerating its instances.
func (w *WFSProgram) addAgg(r *ast.Rule, i int) (*wfsAgg, *ast.Rule, error) {
	g := r.Body[i].(*ast.Agg)
	f, ok := lattice.AggregateByName(g.Func)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown aggregate %s", g.Func)
	}
	roles := ast.RolesOf(r, i)
	var head []ast.Term
	for _, v := range slices.Concat(roles.Grouping, []ast.Var{g.MultisetVar}, roles.Local) {
		if v != "" {
			head = append(head, v)
		}
	}
	body := make([]ast.Subgoal, len(g.Conj))
	for j := range g.Conj {
		body[j] = &ast.Lit{Atom: g.Conj[j]}
		if k := g.Conj[j].Key(); !slices.Contains(w.instPreds, k) {
			w.instPreds = append(w.instPreds, k)
		}
	}
	n := fmt.Sprint(len(w.aggs))
	a := &wfsAgg{g: g, f: f, ngroup: len(roles.Grouping),
		inst:  ast.MakePredKey(shadowPrefix+"inst"+n, len(head)),
		cands: ast.MakePredKey(shadowPrefix+"agg"+n, len(roles.Grouping)+1)}
	w.aggs = append(w.aggs, a)
	return a, &ast.Rule{Head: ast.Atom{Pred: a.inst.Name(), Args: head}, Body: body}, nil
}

// relaxedRules over-approximates derivability structure for the U_0
// bootstrap: negative literals are dropped (assumed true), aggregate
// subgoals are dropped, builtins that lose bindings are dropped, and
// rules whose head variables become unbound are skipped entirely (their
// atoms enter U later, once aggregate witnesses exist).
func relaxedRules(rules []*ast.Rule) []*ast.Rule {
	var out []*ast.Rule
	for _, r := range rules {
		available := map[ast.Var]bool{}
		var body []ast.Subgoal
		for _, sg := range r.Body {
			if l, ok := sg.(*ast.Lit); ok && !l.Neg {
				body = append(body, l)
				for _, v := range l.Atom.Vars(nil) {
					available[v] = true
				}
			}
		}
		bound := func(vs []ast.Var) bool {
			return !slices.ContainsFunc(vs, func(v ast.Var) bool { return !available[v] })
		}
		for _, sg := range r.Body {
			if b, ok := sg.(*ast.Builtin); ok && bound(b.FreeVars(nil)) {
				body = append(body, b)
			}
		}
		if bound(r.Head.Vars(nil)) {
			out = append(out, &ast.Rule{Head: r.Head, Body: body})
		}
	}
	return out
}

// frozen is the fixed side of one K or U step: not p(…) holds iff p is
// absent from neg, and aggregates are satisfied per mode by the definite
// (low) and possible (high) tuples.
type frozen struct {
	neg, low, high *relation.DB
	mode           aggMode
}

// Solve runs the alternating fixpoint (see SolveWFS).
func (w *WFSProgram) Solve(ctx context.Context) (*WFSResult, error) {
	return w.solve(ctx, relation.NewDB(nil))
}

// solve runs the alternating fixpoint over the program's facts and edb's
// relations, which it only reads.
func (w *WFSProgram) solve(ctx context.Context, edb *relation.DB) (*WFSResult, error) {
	u, err := w.lfp(ctx, w.relaxed, edb, nil)
	if err != nil {
		return nil, err
	}
	k := relation.NewDB(ast.Schemas{})
	for iter := 1; ; iter++ {
		if iter > w.opts.MaxIters {
			return nil, fmt.Errorf("core: well-founded alternation did not converge within %d rounds: %w", w.opts.MaxIters, ErrDiverged)
		}
		k2, err := w.lfp(ctx, w.step, edb, &frozen{neg: u, mode: aggDefinite, low: k, high: u})
		if err != nil {
			return nil, err
		}
		u2, err := w.lfp(ctx, w.step, edb, &frozen{neg: k2, mode: aggOptimistic, low: k2, high: u})
		if err != nil {
			return nil, err
		}
		if k2.Equal(k, nil) && u2.Equal(u, nil) {
			return &WFSResult{True: k2, Possible: u2, Iterations: iter}, nil
		}
		k, u = k2, u2
	}
}

// ReductLfp computes the least fixpoint of the program with negation and
// aggregate subgoals frozen against the total interpretation m — the
// Kemp–Stuckey generalization of the Gelfond–Lifschitz reduct (§5.5). A
// total model m is stable iff ReductLfp(m) equals m.
func (w *WFSProgram) ReductLfp(ctx context.Context, m *relation.DB) (*relation.DB, error) {
	return w.lfp(ctx, w.step, relation.NewDB(nil), &frozen{neg: m, mode: aggDefinite, low: m, high: m})
}

// lfp solves en from the facts, edb's relations and, for a step (fr
// non-nil), the shadows bound to the frozen side; it returns the least
// fixpoint without the shadows.
func (w *WFSProgram) lfp(ctx context.Context, en *Engine, edb *relation.DB, fr *frozen) (*relation.DB, error) {
	db := relation.NewDB(en.Schemas)
	for _, src := range []*relation.DB{w.facts, edb} {
		for _, k := range src.Preds() {
			db.SetRel(k, src.Rel(k))
		}
	}
	if fr != nil {
		for shadow, k := range w.negs {
			db.SetRel(shadow, relOf(fr.neg, k))
		}
		if err := w.candidates(ctx, db, fr); err != nil {
			return nil, err
		}
	}
	db, _, err := en.fixpoint(ctx, db, en.opts.Limits, Stats{})
	if err != nil {
		return nil, err
	}
	out := relation.NewDB(ast.Schemas{})
	for _, k := range db.Preds() {
		if !strings.HasPrefix(string(k), shadowPrefix) {
			out.SetRel(k, db.Rel(k))
		}
	}
	return out, nil
}

// relOf returns db's relation for k, or an empty one not added to db.
func relOf(db *relation.DB, k ast.PredKey) *relation.Relation {
	if db.Has(k) {
		return db.Rel(k)
	}
	return relation.New(&ast.PredInfo{Key: k, Arity: k.Arity()})
}

// instances enumerates every aggregate conjunction's instances over the
// interpretation side.
func (w *WFSProgram) instances(ctx context.Context, side *relation.DB) (*relation.DB, error) {
	db := relation.NewDB(w.inst.Schemas)
	for _, k := range w.instPreds {
		db.SetRel(k, relOf(side, k))
	}
	db, _, err := w.inst.fixpoint(ctx, db, w.inst.opts.Limits, Stats{})
	return db, err
}

// candidates fills each aggregate's shadows in db for the step fr: an
// instance over fr.high is definite iff it is an instance over fr.low
// too, and each group's candidate results are aggCandidates' for its
// elements.
func (w *WFSProgram) candidates(ctx context.Context, db *relation.DB, fr *frozen) error {
	if len(w.aggs) == 0 {
		return nil
	}
	hi, err := w.instances(ctx, fr.high)
	if err != nil {
		return err
	}
	lo := hi
	if fr.low != fr.high {
		if lo, err = w.instances(ctx, fr.low); err != nil {
			return err
		}
	}
	var groups relation.GroupSet
	var row []val.T
	for _, a := range w.aggs {
		defs := lo.Rel(a.inst)
		type group struct {
			low, high []val.T
			defined   bool
		}
		var gs []group
		groups.Reset(a.ngroup)
		hi.Rel(a.inst).Each(func(r relation.Row) bool {
			g, added := groups.Add(r.Args[:a.ngroup])
			if added {
				gs = append(gs, group{defined: true})
			}
			e := val.Boolean(true)
			if a.g.MultisetVar != "" {
				e = r.Args[a.ngroup]
			}
			gs[g].high = append(gs[g].high, e)
			if _, ok := defs.Get(r.Args); ok {
				gs[g].low = append(gs[g].low, e)
			} else {
				gs[g].defined = false
			}
			return true
		})
		cands := db.Rel(a.cands)
		for g := range gs {
			key := groups.At(g)
			if a.keys != "" {
				db.Rel(a.keys).InsertJoin(key, val.T{})
			}
			for _, c := range aggCandidates(a.f, a.g, fr.mode, gs[g].defined, gs[g].low, gs[g].high) {
				row = append(append(row[:0], key...), c)
				cands.InsertJoin(row, val.T{})
			}
		}
	}
	return nil
}

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
