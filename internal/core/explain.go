package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Support is one body element of a derivation: a ground atom
// (recursable via Explain) or an annotation for builtins and aggregate
// subgoals.
type Support struct {
	// Pred is the predicate name; empty for non-atom annotations.
	Pred    string
	Args    []val.T
	Cost    lattice.Elem
	HasCost bool
	Neg     bool
	// Note renders builtins ("C = 1 + 2 [3]") and aggregate subgoals.
	Note string
}

// String renders the support in rule-language style.
func (s Support) String() string {
	if s.Pred == "" {
		return s.Note
	}
	parts := make([]string, 0, len(s.Args)+1)
	for _, a := range s.Args {
		parts = append(parts, a.String())
	}
	if s.HasCost {
		parts = append(parts, s.Cost.String())
	}
	atom := s.Pred
	if len(parts) > 0 {
		atom += "(" + strings.Join(parts, ", ") + ")"
	}
	if s.Neg {
		return "not " + atom
	}
	return atom
}

// Derivation explains a tuple of a model: a rule and one of its ground
// instances satisfied in the model that derives the tuple at its stored
// cost (see Provenance.Explain).
type Derivation struct {
	Rule     string
	Supports []Support
}

// atomKey identifies a ground atom by predicate name and non-cost
// arguments.
func atomKey(s Support) string {
	return s.Pred + "\x00" + val.KeyOf(s.Args)
}

// Provenance explains the tuples of one model, db, re-deriving each
// explanation from db's tuples with the reference interpreter by the
// contract in docs/ARCHITECTURE.md, "Provenance". It caches the stages
// of each recursive component and every explanation it derives, so it
// belongs with its model. It only reads db and the plans, and is safe
// for concurrent use.
type Provenance struct {
	en     *Engine
	db     *relation.DB
	stages []stages // per component; computed for recursive ones only
	memo   sync.Map // atomKey → *Derivation; nil: unexplained
}

// stages holds, per predicate of a recursive component and by row id in
// the model, the stage each tuple enters at (see stagesOf).
type stages struct {
	once sync.Once
	of   map[ast.PredKey][]int32
}

// Provenance returns the explainer of db, a model of the engine's program.
func (en *Engine) Provenance(db *relation.DB) *Provenance {
	return &Provenance{en: en, db: db, stages: make([]stages, len(en.comps))}
}

// Explain returns how the model derives the tuple of predicate pred with
// the given non-cost arguments: the first rule for pred with an instance
// that derives the stored cost (within Options.Epsilon) from lower
// components and, in a recursive component, from the stages below the
// tuple's own; and, of that rule's such instances, the one whose
// supports sort least. ok is false when the model lacks the tuple, no
// rule derives it, or no finite derivation reaches its stored cost.
func (pv *Provenance) Explain(pred string, args []val.T) (*Derivation, bool) {
	k, stored, ok := lookupTuple(pv.db, pred, args)
	if !ok {
		return nil, false
	}
	key := atomKey(Support{Pred: pred, Args: args})
	d, seen := pv.memo.Load(key)
	if !seen {
		d, _ = pv.memo.LoadOrStore(key, pv.derive(k, args, stored))
	}
	return d.(*Derivation), d.(*Derivation) != nil
}

// derive picks the explanation of the stored tuple of k (see Explain).
func (pv *Provenance) derive(k ast.PredKey, args []val.T, stored relation.Row) *Derivation {
	ev := &evaluator{db: pv.db, supports: true}
	for ci, ps := range pv.en.plans {
		for _, p := range ps {
			if p.head.Pred != k {
				continue
			}
			if pv.en.compRecursive[ci] && ev.stage == nil {
				ev.stage = pv.stagesOf(ci)
				if ev.below = ev.stage[k][pv.db.Rel(k).ID(args)]; ev.below < 2 {
					return nil // a fact of the model, or no finite derivation
				}
			}
			e := newEnv(p.nvars)
			if !bindHead(&p.head, args, e) {
				continue
			}
			var best *Derivation
			found := false
			err := ev.step(p.steps, 0, e, func(e *env) error {
				if _, c, err := headTuple(p, e.vals); err == nil && pv.en.derivesCost(p, c, stored) {
					// A fact rule (nil derivation) is its own explanation.
					if d := buildDerivation(p, e); !found || (d != nil && compareSupports(d.Supports, best.Supports) < 0) {
						best = d
					}
					found = true
				}
				return nil
			})
			if err == nil && found {
				return best
			}
		}
	}
	return nil
}

// stagesOf returns the stages of recursive component ci's tuples,
// computed on first use by a naive re-evaluation of the component over
// the model in which every tuple enters at its stored cost. Stage 1 holds
// the tuples no instance satisfied in the model derives: the model's
// facts. A tuple enters at stage r > 1 when an instance over the lower
// components and the stages below r derives its stored cost, so an
// explanation never leads back to its own tuple. A tuple no finite chain
// of stages reaches keeps stage 0: one derived only through itself, or
// whose cost is the limit of an infinite ascending chain.
func (pv *Provenance) stagesOf(ci int) map[ast.PredKey][]int32 {
	st := &pv.stages[ci]
	st.once.Do(func() {
		of := map[ast.PredKey][]int32{}
		for _, k := range pv.en.comps[ci].Preds {
			if pv.db.Has(k) {
				of[k] = make([]int32, pv.db.Rel(k).Len())
			}
		}
		// admit runs one naive pass of the component's rules under ev and
		// gives stage r to every tuple still at stage 0 that an instance
		// derives at its stored cost, reporting whether any did.
		admit := func(ev *evaluator, r int32) (admitted bool) {
			for _, p := range pv.en.plans[ci] {
				if s, ok := of[p.head.Pred]; ok { // else the model holds no tuple of the head
					rel, buf := pv.db.Rel(p.head.Pred), make([]val.T, len(p.head.ArgVar))
					_ = ev.run(p, func(e *env) error {
						if args, c, err := headTupleInto(p, e.vals, buf); err == nil {
							if id := rel.ID(args); id >= 0 && s[id] == 0 && pv.en.derivesCost(p, c, rel.At(id)) {
								s[id], admitted = r, true
							}
						}
						return nil
					})
				}
			}
			return admitted
		}
		// -1 marks the tuples an instance over the whole model derives.
		admit(&evaluator{db: pv.db}, -1)
		for _, s := range of {
			for id := range s {
				s[id]++ // underived (0) to stage 1, derived (-1) to unstaged
			}
		}
		for r := int32(2); admit(&evaluator{db: pv.db, stage: of, below: r}, r); r++ {
		}
		st.of = of
	})
	return st.of
}

// lookupTuple finds db's tuple of predicate pred with the given non-cost
// arguments (pred/n without a cost, else pred/n+1 with one), without
// materializing a missing relation.
func lookupTuple(db *relation.DB, pred string, args []val.T) (ast.PredKey, relation.Row, bool) {
	for arity := len(args); arity <= len(args)+1; arity++ {
		k := ast.MakePredKey(pred, arity)
		if pi := db.Schemas.Info(k); pi == nil || pi.NonCost() != len(args) || !db.Has(k) {
			continue
		}
		if row, ok := db.Rel(k).Get(args); ok {
			return k, row, true
		}
	}
	return "", relation.Row{}, false
}

// bindHead binds the head's non-cost variables to args in e, reporting
// false when a head constant or a repeated head variable disagrees.
func bindHead(hs *exec.Atom, args []val.T, e *env) bool {
	for j, v := range hs.ArgVar {
		switch {
		case v < 0:
			if !val.Equal(hs.ArgVal[j], args[j]) {
				return false
			}
		case e.bound[v]:
			if !val.Equal(e.vals[v], args[j]) {
				return false
			}
		default:
			e.vals[v], e.bound[v] = args[j], true
		}
	}
	return true
}

// derivesCost reports whether an instance of p that derives cost c
// derives the stored cost: exactly, or within Options.Epsilon for
// numeric costs.
func (en *Engine) derivesCost(p *plan, c lattice.Elem, stored relation.Row) bool {
	if !stored.HasCost || lattice.Eq(p.head.Info.L, c, stored.Cost) {
		return true
	}
	eps := en.opts.Epsilon
	return eps > 0 && c.Kind == val.Num && stored.Cost.Kind == val.Num && math.Abs(c.Num()-stored.Cost.Num()) <= eps
}

// buildDerivation snapshots a satisfied instance as a Derivation (nil
// for fact rules, which are their own explanation): the body's supports
// in canonical step order, then each aggregate's contributing atoms in
// compareSupports order. The snapshot owns all of its data — nothing
// aliases the env.
func buildDerivation(p *plan, e *env) *Derivation {
	if p.rule.IsFact() {
		return nil
	}
	d := &Derivation{Rule: p.text}
	for i := range p.steps {
		switch st := &p.steps[i]; st.Kind {
		case exec.ScanKind, exec.NegKind:
			d.Supports = append(d.Supports, supportOfAtom(&st.Atom, e, st.Kind == exec.NegKind))
		case exec.BuiltinKind:
			d.Supports = append(d.Supports, Support{Note: renderBuiltin(p, st.Builtin, e)})
		case exec.AggKind:
			d.Supports = append(d.Supports, Support{Note: renderAgg(p, st.Agg, e)})
		}
	}
	for i, st := range p.steps {
		if st.Kind == exec.AggKind {
			d.Supports = append(d.Supports, sortedContributions(e.aggSupports[i], len(st.Agg.Conj))...)
		}
	}
	return d
}

// sortedContributions orders an aggregate group's contributions — one
// support per conjunct for each match — match by match under
// compareSupports.
func sortedContributions(sup []Support, k int) []Support {
	matches := make([][]Support, 0, len(sup)/k)
	for i := 0; i+k <= len(sup); i += k {
		matches = append(matches, sup[i:i+k])
	}
	sort.Slice(matches, func(i, j int) bool { return compareSupports(matches[i], matches[j]) < 0 })
	out := make([]Support, 0, len(sup))
	for _, m := range matches {
		out = append(out, m...)
	}
	return out
}

// compareSupports orders two instances' supports lexicographically by
// arguments, then cost, in the natural order Model.Facts uses. Aligned
// supports of two instances of one rule are the same atom, and the atoms
// determine the instance, so this is a total order on a rule's
// instances.
func compareSupports(a, b []Support) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		c := relation.CompareArgs(a[i].Args, b[i].Args)
		if c == 0 && a[i].HasCost {
			c = val.Compare(a[i].Cost, b[i].Cost)
		}
		if c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

func supportOfAtom(sp *exec.Atom, e *env, neg bool) Support {
	s := Support{Pred: sp.Pred.Name(), Neg: neg, HasCost: sp.Info.HasCost}
	for j, v := range sp.ArgVar {
		if v >= 0 {
			s.Args = append(s.Args, e.vals[v])
		} else {
			s.Args = append(s.Args, sp.ArgVal[j])
		}
	}
	if sp.Info.HasCost {
		if sp.CostVar >= 0 {
			s.Cost = e.vals[sp.CostVar]
		} else {
			s.Cost = sp.CostVal
		}
	}
	return s
}

// replaceVars substitutes variable names by values, longest names first
// so that C1 is never corrupted by a C substitution.
func replaceVars(text string, pairs map[string]string) string {
	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
	for _, n := range names {
		text = strings.ReplaceAll(text, n, pairs[n])
	}
	return text
}

func renderBuiltin(p *plan, st *exec.BuiltinStep, e *env) string {
	pairs := map[string]string{}
	for _, idx := range slices.Concat(st.LVars, st.RVars) {
		if e.bound[idx] {
			pairs[string(p.names[idx])] = e.vals[idx].String()
		}
	}
	return replaceVars(fmt.Sprintf("%s %s %s", st.B.L, st.B.Op, st.B.R), pairs)
}

func renderAgg(p *plan, st *exec.AggStep, e *env) string {
	pairs := map[string]string{}
	note := func(idx int) {
		if idx >= 0 && idx < len(p.names) && idx < len(e.bound) && e.bound[idx] {
			pairs[string(p.names[idx])] = e.vals[idx].String()
		}
	}
	note(st.Result)
	for _, v := range st.GroupVars {
		note(v)
	}
	return replaceVars(st.G.String(), pairs)
}

// Tree renders the explanation of a tuple as a tree to the given depth,
// expanding every atom support that has an explanation of its own;
// supports without one print as [fact]. Every support comes from a lower
// component or an earlier stage, so no path repeats an atom.
func (pv *Provenance) Tree(pred string, args []val.T, depth int) string {
	var b strings.Builder
	var node func(head Support, depth int, indent string)
	node = func(head Support, depth int, indent string) {
		if _, row, ok := lookupTuple(pv.db, head.Pred, head.Args); ok {
			head.Cost, head.HasCost = row.Cost, row.HasCost
		}
		d, ok := pv.Explain(head.Pred, head.Args)
		if !ok {
			fmt.Fprintf(&b, "%s%s  [fact]\n", indent, head)
			return
		}
		fmt.Fprintf(&b, "%s%s  [%s]\n", indent, head, d.Rule)
		if depth <= 0 {
			return
		}
		for _, s := range d.Supports {
			if s.Pred == "" || s.Neg {
				fmt.Fprintf(&b, "%s  %s\n", indent, s)
			} else {
				node(s, depth-1, indent+"  ")
			}
		}
	}
	node(Support{Pred: pred, Args: args}, depth, "")
	return b.String()
}
