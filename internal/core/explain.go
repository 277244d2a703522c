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

// atomKey identifies a ground atom by predicate name and the words of
// its non-cost arguments (val.WordKey).
func atomKey(s Support) string {
	return s.Pred + "\x00" + val.WordKey(s.Args)
}

// Provenance explains the tuples of one model, db, re-deriving each
// explanation from db's tuples on the rules' pipelines by the contract
// in docs/ARCHITECTURE.md, "Provenance". It caches the stages of each
// recursive component and every explanation it derives, so it belongs
// with its model. It only reads db, and is safe for concurrent use.
type Provenance struct {
	en *Engine
	// db is the model with every predicate materialized (readView), the
	// interpretation the pipelines read outside recursive components.
	db     *relation.DB
	stages []stages // per component; computed for recursive ones only
	memo   sync.Map // atomKey → *Derivation; nil: unexplained
}

// stages holds a recursive component's stages (see stagesOf): of[k][id]
// is the stage at which the model's tuple id of predicate k enters, and
// gen[s], for s ≥ 2, is the interpretation an instance deriving a tuple
// of stage s reads: the model's relations outside the component and the
// component's tuples of the stages below s.
type stages struct {
	once sync.Once
	of   map[ast.PredKey][]int32
	gen  []*relation.DB
}

// Provenance returns the explainer of db, a model of the engine's program.
func (en *Engine) Provenance(db *relation.DB) *Provenance {
	return &Provenance{en: en, db: en.readView(db), stages: make([]stages, len(en.comps))}
}

// readView returns an interpretation holding db's relations with every
// predicate of the program materialized, empty where db has none. The
// pipelines resolve their relations through DB.Rel, which creates a
// missing one; over the view it never has to, so any number of
// goroutines may run pipelines over one view, and db is never written.
func (en *Engine) readView(db *relation.DB) *relation.DB {
	v := db.Share()
	for _, c := range en.comps {
		for _, k := range c.Preds {
			v.Rel(k)
		}
	}
	return v
}

// Explain returns how the model derives the tuple of predicate pred with
// the given non-cost arguments, by the contract in docs/ARCHITECTURE.md,
// "Provenance". ok is false when the model lacks the tuple, no rule
// derives it, or no finite derivation reaches its stored cost.
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

// derive picks the explanation of the stored tuple of k (see Explain):
// each rule for k runs its canonical pipeline with the head's arguments
// bound, over the model or, in a recursive component, over the
// generation of the stages below the tuple's.
func (pv *Provenance) derive(k ast.PredKey, args []val.T, stored relation.Row) *Derivation {
	db, staged := pv.db, false
	for ci, ps := range pv.en.plans {
		for _, p := range ps {
			if p.head.Pred != k {
				continue
			}
			if pv.en.compRecursive[ci] && !staged {
				st := pv.stagesOf(ci)
				s := st.of[k][pv.db.Rel(k).ID(args)]
				if s < 2 {
					return nil // a fact of the model, or no finite derivation
				}
				db, staged = st.gen[s], true
			}
			var best *Derivation
			found := false
			bind := func(r *exec.Regs) bool { return bindHead(&p.head, args, r) }
			err := run(p.pipe.stream, db, bind, func(m *exec.Machine) error {
				if _, c, err := headTuple(p, m.Vals); err == nil && pv.en.derivesCost(p, c, stored) {
					// A fact rule (nil derivation) is its own explanation.
					if d := buildDerivation(p, db, &m.Regs); !found || (d != nil && compareSupports(d.Supports, best.Supports) < 0) {
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

// stagesOf returns the stages of recursive component ci's tuples (see
// docs/ARCHITECTURE.md, "Provenance"), computed on first use. Stage 1
// holds the tuples no instance over the whole model derives; round r
// runs the component's rules over the generation frozen before it and
// admits, at stage r, each tuple still unstaged that an instance derives
// at its stored cost, appending it to the next generation. A tuple no
// round admits keeps stage 0.
func (pv *Provenance) stagesOf(ci int) *stages {
	st := &pv.stages[ci]
	st.once.Do(func() {
		preds := pv.en.comps[ci].Preds
		st.of = make(map[ast.PredKey][]int32, len(preds))
		for _, k := range preds {
			st.of[k] = make([]int32, pv.db.Rel(k).Len())
		}
		tips := make([]*relation.Relation, len(preds))
		// admit runs one naive pass of the component's rules over db and
		// gives stage r to every tuple still at stage 0 that an instance
		// derives at its stored cost, appending it to the tips when they
		// are set; it reports whether it admitted any.
		admit := func(db *relation.DB, r int32) (admitted bool) {
			for _, p := range pv.en.plans[ci] {
				s, rel := st.of[p.head.Pred], pv.db.Rel(p.head.Pred)
				tip, buf := tips[slices.Index(preds, p.head.Pred)], make([]val.T, len(p.head.ArgVar))
				_ = run(p.pipe.stream, db, nil, func(m *exec.Machine) error {
					if args, c, err := headTupleInto(p, m.Vals, buf); err == nil {
						if id := rel.ID(args); id >= 0 && s[id] == 0 {
							if row := rel.At(id); pv.en.derivesCost(p, c, row) {
								s[id], admitted = r, true
								if tip != nil {
									tip.InsertJoin(row.Args, row.Cost)
								}
							}
						}
					}
					return nil
				})
			}
			return admitted
		}
		// -1 marks the tuples an instance over the whole model derives.
		admit(pv.db, -1)
		for i, k := range preds {
			rel := pv.db.Rel(k)
			tips[i] = relation.New(rel.Info)
			for id, s := range st.of[k] {
				if st.of[k][id] = s + 1; s == 0 { // underived (0) to stage 1, derived (-1) to unstaged
					row := rel.At(id)
					tips[i].InsertJoin(row.Args, row.Cost)
				}
			}
		}
		st.gen = make([]*relation.DB, 2, 8) // stages 0 and 1 read no generation
		for r := int32(2); ; r++ {
			g := pv.db.Share()
			for i, k := range preds {
				g.SetRel(k, tips[i])
				tips[i] = tips[i].Clone()
			}
			st.gen = append(st.gen, g)
			if !admit(g, r) {
				break
			}
		}
	})
	return st
}

// lookupTuple finds db's tuple of a predicate named pred with the given
// non-cost arguments (see relation.DB.TupleKeys), without materializing a
// missing relation.
func lookupTuple(db *relation.DB, pred string, args []val.T) (ast.PredKey, relation.Row, bool) {
	ks, n := db.TupleKeys(pred, len(args))
	for _, k := range ks[:n] {
		if row, ok := db.Rel(k).Get(args); ok {
			return k, row, true
		}
	}
	return "", relation.Row{}, false
}

// bindHead binds the head's non-cost variables to args in r, reporting
// false when a head constant or a repeated head variable disagrees.
func bindHead(hs *exec.Atom, args []val.T, r *exec.Regs) bool {
	for j, v := range hs.ArgVar {
		switch {
		case v < 0:
			if !val.Equal(hs.ArgVal[j], args[j]) {
				return false
			}
		case r.Bound[v]:
			if !val.Equal(r.Vals[v], args[j]) {
				return false
			}
		default:
			r.Vals[v], r.Bound[v] = args[j], true
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
	return eps > 0 && c.Kind() == val.Num && stored.Cost.Kind() == val.Num && math.Abs(c.Num()-stored.Cost.Num()) <= eps
}

// buildDerivation snapshots a satisfied instance, the registers r of a
// run over db, as a Derivation (nil for fact rules, which are their own
// explanation): the body's supports in canonical step order, then each
// aggregate's contributing atoms in compareSupports order. The snapshot
// owns all of its data — nothing aliases the registers.
func buildDerivation(p *plan, db *relation.DB, r *exec.Regs) *Derivation {
	if p.rule.IsFact() {
		return nil
	}
	d := &Derivation{Rule: p.text}
	for i := range p.steps {
		switch st := &p.steps[i]; st.Kind {
		case exec.ScanKind, exec.NegKind:
			d.Supports = append(d.Supports, supportOfAtom(&st.Atom, r.Vals, st.Kind == exec.NegKind))
		case exec.BuiltinKind:
			d.Supports = append(d.Supports, Support{Note: renderBuiltin(p, st.Builtin, r)})
		case exec.AggKind:
			d.Supports = append(d.Supports, Support{Note: renderAgg(p, st.Agg, r)})
		}
	}
	for i := range p.steps {
		if a := p.steps[i].Agg; a != nil {
			var sup []Support
			_ = p.contributions(i, db, r.Vals, func(vals []val.T) {
				for ci := range a.Conj {
					sup = append(sup, supportOfAtom(&a.Conj[ci], vals, false))
				}
			})
			d.Supports = append(d.Supports, sortedContributions(sup, len(a.Conj))...)
		}
	}
	return d
}

// contributions enumerates the matches of γ step si's conjunction over
// db in the group the registers vals bind: the group's supports. A
// conjunction's variables are its grouping variables and its local ones,
// so the conjunct scans (plan.conjs), run with the grouping variables
// bound, enumerate exactly the group's matches; f reads each match's
// registers.
func (p *plan) contributions(si int, db *relation.DB, vals []val.T, f func([]val.T)) error {
	a := p.steps[si].Agg
	if a.OrderPointErr != nil {
		return a.OrderPointErr
	}
	p.conjsOnce.Do(func() {
		p.conjs = make([]*exec.Rule, len(p.steps))
		for i := range p.steps {
			if a := p.steps[i].Agg; a != nil && a.OrderPointErr == nil {
				scans := make([]exec.Step, len(a.OrderPoint))
				for j, ci := range a.OrderPoint {
					scans[j] = exec.Step{Kind: exec.ScanKind, Atom: a.Conj[ci]}
				}
				p.conjs[i] = exec.NewRule(p.nvars, scans)
			}
		}
	})
	bind := func(r *exec.Regs) bool {
		for _, v := range a.GroupVars {
			r.Vals[v], r.Bound[v] = vals[v], true
		}
		return true
	}
	return run(p.conjs[si], db, bind, func(m *exec.Machine) error {
		f(m.Vals)
		return nil
	})
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

func supportOfAtom(sp *exec.Atom, vals []val.T, neg bool) Support {
	s := Support{Pred: sp.Pred.Name(), Neg: neg, HasCost: sp.Info.HasCost}
	for j, v := range sp.ArgVar {
		if v >= 0 {
			s.Args = append(s.Args, vals[v])
		} else {
			s.Args = append(s.Args, sp.ArgVal[j])
		}
	}
	if sp.Info.HasCost {
		if sp.CostVar >= 0 {
			s.Cost = vals[sp.CostVar]
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

func renderBuiltin(p *plan, st *exec.BuiltinStep, r *exec.Regs) string {
	pairs := map[string]string{}
	for _, idx := range slices.Concat(st.LVars, st.RVars) {
		if r.Bound[idx] {
			pairs[string(p.names[idx])] = r.Vals[idx].String()
		}
	}
	return replaceVars(fmt.Sprintf("%s %s %s", st.B.L, st.B.Op, st.B.R), pairs)
}

func renderAgg(p *plan, st *exec.AggStep, r *exec.Regs) string {
	pairs := map[string]string{}
	note := func(idx int) {
		if idx >= 0 && idx < len(p.names) && idx < len(r.Bound) && r.Bound[idx] {
			pairs[string(p.names[idx])] = r.Vals[idx].String()
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
