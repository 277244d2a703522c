package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/deps"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// SolveMore continues a previously computed model with additional EDB
// facts, without recomputation from scratch. Monotonicity makes
// insert-only incremental maintenance sound: adding facts can only grow
// the least model (T_P is monotone in I for positive references and
// monotone aggregates), so the old model is a valid intermediate
// interpretation and the Δ-driven fixpoint resumes from it with the new
// rows as the seed.
//
// Soundness requires that every added predicate is used *monotonically*
// by the program; SolveMore rejects additions to predicates that are
// defined by rules, or that some rule reads — directly or through the
// predicates it reaches in rule bodies — under negation or inside a
// non-monotone (pseudo-monotonic) aggregate, and rejects programs using
// the well-founded fallback (negation is not insert-monotone). The
// previous model is not modified; the returned database shares the
// relations of it that the added facts cannot change, and extends the
// storage of the others in place (relation.Relation.Clone), so a second
// SolveMore from the same previous model copies what it writes.
//
// ctx and the engine's limits stop it as they stop Resume, which
// returns the partially extended model alongside the *EngineError.
// base seeds the returned Stats: callers chaining incremental solves
// pass the stats of the model being extended, so rounds/firings/
// derivations report running totals rather than per-call counts.
//
// It runs the component walk with a seed hook: each component the walk
// dispatches resumes its Δ-driven loop from the changed rows it reads —
// the added EDB rows plus what the components below it changed — and a
// component that reads none settles unevaluated, its relations still
// prev's.
func (en *Engine) SolveMore(ctx context.Context, prev, added *relation.DB, base Stats) (*relation.DB, Stats, error) {
	addedPreds, err := en.insertable(added)
	if err != nil {
		return nil, Stats{}, err
	}
	return en.solve(ctx, en.opts.Limits, base, func(g *guard) (*relation.DB, error) {
		// The starting interpretation shares prev's relations. An added
		// predicate is cloned here before its rows go in; a component's
		// are cloned by the walk's private view when it is dispatched.
		db := prev.Share()
		changed := newDeltaSet(&en.bits, len(en.predNum))
		for _, k := range addedPreds {
			rel := db.Rel(k).Clone()
			db.SetRel(k, rel)
			// A predicate the program does not mention feeds no rule:
			// its rows go in, but nothing is seeded from them.
			n, mentioned := en.predNum[k]
			added.Rel(k).Each(func(row relation.Row) bool {
				if id, ok := insertEps(rel, row.Args, row.Cost, en.opts.Epsilon); ok && mentioned {
					changed.slot(int(n)).add(id)
				}
				return true
			})
		}
		err := en.runScheduled(g, db, en.opts.Limits, changed)
		if err == nil {
			// The walk is over; the records it merged into changed
			// hand their bitsets back.
			changed.release()
		}
		return db, err
	})
}

// insertable returns the predicates added holds facts for, refusing them
// as a start above an existing model must (SolveMore, and Resume of a
// model with more facts): a program with well-founded fallback
// components takes none (negation is not insert-monotone), and no
// predicate noteInsertMonotone blocked takes any.
func (en *Engine) insertable(added *relation.DB) ([]ast.PredKey, error) {
	wfs := slices.ContainsFunc(en.wfsProgs, func(w *WFSProgram) bool { return w != nil })
	var preds []ast.PredKey
	for _, k := range added.Preds() {
		if added.Rel(k).Len() == 0 {
			continue
		}
		if wfs {
			return nil, fmt.Errorf("core: SolveMore is unsound with well-founded fallback components (negation is not insert-monotone)")
		}
		if why, blocked := en.insertBlocked[k]; blocked {
			return nil, why.error(k)
		}
		preds = append(preds, k)
	}
	return preds, nil
}

// seed cuts component ci's Δ seed from the rows an incremental walk has
// changed: those of the lower predicates its rules read, which are final
// once ci is ready, so the seed shares their storage — and their row ids
// index the very relations ci's view shares. (A predicate read
// under negation is never among them: noteInsertMonotone blocks every
// fact that could change one.) It is nil when there are none, and the
// component's model cannot move.
func (en *Engine) seed(ci int, changed *deltaSet) *deltaSet {
	di := &en.compDelta[ci]
	seed := newDeltaSet(&en.bits, len(di.keys))
	for n, gn := range di.global {
		if pd := changed.preds[gn]; di.ldb[n] && pd != nil && len(pd.ids) > 0 {
			seed.set(n, pd)
		}
	}
	if seed.empty() {
		return nil
	}
	return seed
}

// insertBlock is why SolveMore refuses facts for a predicate, kept as
// the facts that say it and rendered only when a refusal happens: the
// predicate is derived (rule nil), or rule reads pred non-monotonically
// — under negation, or inside the non-monotone aggregate agg — and path
// leads from pred through rule bodies to the refused predicate when it
// is not pred itself.
type insertBlock struct {
	rule *ast.Rule
	pred ast.PredKey
	agg  string
	path []ast.PredKey
}

// error renders the refusal of facts for k.
func (b insertBlock) error(k ast.PredKey) error {
	if b.rule == nil {
		return fmt.Errorf("core: SolveMore cannot add facts for derived predicate %s (its value is computed by rules)", k)
	}
	how := "under negation"
	if b.agg != "" {
		how = fmt.Sprintf("inside the non-monotone %s aggregate (a grown multiset may shrink the result)", b.agg)
	}
	if b.path == nil {
		return fmt.Errorf("core: SolveMore cannot add facts for %s: rule %q reads it %s", k, b.rule, how)
	}
	path := make([]string, len(b.path))
	for i, p := range b.path {
		path[i] = string(p)
	}
	return fmt.Errorf("core: SolveMore cannot add facts for %s: rule %q reads %s %s, and %s depends on it through rule bodies (%s)",
		k, b.rule, b.pred, how, b.pred, strings.Join(path, " → "))
}

// noteInsertMonotone records, once per engine, which predicates SolveMore
// must refuse facts for and why: predicates whose value is computed by
// rules, predicates some rule reads non-monotonically (under negation,
// or inside a pseudo-monotonic aggregate — a grown multiset may shrink
// its result), and every predicate such a read depends on through rule
// bodies (edges of g), since a fact for it can grow the predicate read
// and so shrink what the reading rule derives — unless the read is a
// default-value predicate inside a pseudo-monotone aggregate (see
// below). Predicates defined only by ground facts and read only
// monotonically stay open. The first reason found in program order is
// kept.
func (en *Engine) noteInsertMonotone(rules []*ast.Rule, g *deps.Graph) {
	en.insertBlocked = map[ast.PredKey]insertBlock{}
	block := func(k ast.PredKey, why insertBlock) {
		if _, done := en.insertBlocked[k]; !done {
			en.insertBlocked[k] = why
		}
	}
	for _, r := range rules {
		if !r.IsFact() {
			block(r.Head.Key(), insertBlock{})
		}
	}
	// nonMonotone blocks k, which rule r reads under negation (agg "")
	// or inside aggregate agg, and then (when deep) every predicate k
	// depends on, breadth-first, naming the path.
	nonMonotone := func(k ast.PredKey, r *ast.Rule, agg string, deep bool) {
		block(k, insertBlock{rule: r, pred: k, agg: agg})
		if !deep {
			return
		}
		parent := map[ast.PredKey]ast.PredKey{k: k}
		for queue := []ast.PredKey{k}; len(queue) > 0; queue = queue[1:] {
			var next []ast.PredKey
			for y := range g.Edges[queue[0]] {
				if _, seen := parent[y]; !seen {
					parent[y] = queue[0]
					next = append(next, y)
				}
			}
			slices.Sort(next)
			for _, y := range next {
				if _, done := en.insertBlocked[y]; done {
					continue
				}
				path := []ast.PredKey{y}
				for z := y; z != k; z = parent[z] {
					path = append(path, parent[z])
				}
				slices.Reverse(path)
				block(y, insertBlock{rule: r, pred: k, agg: agg, path: path})
			}
			queue = append(queue, next...)
		}
	}
	for _, r := range rules {
		for _, sg := range r.Body {
			switch sg := sg.(type) {
			case *ast.Lit:
				if sg.Neg {
					nonMonotone(sg.Atom.Key(), r, "", true)
				}
			case *ast.Agg:
				// ValidateProgram resolved every aggregate name at New.
				if f, _ := lattice.AggregateByName(sg.Func); !f.Monotone() {
					for i := range sg.Conj {
						// A default-value predicate holds every tuple, so
						// growing what it depends on only raises element
						// values, which a pseudo-monotone aggregate turns
						// into a larger result (Definition 4.1).
						k := sg.Conj[i].Key()
						pi := en.Schemas.Info(k)
						nonMonotone(k, r, sg.Func, !f.PseudoMonotone() || pi == nil || !pi.HasDefault)
					}
				}
			}
		}
	}
}
