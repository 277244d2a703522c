package core

import (
	"context"
	"errors"
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
func (en *Engine) SolveMore(prev *relation.DB, added *relation.DB) (*relation.DB, Stats, error) {
	return en.SolveMoreContext(context.Background(), prev, added)
}

// SolveMoreContext is SolveMore with cooperative cancellation and the
// engine's resource limits; on a limit breach it returns the partially
// extended model alongside the *EngineError.
func (en *Engine) SolveMoreContext(ctx context.Context, prev *relation.DB, added *relation.DB) (*relation.DB, Stats, error) {
	return en.SolveMoreFrom(ctx, prev, added, Stats{})
}

// SolveMoreFrom is SolveMoreContext with the returned Stats seeded from
// base: callers chaining incremental solves (or resuming from durable
// checkpoints, whose metadata records cumulative work) pass the stats
// of the model being extended, so rounds/firings/derivations report
// running totals rather than per-resume counts.
//
// It runs the component walk with a seed hook: each component the walk
// dispatches resumes its Δ-driven loop from the changed rows it reads —
// the added EDB rows plus what the components below it changed — and a
// component that reads none settles unevaluated, its relations still
// prev's.
func (en *Engine) SolveMoreFrom(ctx context.Context, prev *relation.DB, added *relation.DB, base Stats) (*relation.DB, Stats, error) {
	return en.solve(ctx, en.opts.Limits, base, func(g *guard) (*relation.DB, error) {
		if slices.Contains(en.wfsComp, true) {
			return nil, fmt.Errorf("core: SolveMore is unsound with well-founded fallback components (negation is not insert-monotone)")
		}
		var addedPreds []ast.PredKey
		for _, k := range added.Preds() {
			if added.Rel(k).Len() == 0 {
				continue
			}
			if why, blocked := en.insertBlocked[k]; blocked {
				return nil, errors.New(why)
			}
			addedPreds = append(addedPreds, k)
		}

		// The starting interpretation shares prev's relations. An added
		// predicate is cloned here before its rows go in; a component's
		// are cloned by the walk's private view when it is dispatched.
		db := prev.Share()
		changed := newDeltaSet(&en.bits)
		for _, k := range addedPreds {
			rel := db.Rel(k).Clone()
			db.SetRel(k, rel)
			added.Rel(k).Each(func(row relation.Row) bool {
				if id, ok := insertEps(rel, row.Args, row.Cost, en.opts.Epsilon); ok {
					changed.slot(k).add(id)
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

// seed cuts component ci's Δ seed from the rows an incremental walk has
// changed: those of the lower predicates its rules read, which are final
// once ci is ready, so the seed shares their storage — and their row ids
// index the very relations ci's view shares. (A predicate read
// under negation is never among them: noteInsertMonotone blocks every
// fact that could change one.) It is nil when there are none, and the
// component's model cannot move.
func (en *Engine) seed(ci int, changed *deltaSet) *deltaSet {
	seed := newDeltaSet(&en.bits)
	for _, k := range en.compLDB[ci] {
		if pd := changed.preds[k]; pd != nil && len(pd.ids) > 0 {
			seed.preds[k] = pd
		}
	}
	if seed.empty() {
		return nil
	}
	return seed
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
	en.insertBlocked = map[ast.PredKey]string{}
	block := func(k ast.PredKey, format string, args ...any) {
		if _, done := en.insertBlocked[k]; !done {
			en.insertBlocked[k] = fmt.Sprintf(format, args...)
		}
	}
	for _, r := range rules {
		if !r.IsFact() {
			k := r.Head.Key()
			block(k, "core: SolveMore cannot add facts for derived predicate %s (its value is computed by rules)", k)
		}
	}
	// nonMonotone blocks k, which rule r reads as how says, and then
	// (when deep) every predicate k depends on, breadth-first, naming the
	// path.
	nonMonotone := func(k ast.PredKey, r *ast.Rule, how string, deep bool) {
		block(k, "core: SolveMore cannot add facts for %s: rule %q reads it %s", k, r, how)
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
				path := []string{string(y)}
				for z := y; z != k; z = parent[z] {
					path = append(path, string(parent[z]))
				}
				slices.Reverse(path)
				block(y, "core: SolveMore cannot add facts for %s: rule %q reads %s %s, and %s depends on it through rule bodies (%s)",
					y, r, k, how, k, strings.Join(path, " → "))
			}
			queue = append(queue, next...)
		}
	}
	for _, r := range rules {
		for _, sg := range r.Body {
			switch sg := sg.(type) {
			case *ast.Lit:
				if sg.Neg {
					nonMonotone(sg.Atom.Key(), r, "under negation", true)
				}
			case *ast.Agg:
				// ValidateProgram resolved every aggregate name at New.
				if f, _ := lattice.AggregateByName(sg.Func); !f.Monotone() {
					how := fmt.Sprintf("inside the non-monotone %s aggregate (a grown multiset may shrink the result)", sg.Func)
					for i := range sg.Conj {
						// A default-value predicate holds every tuple, so
						// growing what it depends on only raises element
						// values, which a pseudo-monotone aggregate turns
						// into a larger result (Definition 4.1).
						k := sg.Conj[i].Key()
						pi := en.Schemas.Info(k)
						nonMonotone(k, r, how, !f.PseudoMonotone() || pi == nil || !pi.HasDefault)
					}
				}
			}
		}
	}
}
