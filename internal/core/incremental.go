package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/obs"
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
// by the program; SolveMore rejects additions to predicates that appear
// negated, inside a non-monotone (pseudo-monotonic) aggregate, or that
// are defined by rules, and rejects programs using the well-founded
// fallback (negation is not insert-monotone). The previous model is not
// modified; the returned database extends a copy of it.
func (en *Engine) SolveMore(prev *relation.DB, added *relation.DB) (*relation.DB, Stats, error) {
	return en.SolveMoreContext(context.Background(), prev, added)
}

// SolveMoreContext is SolveMore with cooperative cancellation and the
// engine's resource limits; on a limit breach it returns the partially
// extended model alongside the *EngineError.
func (en *Engine) SolveMoreContext(ctx context.Context, prev *relation.DB, added *relation.DB) (*relation.DB, Stats, error) {
	return en.SolveMoreFrom(ctx, prev, added, Stats{})
}

// SolveMoreObserved is SolveMoreFrom with an additional per-call event
// sink observing just this solve (tracing a single commit, say) on top
// of the engine's configured Options.Sink. The extra sink is
// mutex-wrapped like the construction-time one. Engines do not support
// concurrent solves (the fixpoint mutates shared per-plan scratch), so swapping
// the sink for the duration of the call introduces no new constraint;
// callers already serialize solves externally.
func (en *Engine) SolveMoreObserved(ctx context.Context, prev *relation.DB, added *relation.DB, base Stats, extra obs.Sink) (*relation.DB, Stats, error) {
	if extra == nil {
		return en.SolveMoreFrom(ctx, prev, added, base)
	}
	saved := en.sink
	en.sink = obs.Multi(saved, obs.Locked(extra))
	defer func() { en.sink = saved }()
	return en.SolveMoreFrom(ctx, prev, added, base)
}

// SolveMoreFrom is SolveMoreContext with the returned Stats seeded from
// base: callers chaining incremental solves (or resuming from durable
// checkpoints, whose metadata records cumulative work) pass the stats
// of the model being extended, so rounds/firings/derivations report
// running totals rather than per-resume counts.
func (en *Engine) SolveMoreFrom(ctx context.Context, prev *relation.DB, added *relation.DB, base Stats) (*relation.DB, Stats, error) {
	// Components run one after another here whatever Limits.Parallelism
	// says: incremental seeds flow bottom-up through `changed`, a
	// cross-component dependency the DAG scheduler does not model.
	return en.solve(ctx, en.opts.Limits, base, 1, func(g *guard, stats *Stats) (*relation.DB, error) {
		for _, w := range en.wfsComp {
			if w {
				return nil, fmt.Errorf("core: SolveMore is unsound with well-founded fallback components (negation is not insert-monotone)")
			}
		}
		var addedPreds []ast.PredKey
		for _, k := range added.Preds() {
			if added.Rel(k).Len() > 0 {
				addedPreds = append(addedPreds, k)
			}
		}
		if err := en.checkInsertMonotone(addedPreds); err != nil {
			return nil, err
		}

		db := prev.Clone()
		changed := newDeltaSet()
		for _, k := range addedPreds {
			rel := db.Rel(k)
			added.Rel(k).Each(func(row relation.Row) bool {
				if !rel.Info.HasCost {
					if rel.InsertJoin(row.Args, lattice.Elem{}) {
						changed.add(k, row)
					}
					return true
				}
				if insertEps(rel, row.Args, row.Cost, en.opts.Epsilon) {
					cur, _ := rel.GetOrDefault(row.Args)
					changed.add(k, cur)
				}
				return true
			})
		}
		record := func(k ast.PredKey, row relation.Row) { changed.add(k, row) }

		// Re-run each component bottom-up, seeded with everything that
		// has changed so far; each component's own derivations join the
		// seed for the components above it.
		for ci, c := range en.comps {
			ps := en.plans[ci]
			if len(ps) == 0 {
				continue
			}
			// Restrict the seed to predicates this component's plans read.
			seed := newDeltaSet()
			touched := false
			for _, p := range ps {
				for k := range p.scanSteps {
					for _, row := range changed.rows[k] {
						seed.add(k, row)
						touched = true
					}
				}
				for _, st := range p.steps {
					if ag, ok := st.(*aggStep); ok {
						for _, sp := range ag.conj {
							for _, row := range changed.rows[sp.pred] {
								seed.add(sp.pred, row)
								touched = true
							}
						}
					}
				}
			}
			if !touched {
				continue
			}
			stats.Components++
			g.comp, g.rule = c.Preds, nil
			err := en.runInstrumented(g, ci, func() error {
				return en.semiNaiveLoop(g, db, ci, stats, seed, record)
			})
			if err != nil {
				return db, err
			}
			if err := g.checkpoint(db, true); err != nil {
				return db, err
			}
		}
		return db, nil
	})
}

// noteInsertMonotone records, once per engine, which predicates SolveMore
// must refuse facts for and why: predicates whose value is computed by
// rules, and predicates some rule reads non-monotonically (under
// negation, or inside a pseudo-monotonic aggregate — a grown multiset
// may shrink its result). Predicates defined only by ground facts are
// EDB and stay open. The first reason found in program order is kept.
func (en *Engine) noteInsertMonotone(rules []*ast.Rule) {
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
	for _, r := range rules {
		for _, sg := range r.Body {
			switch sg := sg.(type) {
			case *ast.Lit:
				if sg.Neg {
					k := sg.Atom.Key()
					block(k, "core: SolveMore cannot add facts for %s: rule %q reads it under negation", k, r)
				}
			case *ast.Agg:
				// ValidateProgram resolved every aggregate name at New.
				if f, _ := lattice.AggregateByName(sg.Func); !f.Monotone() {
					for i := range sg.Conj {
						k := sg.Conj[i].Key()
						block(k, "core: SolveMore cannot add facts for %s: rule %q aggregates it with the non-monotone %s (a grown multiset may shrink the result)", k, r, sg.Func)
					}
				}
			}
		}
	}
}

// checkInsertMonotone verifies that the program uses each added predicate
// only in insert-monotone positions.
func (en *Engine) checkInsertMonotone(added []ast.PredKey) error {
	for _, k := range added {
		if why, blocked := en.insertBlocked[k]; blocked {
			return errors.New(why)
		}
	}
	return nil
}
