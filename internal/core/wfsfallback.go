package core

import (
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/val"
)

// solveWFSComponent evaluates a non-admissible component under the
// Kemp–Stuckey well-founded semantics, implementing the lowest rung of
// §6.3's iterated construction: "at the lowest level in the component
// hierarchy, we assume that the program is either monotonic, or has a
// two-valued well-founded model". The component's rules were compiled
// for the alternating fixpoint at New; its LDB (everything computed below
// it) is handed to that program as its facts, the cost-free relations as
// they are and the others with each cost as a final argument. The
// well-founded model must be two-valued on the component's predicates,
// and its true atoms become part of the base interpretation I for the
// components above.
func (en *Engine) solveWFSComponent(g *guard, db *relation.DB, ci int, stats *Stats) error {
	c := en.comps[ci]
	edb := relation.NewDB(en.Schemas)
	for _, k := range en.compLDB[ci] {
		pi := en.Schemas.Info(k)
		if pi != nil && pi.HasDefault {
			return fmt.Errorf("core: well-founded fallback cannot evaluate component %v: it reads the default-value predicate %s (the set-based comparator has no virtual rows)", c.Preds, k)
		}
		if db.Has(k) {
			edb.SetRel(k, flatten(db.Rel(k)))
		}
	}

	res, err := en.wfsProgs[ci].solve(g.ctx, edb)
	if err != nil {
		// Limit breaches keep their structured class.
		for _, class := range []error{ErrCanceled, ErrBudgetExceeded, ErrDiverged} {
			if errors.Is(err, class) {
				return g.fail(class, err)
			}
		}
		return fmt.Errorf("core: well-founded fallback on component %v: %w", c.Preds, err)
	}
	stats.Rounds += res.Iterations

	// §6.3 requires the well-founded model to be two-valued here.
	for _, k := range c.Preds {
		for _, row := range relOf(res.Possible, k).Rows() {
			if !holds(res.True, k, row.Args) {
				return fmt.Errorf("core: component %v has no two-valued well-founded model (%s%v is undefined); the iterated semantics of §6.3 is not defined for this input", c.Preds, k.Name(), row.Args)
			}
		}
	}

	// Inject the component's true atoms into the interpretation.
	for _, k := range c.Preds {
		pi := en.Schemas.Info(k)
		rel := db.Rel(k)
		for _, row := range relOf(res.True, k).Rows() {
			args := row.Args
			if pi == nil || !pi.HasCost {
				rel.InsertJoin(args, val.T{})
				continue
			}
			cost, err := pi.L.Parse(args[len(args)-1])
			if err != nil {
				return fmt.Errorf("core: fallback derived %s with bad cost: %v", k, err)
			}
			if err := rel.InsertStrict(args[:len(args)-1], cost); err != nil {
				return err
			}
		}
	}
	return nil
}
