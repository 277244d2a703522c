package core

import (
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/val"
	"repro/internal/wfs"
)

// solveWFSComponent evaluates a non-admissible component under the
// Kemp–Stuckey well-founded semantics, implementing the lowest rung of
// §6.3's iterated construction: "at the lowest level in the component
// hierarchy, we assume that the program is either monotonic, or has a
// two-valued well-founded model". The component's LDB (everything
// computed below it) is shipped to the WFS engine as facts; the
// well-founded model must be two-valued on the component's predicates,
// and its true atoms become part of the base interpretation I for the
// components above.
func (en *Engine) solveWFSComponent(g *guard, db *relation.DB, ci int, stats *Stats) error {
	c := en.comps[ci]
	sub := &ast.Program{Rules: append([]*ast.Rule{}, en.compRules[ci]...)}

	for _, k := range en.compLDB[ci] {
		pi := en.Schemas.Info(k)
		if pi != nil && pi.HasDefault {
			return fmt.Errorf("core: well-founded fallback cannot evaluate component %v: it reads the default-value predicate %s (the set-based comparator has no virtual rows)", c.Preds, k)
		}
		if !db.Has(k) {
			continue
		}
		db.Rel(k).Each(func(row relation.Row) bool {
			args := make([]ast.Term, 0, len(row.Args)+1)
			for _, a := range row.Args {
				args = append(args, ast.Const{V: a})
			}
			if row.HasCost {
				args = append(args, ast.Const{V: row.Cost})
			}
			sub.Rules = append(sub.Rules, &ast.Rule{Head: ast.Atom{Pred: k.Name(), Args: args}})
			return true
		})
	}

	res, err := wfs.SolveContext(g.ctx, sub, wfs.Options{})
	if err != nil {
		// Limit breaches keep their structured class; everything else
		// (e.g. a genuinely three-valued model) stays a plain error.
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
		var undef []val.T
		res.Possible.Each(k, func(args []val.T) bool {
			if !res.True.Has(k, args) {
				undef = args
				return false
			}
			return true
		})
		if undef != nil {
			return fmt.Errorf("core: component %v has no two-valued well-founded model (%s%v is undefined); the iterated semantics of §6.3 is not defined for this input", c.Preds, k.Name(), undef)
		}
	}

	// Inject the component's true atoms into the interpretation.
	for _, k := range c.Preds {
		pi := en.Schemas.Info(k)
		rel := db.Rel(k)
		var ierr error
		res.True.Each(k, func(args []val.T) bool {
			if pi != nil && pi.HasCost {
				if len(args) == 0 {
					ierr = fmt.Errorf("core: fallback derived %s with no cost argument", k)
					return false
				}
				cost, err := pi.L.Parse(args[len(args)-1])
				if err != nil {
					ierr = fmt.Errorf("core: fallback derived %s with bad cost: %v", k, err)
					return false
				}
				if err := rel.InsertStrict(args[:len(args)-1], cost); err != nil {
					ierr = err
					return false
				}
				return true
			}
			rel.InsertJoin(args, val.T{})
			return true
		})
		if ierr != nil {
			return ierr
		}
	}
	return nil
}
