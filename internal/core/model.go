package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// TP computes a single application of the immediate consequence operator
// T_P (Definition 3.7) for component ci, reading J ∪ I from db, and
// returns a fresh database holding only the derived head atoms. Default
// values (J_∅) are virtual and thus implicitly joined. The program's own
// facts are the empty-body rules of T_P: those of the component's
// predicates are derived by every application, whatever db holds. It
// runs one naive round of the component's canonical pipelines, as the
// Naive strategy does, and never writes db.
func (en *Engine) TP(db *relation.DB, ci int) (*relation.DB, error) {
	out := relation.NewDB(en.Schemas)
	for _, k := range en.comps[ci].Preds {
		if en.base.Has(k) {
			out.Rel(k).Join(en.base.Rel(k))
		}
	}
	view := db.Share()
	for _, p := range en.plans[ci] {
		err := run(p.pipe.stream, view, nil, func(m *exec.Machine) error {
			args, cost, err := headTuple(p, m.Vals)
			if err != nil {
				return err
			}
			return out.Rel(p.head.Pred).InsertStrict(args, cost)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ComponentCount returns the number of program components (bottom-up
// order), for use with TP.
func (en *Engine) ComponentCount() int { return len(en.comps) }

// ComponentPreds returns the predicates of component ci.
func (en *Engine) ComponentPreds(ci int) []string {
	var out []string
	for _, k := range en.comps[ci].Preds {
		out = append(out, string(k))
	}
	return out
}

// IsModel reports whether db satisfies every ground instance of every
// rule (Definition 3.5): whenever a body is satisfied, the corresponding
// head atom — with exactly the derived cost — is present.
func (en *Engine) IsModel(db *relation.DB) (bool, error) {
	return en.checkRules(db, func(l lattice.Lattice, derived, present lattice.Elem) bool {
		return lattice.Eq(l, derived, present)
	})
}

// IsPreModel reports whether db is a pre-model (Definition 3.5): whenever
// a body is satisfied, the head atom is present with a cost ⊒ the derived
// one.
func (en *Engine) IsPreModel(db *relation.DB) (bool, error) {
	return en.checkRules(db, func(l lattice.Lattice, derived, present lattice.Elem) bool {
		return l.Leq(derived, present)
	})
}

func (en *Engine) checkRules(db *relation.DB, costOK func(lattice.Lattice, lattice.Elem, lattice.Elem) bool) (bool, error) {
	violated := fmt.Errorf("violated")
	view := db.Share()
	// The program's facts are rules with an always-satisfied body.
	for _, k := range en.base.Preds() {
		rel, ok := view.Rel(k), true
		en.base.Rel(k).Each(func(fact relation.Row) bool {
			row, found := rel.GetOrDefault(fact.Args)
			ok = found && (!fact.HasCost || costOK(rel.Info.L, fact.Cost, row.Cost))
			return ok
		})
		if !ok {
			return false, nil
		}
	}
	for _, ps := range en.plans {
		for _, p := range ps {
			err := run(p.pipe.stream, view, nil, func(m *exec.Machine) error {
				args, cost, err := headTuple(p, m.Vals)
				if err != nil {
					return err
				}
				row, ok := view.Rel(p.head.Pred).GetOrDefault(args)
				if !ok || p.head.Info.HasCost && !costOK(p.head.Info.L, cost, row.Cost) {
					return violated
				}
				return nil
			})
			if err == violated {
				return false, nil
			}
			if err != nil {
				return false, err
			}
		}
	}
	return true, nil
}
