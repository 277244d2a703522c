package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// aggregate evaluates an aggregate subgoal (Definition 2.4) under the
// current environment and invokes cont for each satisfying extension.
//
// Two execution modes:
//
//   - point mode: every grouping variable is already bound; the multiset
//     of the single group is computed (possibly empty — the total "="
//     form is defined on empty groups, the restricted "?=" form fails).
//   - grouped mode (restricted form only): unbound grouping variables are
//     enumerated by grouping the conjunction's matches, yielding one
//     extension per nonempty group — this is how
//     "s(X,Y,C) :- C ?= min D : path(X,Z,Y,D)" executes.
func (ev *evaluator) aggregate(s *exec.AggStep, stepIdx int, e *env, cont func() error) error {
	allBound := true
	for _, v := range s.GroupVars {
		if !e.bound[v] {
			allBound = false
			break
		}
	}
	if !allBound && !s.G.Restricted {
		return fmt.Errorf("core: total aggregate %s with unbound grouping variables", s.G)
	}
	// The conjunction order the compiler fixed for this binding pattern.
	order, err := s.OrderFull, s.OrderFullErr
	if allBound {
		order, err = s.OrderPoint, s.OrderPointErr
	}
	if err != nil {
		return err
	}

	type group struct {
		keyVals  []val.T
		elems    []lattice.Elem
		supports []Support
	}
	// Groups in first-occurrence order, as the pipelines emit them.
	var keys relation.GroupSet
	keys.Reset(len(s.GroupVars))
	var groups []*group

	element := func() lattice.Elem {
		if s.MsVar >= 0 {
			return e.vals[s.MsVar]
		}
		// Implicit boolean cost: each match contributes one "true".
		return val.Boolean(true)
	}

	// In point mode every match lands in the same group, so the per-match
	// key computation is skipped entirely.
	var pointElems []lattice.Elem
	var pointSupports []Support
	collectSupports := func(dst []Support) []Support {
		for ci := range s.Conj {
			dst = append(dst, supportOfAtom(&s.Conj[ci], e, false))
		}
		return dst
	}
	keyScratch := make([]val.T, len(s.GroupVars))
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i == len(order) {
			if allBound {
				pointElems = append(pointElems, element())
				if ev.supports {
					pointSupports = collectSupports(pointSupports)
				}
				return nil
			}
			for j, v := range s.GroupVars {
				keyScratch[j] = e.vals[v]
			}
			gi, added := keys.Add(keyScratch)
			if added {
				groups = append(groups, &group{keyVals: keys.At(gi)})
			}
			g := groups[gi]
			g.elems = append(g.elems, element())
			if ev.supports {
				g.supports = collectSupports(g.supports)
			}
			return nil
		}
		sp := &s.Conj[order[i]]
		buf := ev.buf(sp).saved
		return ev.scan(sp, e, func(row relationRow) error {
			saved, ok := bindAtom(sp, buf, row, e)
			if !ok {
				return nil
			}
			err := enumerate(i + 1)
			unbind(e, saved)
			return err
		})
	}
	if err := enumerate(0); err != nil {
		return err
	}

	emitGroup := func(g *group) error {
		if s.G.Restricted && len(g.elems) == 0 {
			return nil
		}
		res, ok := s.F.Apply(g.elems)
		if !ok {
			// Undefined aggregate (e.g. avg of the empty multiset in the
			// total form): the ground instance is simply unsatisfied.
			return nil
		}
		var saved []int
		// Bind any unbound grouping variables (grouped mode).
		for j, v := range s.GroupVars {
			if !e.bound[v] {
				e.vals[v] = g.keyVals[j]
				e.bound[v] = true
				saved = append(saved, v)
			}
		}
		if e.bound[s.Result] {
			if !lattice.Eq(s.F.Range(), e.vals[s.Result], res) {
				unbind(e, saved)
				return nil
			}
		} else {
			e.vals[s.Result] = res
			e.bound[s.Result] = true
			saved = append(saved, s.Result)
		}
		if ev.supports {
			if e.aggSupports == nil {
				e.aggSupports = map[int][]Support{}
			}
			e.aggSupports[stepIdx] = g.supports
		}
		err := cont()
		if ev.supports {
			delete(e.aggSupports, stepIdx)
		}
		unbind(e, saved)
		return err
	}

	if allBound {
		return emitGroup(&group{elems: pointElems, supports: pointSupports})
	}
	for _, g := range groups {
		if err := emitGroup(g); err != nil {
			return err
		}
	}
	return nil
}
