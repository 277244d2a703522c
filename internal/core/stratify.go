package core

import (
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/val"
)

// GroupStratified performs the *instance-level* stratification check of
// §5.1: a program is modularly stratified with respect to aggregation
// ("group stratified", Mumick et al.) on a given database when the
// ground dependency graph of the relevant rule instances has no cycle
// passing through an aggregate subgoal. Shortest path is group
// stratified exactly on acyclic graphs — the boundary at which the
// well-founded comparator stays two-valued and beyond which only the
// monotonic semantics answers.
//
// The check solves the program, then re-enumerates every rule instance
// against the final model, recording atom-level dependency edges (head →
// body atom; edges through aggregate subgoals are marked). It reports
// whether any strongly connected component of ground atoms contains a
// marked edge.
//
// Caveat: only the instances *relevant in the final model* are examined
// (bodies satisfiable there). Cyclic dependencies confined to atoms the
// least model never derives are invisible to this check, so it may
// report a database as stratified that the full ground-instantiation
// definition would not; it never errs in the other direction.
func (en *Engine) GroupStratified(edb *relation.DB) (bool, error) {
	db, _, err := en.Solve(edb)
	if err != nil {
		return false, err
	}

	// The atom graph: outs[v] lists the atoms atom v's instances read,
	// and agg the edges that pass through an aggregate subgoal. An atom
	// is keyed by its predicate and the words of its non-cost arguments
	// (val.AppendWordKey), built from the registers in one reused buffer.
	ids := map[string]int{}
	var outs [][]int
	var agg [][2]int
	var key []byte
	node := func(sp *exec.Atom, vals []val.T) int {
		key = append(key[:0], sp.Pred...)
		key = append(key, 0)
		for j, v := range sp.ArgVar {
			if v >= 0 {
				key = val.AppendWordKey(key, vals[v:v+1])
			} else {
				key = val.AppendWordKey(key, sp.ArgVal[j:j+1])
			}
		}
		if i, ok := ids[string(key)]; ok {
			return i
		}
		ids[string(key)] = len(outs)
		outs = append(outs, nil)
		return len(outs) - 1
	}
	view := db.Share()
	for _, ps := range en.plans {
		for _, p := range ps {
			err := run(p.pipe.stream, view, nil, func(m *exec.Machine) error {
				head := node(&p.head, m.Vals)
				for si := range p.steps {
					switch st := &p.steps[si]; st.Kind {
					case exec.ScanKind, exec.NegKind:
						to := node(&st.Atom, m.Vals)
						outs[head] = append(outs[head], to)
					case exec.AggKind:
						err := p.contributions(si, view, m.Vals, func(vals []val.T) {
							for ci := range st.Agg.Conj {
								to := node(&st.Agg.Conj[ci], vals)
								outs[head] = append(outs[head], to)
								agg = append(agg, [2]int{head, to})
							}
						})
						if err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return false, err
			}
		}
	}
	// A marked edge inside one strongly connected component of the atom
	// graph is recursion through aggregation at the instance level.
	comp, _ := deps.Tarjan(outs)
	for _, e := range agg {
		if comp[e[0]] == comp[e[1]] {
			return false, nil
		}
	}
	return true, nil
}
