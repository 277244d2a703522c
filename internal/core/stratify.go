package core

import (
	"repro/internal/exec"
	"repro/internal/relation"
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

	type edge struct {
		to  int
		agg bool
	}
	ids := map[string]int{}
	adj := [][]edge{}
	idOf := func(k string) int {
		if i, ok := ids[k]; ok {
			return i
		}
		i := len(adj)
		ids[k] = i
		adj = append(adj, nil)
		return i
	}

	ev := &evaluator{db: db, supports: true}
	for _, ps := range en.plans {
		for _, p := range ps {
			err := ev.run(p, func(e *env) error {
				args, _, err := headTuple(p, e.vals)
				if err != nil {
					return err
				}
				head := idOf(atomKey(Support{Pred: p.head.Pred.Name(), Args: args}))
				for si := range p.steps {
					switch st := &p.steps[si]; st.Kind {
					case exec.ScanKind, exec.NegKind:
						adj[head] = append(adj[head], edge{to: idOf(atomKey(supportOfAtom(&st.Atom, e, st.Kind == exec.NegKind)))})
					case exec.AggKind:
						for _, sup := range e.aggSupports[si] {
							adj[head] = append(adj[head], edge{to: idOf(atomKey(sup)), agg: true})
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

	// Tarjan SCC over the atom graph; a marked edge inside one component
	// is recursion through aggregation at the instance level.
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	counter, compCount := 0, 0
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei].to
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					if w == v {
						break
					}
				}
				compCount++
			}
		}
	}
	for v := range adj {
		for _, e := range adj[v] {
			if e.agg && comp[v] == comp[e.to] {
				return false, nil
			}
		}
	}
	return true, nil
}
