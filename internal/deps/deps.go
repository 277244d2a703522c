// Package deps performs predicate dependency analysis: it builds the
// dependency graph of a program, decomposes it into strongly connected
// components (the "program components" of Definition 2.2), orders them
// bottom-up, and classifies edges as passing through negation or through
// aggregation — the information needed for the stratification ladder of
// §5.1 and the iterated minimal models of §6.3.
package deps

import (
	"slices"
	"sort"

	"repro/internal/ast"
)

// Edge flavor flags.
type EdgeKind uint8

// An edge may arise from several subgoal positions at once.
const (
	Positive   EdgeKind = 1 << iota
	Negative            // head depends on the predicate through "not"
	Aggregated          // head depends on the predicate inside an aggregate
)

// Graph is the predicate dependency graph of a program.
type Graph struct {
	// Edges[p][q] is set when a rule with head p uses q in its body.
	Edges map[ast.PredKey]map[ast.PredKey]EdgeKind
	// Heads is the set of predicates defined by rules.
	Heads map[ast.PredKey]bool
	preds []ast.PredKey
}

// Build constructs the dependency graph of p. A fact has no body to draw
// edges from, so the program's fact rows contribute one node per
// predicate buffer, whatever the number of facts.
func Build(p *ast.Program) *Graph {
	g := &Graph{
		Edges: map[ast.PredKey]map[ast.PredKey]EdgeKind{},
		Heads: map[ast.PredKey]bool{},
	}
	seen := map[ast.PredKey]bool{}
	touch := func(k ast.PredKey) {
		if !seen[k] {
			seen[k] = true
			g.preds = append(g.preds, k)
		}
	}
	addEdge := func(from, to ast.PredKey, kind EdgeKind) {
		touch(from)
		touch(to)
		m := g.Edges[from]
		if m == nil {
			m = map[ast.PredKey]EdgeKind{}
			g.Edges[from] = m
		}
		m[to] |= kind
	}
	for _, f := range p.Facts {
		g.Heads[f.Key] = true
		touch(f.Key)
	}
	for _, r := range p.Rules {
		h := r.Head.Key()
		g.Heads[h] = true
		touch(h)
		for _, s := range r.Body {
			switch s := s.(type) {
			case *ast.Lit:
				kind := Positive
				if s.Neg {
					kind = Negative
				}
				addEdge(h, s.Atom.Key(), kind)
			case *ast.Agg:
				for i := range s.Conj {
					addEdge(h, s.Conj[i].Key(), Aggregated)
				}
			}
		}
	}
	sort.Slice(g.preds, func(i, j int) bool { return g.preds[i] < g.preds[j] })
	return g
}

// Component is one strongly connected component together with the
// classification of its internal recursion.
type Component struct {
	// Preds are the mutually recursive predicates, sorted.
	Preds []ast.PredKey
	// RecursesThroughNegation is set when some internal edge is negative.
	RecursesThroughNegation bool
	// RecursesThroughAggregation is set when some internal edge passes
	// through an aggregate subgoal — the defining feature of the programs
	// this paper gives semantics to.
	RecursesThroughAggregation bool
	// Recursive is set when the component has any internal edge at all
	// (a single predicate with a self-loop counts).
	Recursive bool
}

// Has reports whether the component contains k.
func (c *Component) Has(k ast.PredKey) bool {
	for _, p := range c.Preds {
		if p == k {
			return true
		}
	}
	return false
}

// SCCs returns the strongly connected components of the graph in
// *bottom-up* topological order: every edge leaving a component points to
// an earlier component in the returned slice, so evaluating components in
// order sees all lower predicates already computed (§6.3).
func (g *Graph) SCCs() []*Component {
	// Components over predicate numbers (places in g.preds).
	n := len(g.preds)
	num := make(map[ast.PredKey]int, n)
	for i, k := range g.preds {
		num[k] = i
	}
	// outs[v] lists v's successors in key order: g.preds is sorted, so
	// sorting numbers sorts keys.
	outs := make([][]int, n)
	for v, k := range g.preds {
		m := g.Edges[k]
		if len(m) == 0 {
			continue
		}
		o := make([]int, 0, len(m))
		for q := range m {
			o = append(o, num[q])
		}
		slices.Sort(o)
		outs[v] = o
	}
	comp, nc := Tarjan(outs)
	// Tarjan numbers components in reverse topological order of the
	// condensation; since edges run head -> body (higher -> lower), that
	// order is exactly bottom-up. Members are listed in predicate order.
	members := make([][]int, nc)
	for v, ci := range comp {
		members[ci] = append(members[ci], v)
	}
	out := make([]*Component, 0, nc)
	for ci, vs := range members {
		c := &Component{Preds: make([]ast.PredKey, len(vs))}
		for i, v := range vs {
			c.Preds[i] = g.preds[v]
		}
		for _, p := range vs {
			for _, q := range outs[p] {
				if comp[q] != ci {
					continue
				}
				kind := g.Edges[g.preds[p]][g.preds[q]]
				c.Recursive = true
				if kind&Negative != 0 {
					c.RecursesThroughNegation = true
				}
				if kind&Aggregated != 0 {
					c.RecursesThroughAggregation = true
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// Tarjan returns the strongly connected components of the graph on
// nodes 0..len(outs)-1 with an edge from v to each node of outs[v]:
// comp[v] is v's component, numbered 0..n-1 in the order Tarjan's
// algorithm completes them, which is reverse topological order of the
// condensation — every edge leaving a component points to a lower
// number. The search is iterative, so deep graphs do not grow the stack.
func Tarjan(outs [][]int) (comp []int, n int) {
	const unvisited = -1
	index, low := make([]int, len(outs)), make([]int, len(outs))
	comp = make([]int, len(outs))
	for i := range index {
		index[i], comp[i] = unvisited, unvisited
	}
	// A visited node without a component is on the stack.
	var stack []int
	type frame struct{ v, i int }
	var frames []frame
	counter := 0
	push := func(v int) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		frames = append(frames, frame{v: v})
	}
	for root := range outs {
		if index[root] != unvisited {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(outs[f.v]) {
				w := outs[f.v][f.i]
				f.i++
				if index[w] == unvisited {
					push(w)
				} else if comp[w] == unvisited && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				low[parent.v] = min(low[parent.v], low[v])
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = n
					if w == v {
						break
					}
				}
				n++
			}
		}
	}
	return comp, n
}

// ComponentOf returns a map from predicate to the index of its component
// in the order returned by SCCs.
func ComponentIndex(comps []*Component) map[ast.PredKey]int {
	out := map[ast.PredKey]int{}
	for i, c := range comps {
		for _, p := range c.Preds {
			out[p] = i
		}
	}
	return out
}

// RulesByComponent groups rules by the component their head predicate
// belongs to — the "program component" the paper evaluates at a time:
// out[i] holds the rules of comps[i], in the order given, found in one
// pass over the rules.
func RulesByComponent(rules []*ast.Rule, comps []*Component) [][]*ast.Rule {
	idx := ComponentIndex(comps)
	out := make([][]*ast.Rule, len(comps))
	for _, r := range rules {
		if ci, ok := idx[r.Head.Key()]; ok {
			out[ci] = append(out[ci], r)
		}
	}
	return out
}

// SplitRules classifies the predicates referenced by the component's
// rules into CDB (defined in the component) and LDB (referenced but
// defined below), per Definition 2.2's terminology.
func SplitRules(c *Component, rules []*ast.Rule) (cdb, ldb map[ast.PredKey]bool) {
	cdb = map[ast.PredKey]bool{}
	ldb = map[ast.PredKey]bool{}
	for _, k := range c.Preds {
		cdb[k] = true
	}
	for _, r := range rules {
		for _, s := range r.Body {
			switch s := s.(type) {
			case *ast.Lit:
				if !cdb[s.Atom.Key()] {
					ldb[s.Atom.Key()] = true
				}
			case *ast.Agg:
				for i := range s.Conj {
					if !cdb[s.Conj[i].Key()] {
						ldb[s.Conj[i].Key()] = true
					}
				}
			}
		}
	}
	return cdb, ldb
}

// AggregateStratified reports whether the program never recurses through
// aggregation (the "aggregate stratified" class of Mumick et al., §5.1).
func AggregateStratified(comps []*Component) bool {
	for _, c := range comps {
		if c.RecursesThroughAggregation {
			return false
		}
	}
	return true
}

// NegationStratified reports whether the program never recurses through
// negation.
func NegationStratified(comps []*Component) bool {
	for _, c := range comps {
		if c.RecursesThroughNegation {
			return false
		}
	}
	return true
}
