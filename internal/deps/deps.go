// Package deps performs predicate dependency analysis: it builds the
// dependency graph of a program, decomposes it into strongly connected
// components (the "program components" of Definition 2.2), orders them
// bottom-up, and classifies edges as passing through negation or through
// aggregation — the information needed for the stratification ladder of
// §5.1 and the iterated minimal models of §6.3.
package deps

import (
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
	// Tarjan's algorithm, iterative to survive deep programs.
	index := map[ast.PredKey]int{}
	low := map[ast.PredKey]int{}
	onStack := map[ast.PredKey]bool{}
	var stack []ast.PredKey
	var comps [][]ast.PredKey
	counter := 0

	type frame struct {
		v    ast.PredKey
		outs []ast.PredKey
		i    int
	}
	outsOf := func(v ast.PredKey) []ast.PredKey {
		m := g.Edges[v]
		out := make([]ast.PredKey, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	var visit func(root ast.PredKey)
	visit = func(root ast.PredKey) {
		frames := []frame{{v: root, outs: outsOf(root)}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.outs) {
				w := f.outs[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, outs: outsOf(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []ast.PredKey
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				comps = append(comps, comp)
			}
		}
	}
	for _, v := range g.preds {
		if _, seen := index[v]; !seen {
			visit(v)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation; since edges run head -> body (higher -> lower), the
	// emission order is exactly bottom-up.
	out := make([]*Component, 0, len(comps))
	for _, preds := range comps {
		c := &Component{Preds: preds}
		in := map[ast.PredKey]bool{}
		for _, p := range preds {
			in[p] = true
		}
		for _, p := range preds {
			for q, kind := range g.Edges[p] {
				if !in[q] {
					continue
				}
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
