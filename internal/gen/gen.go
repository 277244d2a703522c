// Package gen builds deterministic synthetic workloads for the paper's
// example problems, in both native form (for the baseline algorithms) and
// rule-language text (for the deductive engines). All generators are
// seeded and reproducible.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/baseline"
)

// GraphKind selects a topology.
type GraphKind int

// The graph topologies used by the experiment sweeps.
const (
	// RandomGraph: Erdős–Rényi-style digraph with the given edge count.
	RandomGraph GraphKind = iota
	// LayeredDAG: vertices in layers, edges only to the next layer —
	// modularly stratified for the shortest-path program.
	LayeredDAG
	// CycleGraph: one big directed cycle plus random chords — the
	// stress case for the comparator semantics.
	CycleGraph
	// GridGraph: a √n × √n grid with east/south edges.
	GridGraph
)

// Graph generates a weighted digraph with n vertices and roughly m edges
// (exact shape depends on kind); weights are integers in [1, maxW].
func Graph(kind GraphKind, n, m, maxW int, seed int64) *baseline.Graph {
	r := rand.New(rand.NewSource(seed))
	g := baseline.NewGraph(n)
	seen := map[[2]int]bool{}
	add := func(u, v, w int) {
		if u == v && kind == LayeredDAG {
			return
		}
		k := [2]int{u, v}
		if seen[k] {
			return
		}
		seen[k] = true
		g.AddEdge(u, v, float64(w))
	}
	w := func() int { return 1 + r.Intn(maxW) }
	switch kind {
	case RandomGraph:
		for i := 0; i < m; i++ {
			add(r.Intn(n), r.Intn(n), w())
		}
	case LayeredDAG:
		layers := 4
		if n < 8 {
			layers = 2
		}
		per := (n + layers - 1) / layers
		layerOf := func(v int) int { return v / per }
		for i := 0; i < m; i++ {
			u := r.Intn(n)
			lu := layerOf(u)
			if lu >= layers-1 {
				continue
			}
			lo := (lu + 1) * per
			hi := lo + per
			if hi > n {
				hi = n
			}
			if lo >= n {
				continue
			}
			add(u, lo+r.Intn(hi-lo), w())
		}
	case CycleGraph:
		for v := 0; v < n; v++ {
			add(v, (v+1)%n, w())
		}
		for i := 0; i < m-n; i++ {
			add(r.Intn(n), r.Intn(n), w())
		}
	case GridGraph:
		side := 1
		for side*side < n {
			side++
		}
		id := func(x, y int) int { return x*side + y }
		for x := 0; x < side; x++ {
			for y := 0; y < side; y++ {
				if id(x, y) >= n {
					continue
				}
				if x+1 < side && id(x+1, y) < n {
					add(id(x, y), id(x+1, y), w())
				}
				if y+1 < side && id(x, y+1) < n {
					add(id(x, y), id(x, y+1), w())
				}
			}
		}
	}
	return g
}

// GraphFacts renders a graph as arc/3 facts.
func GraphFacts(g *baseline.Graph) string {
	var b strings.Builder
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "arc(v%d, v%d, %g).\n", e.From, e.To, e.W)
	}
	return b.String()
}

// Ownership generates a share network: each company's shares are split
// among up to fanIn random owners; with cycles allowed, any company may
// own any other.
func Ownership(n, fanIn int, cyclic bool, seed int64) *baseline.Ownership {
	r := rand.New(rand.NewSource(seed))
	o := baseline.NewOwnership(n)
	for y := 0; y < n; y++ {
		owners := 1 + r.Intn(fanIn)
		remaining := 1.0
		for i := 0; i < owners; i++ {
			var x int
			if cyclic || y == 0 {
				x = r.Intn(n)
			} else {
				x = r.Intn(y + 1)
			}
			if x == y {
				continue
			}
			// float64(...) keeps the multiply-add unfused on every
			// architecture (scripts/fma_check.sh).
			frac := remaining * (0.3 + float64(0.5*r.Float64()))
			frac = float64(int(frac*100)) / 100 // two decimals keep facts tidy
			if frac <= 0 {
				continue
			}
			o.Share[x][y] += frac
			remaining -= frac
			if remaining <= 0.05 {
				break
			}
		}
	}
	return o
}

// OwnershipFacts renders a network as s/3 facts.
func OwnershipFacts(o *baseline.Ownership) string {
	var b strings.Builder
	for x := 0; x < o.N; x++ {
		for y := 0; y < o.N; y++ {
			if o.Share[x][y] > 0 {
				fmt.Fprintf(&b, "s(c%d, c%d, %g).\n", x, y, o.Share[x][y])
			}
		}
	}
	return b.String()
}

// Circuit generates a boolean circuit with n nodes: the first nInputs are
// inputs with random values; gates draw up to fanIn inputs from earlier
// nodes, plus (when cyclic) occasional feedback edges from later nodes.
func Circuit(n, nInputs, fanIn int, cyclic bool, seed int64) *baseline.Circuit {
	r := rand.New(rand.NewSource(seed))
	c := baseline.NewCircuit(n)
	for i := 0; i < n; i++ {
		if i < nInputs {
			c.Kind[i] = baseline.InputNode
			c.InputVal[i] = r.Intn(2) == 1
			continue
		}
		if r.Intn(2) == 0 {
			c.Kind[i] = baseline.AndGate
		} else {
			c.Kind[i] = baseline.OrGate
		}
		ins := 1 + r.Intn(fanIn)
		seen := map[int]bool{}
		for j := 0; j < ins; j++ {
			var w int
			if cyclic && r.Intn(4) == 0 {
				w = nInputs + r.Intn(n-nInputs) // feedback allowed
			} else {
				w = r.Intn(i)
			}
			if w == i || seen[w] {
				continue
			}
			seen[w] = true
			c.In[i] = append(c.In[i], w)
		}
		if len(c.In[i]) == 0 {
			c.In[i] = append(c.In[i], r.Intn(i))
		}
	}
	return c
}

// CircuitFacts renders a circuit as gate/connect/input facts.
func CircuitFacts(c *baseline.Circuit) string {
	var b strings.Builder
	for i := 0; i < c.N; i++ {
		switch c.Kind[i] {
		case baseline.InputNode:
			v := 0
			if c.InputVal[i] {
				v = 1
			}
			fmt.Fprintf(&b, "input(n%d, %d).\n", i, v)
		case baseline.AndGate:
			fmt.Fprintf(&b, "gate(n%d, and).\n", i)
		case baseline.OrGate:
			fmt.Fprintf(&b, "gate(n%d, or).\n", i)
		}
		for _, w := range c.In[i] {
			fmt.Fprintf(&b, "connect(n%d, n%d).\n", i, w)
		}
	}
	return b.String()
}

// Party generates an invitation instance: a random knows digraph with the
// given mean degree; requirements are drawn in [0, maxReq] with at least
// one zero-requirement seed guest.
func Party(n, degree, maxReq int, seed int64) *baseline.Party {
	r := rand.New(rand.NewSource(seed))
	p := baseline.NewParty(n)
	for x := 0; x < n; x++ {
		p.Requires[x] = r.Intn(maxReq + 1)
		seen := map[int]bool{}
		for j := 0; j < degree; j++ {
			y := r.Intn(n)
			if y == x || seen[y] {
				continue
			}
			seen[y] = true
			p.Knows[x] = append(p.Knows[x], y)
		}
	}
	p.Requires[0] = 0
	return p
}

// PartyFacts renders an instance as requires/knows facts.
func PartyFacts(p *baseline.Party) string {
	var b strings.Builder
	for x := 0; x < p.N; x++ {
		fmt.Fprintf(&b, "requires(g%d, %d).\n", x, p.Requires[x])
		for _, y := range p.Knows[x] {
			fmt.Fprintf(&b, "knows(g%d, g%d).\n", x, y)
		}
	}
	return b.String()
}
