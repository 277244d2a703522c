package deps

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const shortestPath = `
path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).
`

func TestShortestPathComponents(t *testing.T) {
	g := Build(mustParse(t, shortestPath))
	comps := g.SCCs()
	// arc is its own (lowest) component; {path, s} are mutually recursive.
	var rec *Component
	for _, c := range comps {
		if c.Recursive {
			if rec != nil {
				t.Fatal("expected exactly one recursive component")
			}
			rec = c
		}
	}
	if rec == nil || len(rec.Preds) != 2 {
		t.Fatalf("recursive component = %+v", rec)
	}
	if !rec.Has("path/4") || !rec.Has("s/3") {
		t.Fatalf("component preds = %v", rec.Preds)
	}
	if !rec.RecursesThroughAggregation {
		t.Fatal("path/s recursion passes through min")
	}
	if rec.RecursesThroughNegation {
		t.Fatal("no negation here")
	}
	if AggregateStratified(comps) {
		t.Fatal("shortest path is not aggregate stratified (§5.1)")
	}
	if !NegationStratified(comps) {
		t.Fatal("shortest path has no negation")
	}
}

func TestBottomUpOrder(t *testing.T) {
	g := Build(mustParse(t, shortestPath))
	comps := g.SCCs()
	idx := ComponentIndex(comps)
	// arc must come before the {path, s} component.
	if idx["arc/3"] >= idx["path/4"] {
		t.Fatalf("arc (%d) must precede path (%d)", idx["arc/3"], idx["path/4"])
	}
}

func TestStratifiedProgram(t *testing.T) {
	src := `
avg1(S, G) :- G ?= avg A : record(S, C, A).
best(S)    :- avg1(S, G), G > 90.
`
	g := Build(mustParse(t, src))
	comps := g.SCCs()
	if !AggregateStratified(comps) {
		t.Fatal("non-recursive aggregation is aggregate stratified")
	}
	for _, c := range comps {
		if c.Recursive {
			t.Fatalf("no component should be recursive: %+v", c)
		}
	}
}

func TestNegationEdges(t *testing.T) {
	src := `win(X) :- move(X, Y), not win(Y).`
	g := Build(mustParse(t, src))
	comps := g.SCCs()
	var win *Component
	for _, c := range comps {
		if c.Has("win/1") {
			win = c
		}
	}
	if win == nil || !win.RecursesThroughNegation || !win.Recursive {
		t.Fatalf("win component = %+v", win)
	}
	if NegationStratified(comps) {
		t.Fatal("win recurses through negation")
	}
}

func TestSelfLoopIsRecursive(t *testing.T) {
	g := Build(mustParse(t, `p(X) :- p(X).`))
	comps := g.SCCs()
	if len(comps) != 1 || !comps[0].Recursive {
		t.Fatalf("comps = %+v", comps)
	}
	g2 := Build(mustParse(t, `p(X) :- q(X).`))
	for _, c := range g2.SCCs() {
		if c.Recursive {
			t.Fatal("no recursion in p :- q")
		}
	}
}

func TestSplitCDBLDB(t *testing.T) {
	p := mustParse(t, shortestPath)
	comps := Build(p).SCCs()
	var rec *Component
	var rules []*ast.Rule
	for ci, crules := range RulesByComponent(p.Rules, comps) {
		if comps[ci].Recursive {
			rec, rules = comps[ci], crules
		}
	}
	cdb, ldb := SplitRules(rec, rules)
	if !cdb["path/4"] || !cdb["s/3"] || len(cdb) != 2 {
		t.Fatalf("cdb = %v", cdb)
	}
	if !ldb["arc/3"] || len(ldb) != 1 {
		t.Fatalf("ldb = %v", ldb)
	}
	if len(rules) != 3 {
		t.Fatalf("component rules = %d", len(rules))
	}
}

func TestLongChainTopoOrder(t *testing.T) {
	// p0 :- p1. p1 :- p2. ... ensures the iterative Tarjan handles depth
	// and that order is bottom-up.
	src := ""
	for i := 0; i < 200; i++ {
		src += "p" + itoa(i) + "(X) :- p" + itoa(i+1) + "(X).\n"
	}
	g := Build(mustParse(t, src))
	comps := g.SCCs()
	if len(comps) != 201 {
		t.Fatalf("components = %d, want 201", len(comps))
	}
	idx := ComponentIndex(comps)
	for i := 0; i < 200; i++ {
		lo := ast.MakePredKey("p"+itoa(i+1), 1)
		hi := ast.MakePredKey("p"+itoa(i), 1)
		if idx[lo] >= idx[hi] {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestMutualRecursionThroughCount(t *testing.T) {
	// The §3 example with two minimal models: p and q are mutually
	// recursive through count.
	src := `
p(b).
q(b).
p(a) :- N ?= count : q(X), N = 1.
q(a) :- N ?= count : p(X), N = 1.
`
	g := Build(mustParse(t, src))
	comps := g.SCCs()
	var rec *Component
	for _, c := range comps {
		if c.Recursive {
			rec = c
		}
	}
	if rec == nil || len(rec.Preds) != 2 || !rec.RecursesThroughAggregation {
		t.Fatalf("component = %+v", rec)
	}
}

// TestTarjan: nodes share a component exactly when each reaches the
// other, and every edge between components points to a lower number
// (reverse topological order), on random graphs checked against
// reachability.
func TestTarjan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		outs := make([][]int, n)
		for e := r.Intn(3 * n); e > 0; e-- {
			v := r.Intn(n)
			outs[v] = append(outs[v], r.Intn(n))
		}
		comp, nc := Tarjan(outs)
		// reach[v][w]: w is reachable from v (v reaches itself).
		reach := make([][]bool, n)
		for v := range reach {
			reach[v] = make([]bool, n)
			stack := []int{v}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[v][u] {
					continue
				}
				reach[v][u] = true
				stack = append(stack, outs[u]...)
			}
		}
		for v := 0; v < n; v++ {
			if comp[v] < 0 || comp[v] >= nc {
				t.Fatalf("%v: node %d in component %d of %d", outs, v, comp[v], nc)
			}
			for w := 0; w < n; w++ {
				if same := reach[v][w] && reach[w][v]; same != (comp[v] == comp[w]) {
					t.Fatalf("%v: nodes %d, %d mutually reachable %v, components %d, %d", outs, v, w, same, comp[v], comp[w])
				}
			}
			for _, w := range outs[v] {
				if comp[w] > comp[v] {
					t.Fatalf("%v: edge %d→%d climbs from component %d to %d", outs, v, w, comp[v], comp[w])
				}
			}
		}
	}
}
