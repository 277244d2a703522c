package gen

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

func solve(t *testing.T, src string, opts core.Options) *relation.DB {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := core.New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGraphGenerators(t *testing.T) {
	for _, kind := range []GraphKind{RandomGraph, LayeredDAG, CycleGraph, GridGraph} {
		g := Graph(kind, 30, 60, 9, 42)
		if g.N != 30 {
			t.Fatalf("kind %v: N = %d", kind, g.N)
		}
		if len(g.Edges) == 0 {
			t.Fatalf("kind %v: no edges", kind)
		}
		seen := map[[2]int]bool{}
		for _, e := range g.Edges {
			k := [2]int{e.From, e.To}
			if seen[k] {
				t.Fatalf("kind %v: duplicate edge %v (cost FD would break)", kind, k)
			}
			seen[k] = true
			if e.W < 1 || e.W > 9 {
				t.Fatalf("kind %v: weight %v out of range", kind, e.W)
			}
		}
		// Determinism.
		g2 := Graph(kind, 30, 60, 9, 42)
		if len(g2.Edges) != len(g.Edges) {
			t.Fatalf("kind %v: non-deterministic", kind)
		}
	}
	// Layered DAGs must be acyclic (edges go up in layer order).
	g := Graph(LayeredDAG, 40, 120, 5, 7)
	for _, e := range g.Edges {
		if e.To <= e.From {
			t.Fatalf("layered edge %v goes backwards", e)
		}
	}
}

// TestEngineMatchesDijkstra cross-validates the deductive engine against
// Dijkstra on every topology (experiment E3's ground-truth check).
func TestEngineMatchesDijkstra(t *testing.T) {
	for _, kind := range []GraphKind{RandomGraph, LayeredDAG, CycleGraph, GridGraph} {
		for seed := int64(1); seed <= 3; seed++ {
			g := Graph(kind, 24, 60, 9, seed)
			db := solve(t, programs.ShortestPath+GraphFacts(g), core.Options{})
			dist := baseline.AllPairs(g)
			for u := 0; u < g.N; u++ {
				for v := 0; v < g.N; v++ {
					want := dist[u][v]
					row, ok := db.Rel("s/3").Get([]val.T{
						val.Symbol(fmt.Sprintf("v%d", u)), val.Symbol(fmt.Sprintf("v%d", v)),
					})
					if math.IsInf(want, 1) {
						if ok {
							t.Fatalf("kind %v seed %d: spurious s(v%d,v%d,%v)", kind, seed, u, v, row.Cost)
						}
						continue
					}
					if !ok || row.Cost.Num() != want {
						t.Fatalf("kind %v seed %d: s(v%d,v%d) = %v (ok=%v), want %v",
							kind, seed, u, v, row.Cost, ok, want)
					}
				}
			}
		}
	}
}

// TestEngineMatchesCompanyControl cross-validates Example 2.7.
func TestEngineMatchesCompanyControl(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			o := Ownership(16, 3, cyclic, seed)
			db := solve(t, programs.CompanyControl+OwnershipFacts(o), core.Options{})
			controls, _ := baseline.CompanyControl(o)
			for x := 0; x < o.N; x++ {
				for y := 0; y < o.N; y++ {
					if x == y {
						continue
					}
					_, got := db.Rel("c/2").Get([]val.T{
						val.Symbol(fmt.Sprintf("c%d", x)), val.Symbol(fmt.Sprintf("c%d", y)),
					})
					if got != controls[x][y] {
						t.Fatalf("cyclic=%v seed %d: c(c%d,c%d) = %v, want %v",
							cyclic, seed, x, y, got, controls[x][y])
					}
				}
			}
		}
	}
}

// TestEngineMatchesCircuit cross-validates Example 4.4, cyclic circuits
// included.
func TestEngineMatchesCircuit(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			c := Circuit(40, 8, 3, cyclic, seed)
			db := solve(t, programs.Circuit+CircuitFacts(c), core.Options{})
			want := c.Eval()
			for i := 0; i < c.N; i++ {
				row, ok := db.Rel("t/2").GetOrDefault([]val.T{val.Symbol(fmt.Sprintf("n%d", i))})
				if !ok {
					t.Fatalf("cyclic=%v seed %d: t(n%d) unanswered", cyclic, seed, i)
				}
				if row.Cost.Bool() != want[i] {
					t.Fatalf("cyclic=%v seed %d: t(n%d) = %v, want %v",
						cyclic, seed, i, row.Cost.Bool(), want[i])
				}
			}
		}
	}
}

// TestEngineMatchesParty cross-validates Example 4.3 on cyclic knows
// graphs.
func TestEngineMatchesParty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := Party(30, 4, 3, seed)
		db := solve(t, programs.Party+PartyFacts(p), core.Options{})
		want := p.Attendance()
		for x := 0; x < p.N; x++ {
			_, got := db.Rel("coming/1").Get([]val.T{val.Symbol(fmt.Sprintf("g%d", x))})
			if got != want[x] {
				t.Fatalf("seed %d: coming(g%d) = %v, want %v", seed, x, got, want[x])
			}
		}
	}
}

func TestFactRendering(t *testing.T) {
	g := baseline.NewGraph(2)
	g.AddEdge(0, 1, 2.5)
	if got := GraphFacts(g); got != "arc(v0, v1, 2.5).\n" {
		t.Fatalf("GraphFacts = %q", got)
	}
	o := baseline.NewOwnership(2)
	o.Share[0][1] = 0.6
	if got := OwnershipFacts(o); got != "s(c0, c1, 0.6).\n" {
		t.Fatalf("OwnershipFacts = %q", got)
	}
	p := baseline.NewParty(2)
	p.Requires = []int{0, 1}
	p.Knows[1] = []int{0}
	facts := PartyFacts(p)
	if facts != "requires(g0, 0).\nrequires(g1, 1).\nknows(g1, g0).\n" {
		t.Fatalf("PartyFacts = %q", facts)
	}
}

func TestOwnershipSharesBounded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		o := Ownership(20, 4, true, seed)
		for y := 0; y < o.N; y++ {
			total := 0.0
			for x := 0; x < o.N; x++ {
				if o.Share[x][y] < 0 {
					t.Fatal("negative share")
				}
				total += o.Share[x][y]
			}
			if total > 1.0001 {
				t.Fatalf("company %d oversubscribed: %v", y, total)
			}
		}
	}
}

func TestCircuitGeneratorShape(t *testing.T) {
	c := Circuit(30, 6, 3, false, 3)
	for i := 6; i < c.N; i++ {
		if len(c.In[i]) == 0 {
			t.Fatalf("gate n%d has no inputs", i)
		}
		for _, w := range c.In[i] {
			if w >= i {
				t.Fatalf("acyclic circuit has forward edge %d -> %d", i, w)
			}
		}
	}
}
