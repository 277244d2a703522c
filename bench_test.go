// Benchmarks regenerating the performance dimension of every experiment
// in EXPERIMENTS.md (one benchmark family per experiment id). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/monotone"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/stable"
	"repro/internal/val"
)

func mustEngine(b *testing.B, src string, opts core.Options) *core.Engine {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	en, err := core.New(prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	return en
}

func solveB(b *testing.B, en *core.Engine) *relation.DB {
	db, _, err := en.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkFigure1Aggregates (E1): applying each Figure 1 aggregate to
// random 64-element multisets.
func BenchmarkFigure1Aggregates(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	nums := make([]lattice.Elem, 64)
	for i := range nums {
		nums[i] = val.Number(float64(r.Intn(100)))
	}
	bools := make([]lattice.Elem, 64)
	for i := range bools {
		bools[i] = val.Boolean(r.Intn(2) == 1)
	}
	sets := make([]lattice.Elem, 64)
	for i := range sets {
		var elems []val.T
		for j := 0; j < 4; j++ {
			elems = append(elems, val.Symbol(fmt.Sprintf("e%d", r.Intn(10))))
		}
		sets[i] = val.SetOf(elems...)
	}
	cases := []struct {
		agg lattice.Aggregate
		ms  []lattice.Elem
	}{
		{lattice.Min, nums}, {lattice.Max, nums}, {lattice.Sum, nums},
		{lattice.Count, bools}, {lattice.And, bools}, {lattice.Or, bools},
		{lattice.Average, nums}, {lattice.Halfsum, nums}, {lattice.Union, sets},
	}
	for _, c := range cases {
		b.Run(c.agg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := c.agg.Apply(c.ms); !ok {
					b.Fatal("undefined")
				}
			}
		})
	}
}

// BenchmarkExample21Averages (E2): the grouped-average program over a
// synthetic student-record table.
func BenchmarkExample21Averages(b *testing.B) {
	src := programs.Averages
	r := rand.New(rand.NewSource(2))
	for s := 0; s < 40; s++ {
		for c := 0; c < 8; c++ {
			if r.Intn(3) > 0 {
				src += fmt.Sprintf("record(s%d, c%d, %d).\n", s, c, 40+r.Intn(60))
			}
		}
	}
	for c := 0; c < 10; c++ {
		src += fmt.Sprintf("courses(c%d).\n", c)
	}
	en := mustEngine(b, src, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveB(b, en)
	}
}

// BenchmarkShortestPath (E3): the engine on the three graph topologies.
func BenchmarkShortestPath(b *testing.B) {
	for _, kind := range []gen.GraphKind{gen.LayeredDAG, gen.CycleGraph, gen.RandomGraph} {
		for _, n := range []int{32, 64, 128} {
			g := gen.Graph(kind, n, 4*n, 9, int64(n))
			en := mustEngine(b, programs.ShortestPath+gen.GraphFacts(g), core.Options{})
			b.Run(fmt.Sprintf("%s/n=%d", kindName(kind), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solveB(b, en)
				}
			})
		}
	}
}

func kindName(k gen.GraphKind) string {
	switch k {
	case gen.LayeredDAG:
		return "dag"
	case gen.CycleGraph:
		return "cyclic"
	default:
		return "random"
	}
}

// BenchmarkShortestPathDijkstra (E3 baseline): the all-pairs baseline on
// the same graphs.
func BenchmarkShortestPathDijkstra(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := gen.Graph(gen.CycleGraph, n, 4*n, 9, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.AllPairs(g)
			}
		})
	}
}

// BenchmarkCompanyControl (E4): engine vs the direct iterative solver.
func BenchmarkCompanyControl(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		o := gen.Ownership(n, 3, true, int64(n))
		en := mustEngine(b, programs.CompanyControl+gen.OwnershipFacts(o), core.Options{})
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveB(b, en)
			}
		})
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.CompanyControl(o)
			}
		})
	}
}

// BenchmarkParty (E5): engine vs the direct propagation. It reports the
// engine's index probes per solve (probes/op), the deterministic counter
// scripts/bench_regression.sh pins: kc's Δ pass runs its driver order,
// coming first, instead of walking the Δ set once per knows row.
func BenchmarkParty(b *testing.B) {
	for _, n := range []int{64, 256} {
		p := gen.Party(n, 5, 3, int64(n))
		en := mustEngine(b, programs.Party+gen.PartyFacts(p), core.Options{})
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var probes int64
			for i := 0; i < b.N; i++ {
				_, st, err := en.Solve(nil)
				if err != nil {
					b.Fatal(err)
				}
				probes = st.Probes
			}
			b.ReportMetric(float64(probes), "probes/op")
		})
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Attendance()
			}
		})
	}
}

// BenchmarkCircuit (E6): engine vs the event-free fixpoint simulator,
// cyclic circuits included.
func BenchmarkCircuit(b *testing.B) {
	for _, n := range []int{64, 256} {
		for _, cyclic := range []bool{false, true} {
			c := gen.Circuit(n, n/5, 3, cyclic, int64(n))
			en := mustEngine(b, programs.Circuit+gen.CircuitFacts(c), core.Options{})
			b.Run(fmt.Sprintf("engine/n=%d/cyclic=%v", n, cyclic), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solveB(b, en)
				}
			})
			b.Run(fmt.Sprintf("direct/n=%d/cyclic=%v", n, cyclic), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.Eval()
				}
			})
		}
	}
}

// BenchmarkMinimalModelSearch (E7): enumerating the stable models of the
// §3 two-minimal-model program.
func BenchmarkMinimalModelSearch(b *testing.B) {
	prog, err := parser.Parse(programs.TwoMinimalModels)
	if err != nil {
		b.Fatal(err)
	}
	candidates := relation.NewDB(ast.Schemas{})
	for _, a := range []string{"a", "b"} {
		candidates.Rel("p/1").InsertJoin([]val.T{val.Symbol(a)}, val.T{})
		candidates.Rel("q/1").InsertJoin([]val.T{val.Symbol(a)}, val.T{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		models, err := stable.Enumerate(prog, candidates, nil, 8, core.WFSOptions{})
		if err != nil || len(models) != 2 {
			b.Fatalf("models=%d err=%v", len(models), err)
		}
	}
}

// BenchmarkStableCheck (E8): the Kemp–Stuckey stability check on Example
// 3.1's M1 and M2.
func BenchmarkStableCheck(b *testing.B) {
	src := programs.ShortestPath + "arc(a, b, 1).\narc(b, b, 0).\n"
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	en, err := core.New(prog, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m1, _, err := en.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	m2 := m1.Clone()
	m2.AddFact("s", []val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(0))
	m2.AddFact("path", []val.T{val.Symbol("a"), val.Symbol("b"), val.Symbol("b")}, val.Number(0))
	s1, s2 := core.FlattenCosts(m1), core.FlattenCosts(m2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok1, err1 := stable.IsStable(prog, s1, core.WFSOptions{})
		ok2, err2 := stable.IsStable(prog, s2, core.WFSOptions{})
		if !ok1 || !ok2 || err1 != nil || err2 != nil {
			b.Fatal("both models must be stable")
		}
	}
}

// BenchmarkWFS (E9): the alternating fixpoint on acyclic vs cyclic
// shortest-path instances.
func BenchmarkWFS(b *testing.B) {
	cases := []struct {
		name string
		src  string
	}{
		{"acyclic", programs.ShortestPath + gen.GraphFacts(gen.Graph(gen.LayeredDAG, 12, 30, 9, 9))},
		{"cyclic", programs.ShortestPath + "arc(a,b,1).\narc(b,b,0).\narc(b,c,3).\n"},
	}
	for _, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveWFS(prog, core.WFSOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGGZRewrite (E10): native monotonic evaluation vs the
// rewritten program under the well-founded semantics.
func BenchmarkGGZRewrite(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		g := gen.Graph(gen.LayeredDAG, n, 3*n, 9, int64(n))
		src := programs.ShortestPath + gen.GraphFacts(g)
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		en := mustEngine(b, src, core.Options{})
		norm, err := rewrite.MinMax(prog)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("native/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveB(b, en)
			}
		})
		b.Run(fmt.Sprintf("ggz-wfs/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveWFS(norm, core.WFSOptions{MaxAtoms: 1000000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHalfsumLimit (E11): rounds to ε-convergence of the ω-limit
// program.
func BenchmarkHalfsumLimit(b *testing.B) {
	for _, eps := range []float64{1e-6, 1e-9, 1e-12} {
		en := mustEngine(b, programs.Halfsum, core.Options{Epsilon: eps})
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveB(b, en)
			}
		})
	}
}

// BenchmarkNaiveVsSemiNaive (E12): the §6.2 strategy ablation.
func BenchmarkNaiveVsSemiNaive(b *testing.B) {
	g := gen.Graph(gen.CycleGraph, 48, 150, 9, 48)
	src := programs.ShortestPath + gen.GraphFacts(g)
	for _, strat := range []core.Strategy{core.Naive, core.SemiNaive} {
		name := "semi-naive"
		if strat == core.Naive {
			name = "naive"
		}
		en := mustEngine(b, src, core.Options{Strategy: strat})
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveB(b, en)
			}
		})
	}
}

// BenchmarkIncrementalSolve: adding one arc via SolveMore vs re-solving
// the whole graph (the insert-monotone maintenance monotonicity buys).
// solve-more extends the same base model every time, so from the second
// call on each dispatched component's relations are forks (copies);
// solve-more-chain extends the previous call's model, as a server's
// writer does, so each call extends its predecessor's storage in place.
func BenchmarkIncrementalSolve(b *testing.B) {
	g := gen.Graph(gen.LayeredDAG, 128, 512, 9, 128)
	en := mustEngine(b, programs.ShortestPath+gen.GraphFacts(g), core.Options{})
	base, _, err := en.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	added := relation.NewDB(en.Schemas)
	added.Rel("arc/3").InsertJoin([]val.T{val.Symbol("v0"), val.Symbol("v100")}, val.Number(1))
	b.Run("solve-more", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.SolveMore(context.Background(), base, added, core.Stats{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.Solve(added); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve-more-chain", func(b *testing.B) {
		// The served writer's batches: an arc between two fresh nodes
		// and one between existing nodes of a 48-node cycle graph, each
		// batch solved into the model the previous one returned. probes/op
		// is the index probes per batch, a count that moves only when
		// the passes a batch runs change.
		const n = 48
		en := mustEngine(b, programs.ShortestPath+gen.GraphFacts(gen.Graph(gen.CycleGraph, n, 4*n, 9, n)), core.Options{})
		m, _, err := en.Solve(nil)
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		batches := make([]*relation.DB, b.N)
		for i := range batches {
			batches[i] = relation.NewDB(en.Schemas)
			arc := batches[i].Rel("arc/3")
			arc.InsertJoin([]val.T{val.Symbol(fmt.Sprintf("f%d", i)), val.Symbol(fmt.Sprintf("g%d", i))}, val.Number(float64(1+r.Intn(9))))
			arc.InsertJoin([]val.T{val.Symbol(fmt.Sprintf("v%d", r.Intn(n))), val.Symbol(fmt.Sprintf("v%d", r.Intn(n)))}, val.Number(float64(1+r.Intn(9))))
		}
		b.ReportAllocs()
		b.ResetTimer()
		var probes int64
		for _, added := range batches {
			var st core.Stats
			if m, st, err = en.SolveMore(context.Background(), m, added, core.Stats{}); err != nil {
				b.Fatal(err)
			}
			probes += st.Probes
		}
		b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	})
}

// BenchmarkWFSFallback: the §6.3 iterated construction — a win-move
// component solved by the well-founded fallback feeding a counting
// component above it.
func BenchmarkWFSFallback(b *testing.B) {
	src := `
.cost wins/1 : countnat.
win(X)  :- move(X, Y), not win(Y).
wins(N) :- N = count : win(X).
`
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		src += fmt.Sprintf("move(p%d, p%d).\n", i, i+1+r.Intn(3))
	}
	en := mustEngine(b, src, core.Options{WFSFallback: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveB(b, en)
	}
}

// BenchmarkStaticChecks (E13): the full static pipeline (schemas, safety,
// conflict-freedom, admissibility, classification) on the paper's
// programs.
func BenchmarkStaticChecks(b *testing.B) {
	srcs := map[string]string{
		"shortest-path":   programs.ShortestPath,
		"company-control": programs.CompanyControl,
		"circuit":         programs.Circuit,
		"party":           programs.Party,
	}
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				schemas, err := ast.BuildSchemas(prog)
				if err != nil {
					b.Fatal(err)
				}
				rep := monotone.CheckProgram(prog, schemas)
				if rep.Admissible != nil {
					b.Fatal(rep.Admissible)
				}
			}
		})
	}
}
