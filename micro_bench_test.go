// Library micro-benchmarks: parser throughput, relation operations, and
// the cost of on-demand engine features (explanations, the §5.1 check).
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

// BenchmarkParse: program-text parsing throughput (rules + 512 facts,
// which the parser's fact fast path reads). scripts/bench_regression.sh
// pins its allocs/op (PARSE_ALLOCS).
func BenchmarkParse(b *testing.B) {
	g := gen.Graph(gen.RandomGraph, 128, 512, 9, 1)
	src := programs.ShortestPath + gen.GraphFacts(g)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad: datalog.Load of Example 4.3 over 1,024 generated guests
// (116 KB of text, about 4,100 facts), MB/s of program text, beside a
// cold Solve of the loaded program. Facts are data from the bytes up, so
// load allocates per buffer chunk and per new symbol, not per fact:
// scripts/bench_regression.sh pins load's allocs/op, and those of rules,
// the Load of the six example programs' rule texts alone.
func BenchmarkLoad(b *testing.B) {
	src := programs.Party + gen.PartyFacts(gen.Party(1024, 4, 3, 1))
	b.Run("load", func(b *testing.B) {
		// One untimed load first interns the text's symbols, so the
		// pinned count is the steady state: no symbol is new.
		if _, err := datalog.Load(src, datalog.Options{}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := datalog.Load(src, datalog.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// rules: the front end alone — Load of the rule texts of the paper's
	// six example programs, with no facts to speak of, after one untimed
	// load so that no symbol is new. scripts/bench_regression.sh pins its
	// allocs/op (RULES_ALLOCS).
	b.Run("rules", func(b *testing.B) {
		texts := []string{programs.ShortestPath, programs.CompanyControl, programs.Party,
			programs.Circuit, programs.Halfsum, programs.Averages}
		loadAll := func() {
			for _, text := range texts {
				if _, err := datalog.Load(text, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		loadAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loadAll()
		}
	})
	b.Run("solve", func(b *testing.B) {
		p, err := datalog.Load(src, datalog.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile: the full Load pipeline (parse + schemas + safety +
// conflict-freedom + admissibility + plan compilation).
func BenchmarkCompile(b *testing.B) {
	g := gen.Graph(gen.RandomGraph, 64, 256, 9, 1)
	src := programs.ShortestPath + gen.GraphFacts(g)
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(prog, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationInsert: lattice-joining inserts into a cost relation
// (1,024 inserts, 64 distinct tuples per 16 rounds of improvement). B/row
// is the bytes allocated per insert — arena, cost column and key table —
// which scripts/bench_regression.sh gates, so the size of a stored value
// cannot grow back unnoticed.
func BenchmarkRelationInsert(b *testing.B) {
	info := &ast.PredInfo{Key: "s/3", Arity: 3, HasCost: true, L: lattice.MinReal}
	keys := make([][]val.T, 1024)
	for i := range keys {
		keys[i] = []val.T{val.Symbol(fmt.Sprintf("u%d", i%64)), val.Symbol(fmt.Sprintf("v%d", i/64))}
	}
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := relation.New(info)
		for j, k := range keys {
			r.InsertJoin(k, val.Number(float64(j%17)))
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-before)/float64(b.N*len(keys)), "B/row")
}

// BenchmarkRelationMatch: indexed bound-prefix matching.
func BenchmarkRelationMatch(b *testing.B) {
	info := &ast.PredInfo{Key: "e/2", Arity: 2}
	r := relation.New(info)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			r.InsertJoin([]val.T{val.Symbol(fmt.Sprintf("u%d", i)), val.Symbol(fmt.Sprintf("v%d", j))}, val.T{})
		}
	}
	u := val.Symbol("u17")
	pattern := []*val.T{&u, nil}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Match(pattern, func(relation.Row) bool { n++; return true })
		if n != 64 {
			b.Fatalf("matched %d", n)
		}
	}
}

// BenchmarkRelationClone: cloning a 10,000-row cost relation for writing
// (what SolveMore and a component's private view do). tip clones the
// newest generation each time, taking its storage over; fork clones one
// superseded generation each time, copying the key table and the partial
// last chunks and sharing the full chunks.
func BenchmarkRelationClone(b *testing.B) {
	info := &ast.PredInfo{Key: "s/3", Arity: 3, HasCost: true, L: lattice.MinReal}
	r := relation.New(info)
	for i := 0; i < 10000; i++ {
		r.InsertJoin([]val.T{val.Symbol(fmt.Sprintf("u%d", i%100)), val.Symbol(fmt.Sprintf("v%d", i/100))}, val.Number(float64(i)))
	}
	tip := r.Clone()
	b.Run("tip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tip = tip.Clone(); tip.Len() != r.Len() {
				b.Fatal("short clone")
			}
		}
	})
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c := r.Clone(); c.Len() != r.Len() {
				b.Fatal("short clone")
			}
		}
	})
}

// BenchmarkExplain: one depth-10 explanation tree of a shortest path
// that spans all four layers of the n=96 layered DAG, on a fresh
// Provenance each time, so it includes staging the recursive component.
// Provenance is re-derived from the model on demand, so this is what a
// model's first explanation costs now that solves record none.
func BenchmarkExplain(b *testing.B) {
	g := gen.Graph(gen.LayeredDAG, 96, 384, 9, 96)
	en := mustEngine(b, programs.ShortestPath+gen.GraphFacts(g), core.Options{})
	db, _, err := en.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	var args []val.T
	for _, row := range db.Rel(ast.MakePredKey("s", 3)).Rows() {
		var from, to int
		fmt.Sscanf(row.Args[0].Text(), "v%d", &from)
		fmt.Sscanf(row.Args[1].Text(), "v%d", &to)
		if from < 24 && to >= 72 { // layer 0 to layer 3
			args = row.Args
			break
		}
	}
	if args == nil {
		b.Fatal("no shortest path spans the DAG")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree := en.Provenance(db).Tree("s", args, 10); !strings.Contains(tree, "[fact]") {
			b.Fatalf("tree does not reach the arcs:\n%s", tree)
		}
	}
}

// BenchmarkGroupStratifiedCheck: the instance-level §5.1 classification.
func BenchmarkGroupStratifiedCheck(b *testing.B) {
	g := gen.Graph(gen.LayeredDAG, 64, 200, 9, 64)
	en := mustEngine(b, programs.ShortestPath+gen.GraphFacts(g), core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := en.GroupStratified(nil)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkSolve is the canonical end-to-end fixpoint benchmark used to
// bound instrumentation overhead: a full semi-naive solve of the
// shortest-path program on a fixed cyclic graph, no sink attached. The
// bench-regression smoke job (scripts/bench_regression.sh) pins its
// allocs/op.
func BenchmarkSolve(b *testing.B) {
	g := gen.Graph(gen.CycleGraph, 96, 4*96, 9, 96)
	en := mustEngine(b, programs.ShortestPath+gen.GraphFacts(g), core.Options{})
	// One untimed solve first: the pinned figure is the steady state of
	// an engine whose pooled pipelines and plan scratch already exist,
	// not the first solve after compilation.
	solveB(b, en)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveB(b, en)
	}
}
