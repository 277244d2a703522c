// Component-walk benchmark: a multi-SCC workload where independent
// components give the walk's workers concurrency to exploit. See
// docs/PERFORMANCE.md for recorded results and methodology.
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// procLevels are the GOMAXPROCS values the recorded tables use: one
// worker, two, and one per CPU.
func procLevels() []int {
	levels := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		levels = append(levels, n)
	}
	return levels
}

// multiSCCSource builds k independent copies of the shortest-path
// program (distinct predicate names per copy), each over its own cyclic
// graph: k disjoint component chains the scheduler can run concurrently.
func multiSCCSource(k, nodes, edges int) string {
	var sb strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, ".cost arc%d/3 : minreal.\n", i)
		fmt.Fprintf(&sb, ".cost path%d/4 : minreal.\n", i)
		fmt.Fprintf(&sb, ".cost s%d/3 : minreal.\n", i)
		fmt.Fprintf(&sb, ".ic :- arc%d(direct, Z, C).\n", i)
		fmt.Fprintf(&sb, "path%d(X, direct, Y, C) :- arc%d(X, Y, C).\n", i, i)
		fmt.Fprintf(&sb, "path%d(X, Z, Y, C) :- s%d(X, Z, C1), arc%d(Z, Y, C2), C = C1 + C2.\n", i, i, i)
		fmt.Fprintf(&sb, "s%d(X, Y, C) :- C ?= min D : path%d(X, Z, Y, D).\n", i, i)
		g := gen.Graph(gen.CycleGraph, nodes, edges, 9, int64(i+1))
		sb.WriteString(strings.ReplaceAll(gen.GraphFacts(g), "arc(", fmt.Sprintf("arc%d(", i)))
	}
	return sb.String()
}

// BenchmarkSolveParallel is the component walk's headline workload:
// eight independent shortest-path components. One worker evaluates them
// one at a time; more overlap them, so procs>1 should show a wall-clock
// win roughly bounded by min(k, workers).
func BenchmarkSolveParallel(b *testing.B) {
	src := multiSCCSource(8, 64, 4*64)
	for _, procs := range procLevels() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			en := mustEngine(b, src, core.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveB(b, en)
			}
		})
	}
}
