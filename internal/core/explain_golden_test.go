package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/relation"
)

// explainRecord renders what a reader of explanations sees: for every
// oracle case's model over edb ∪ more, each tuple's explanation (its
// rule and supports, or "unexplained") and its depth-3 tree, and the
// case's GroupStratified verdict; then the verdicts on an acyclic and a
// cyclic shortest-path graph.
func explainRecord(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	record := func(name, src, edb, more string, eps float64) {
		en := mustEngine(t, src, Options{Epsilon: eps})
		all := factsDB(t, en, edb)
		all.Join(factsDB(t, en, more))
		db, _, err := en.Solve(all)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "== %s\n", name)
		pv := en.Provenance(db)
		for _, k := range db.Preds() {
			for _, row := range db.Rel(k).Rows() {
				b.WriteString(relation.FormatFact(k.Name(), row))
				d, ok := pv.Explain(k.Name(), row.Args)
				switch {
				case !ok:
					b.WriteString(" unexplained\n")
				case d == nil:
					b.WriteString(" [fact rule]\n")
				default:
					fmt.Fprintf(&b, " [%s]\n", d.Rule)
					for _, s := range d.Supports {
						fmt.Fprintf(&b, "  %s\n", s)
					}
				}
				for _, line := range strings.SplitAfter(pv.Tree(k.Name(), row.Args, 3), "\n") {
					if line != "" {
						b.WriteString("  | " + line)
					}
				}
			}
		}
		ok, err := en.GroupStratified(all)
		fmt.Fprintf(&b, "group stratified: %v %v\n", ok, err)
	}
	for _, tc := range oracleCases {
		record(tc.name, tc.src, tc.edb, tc.more, tc.eps)
	}
	// A cyclic graph whose least-sorting instances lead back to their own
	// tuples (TestExplainIsWellFounded), and negation beside builtins.
	record("reach/cycle", "reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- reach(X, Y), edge(Y, Z).\n",
		"edge(a, z). edge(z, c). edge(c, b). edge(b, c). edge(b, b).", "", 0)
	record("negation", "isolated(X) :- node(X), not linked(X).\nlinked(X) :- e(X, Y).\n"+
		".cost w/2 : minreal.\n.cost dbl/2 : minreal.\ndbl(X, D) :- w(X, Y), D = Y * 2, D > 5.\n",
		"node(a). node(b). node(c). e(a, b). w(a, 3). w(b, 1).", "", 0)
	for _, g := range []struct {
		name string
		kind gen.GraphKind
	}{{"dag", gen.LayeredDAG}, {"cycle", gen.CycleGraph}} {
		en := mustEngine(t, programs.ShortestPath+gen.GraphFacts(gen.Graph(g.kind, 12, 24, 9, 7)), Options{})
		ok, err := en.GroupStratified(nil)
		fmt.Fprintf(&b, "== shortestpath/%s group stratified: %v %v\n", g.name, ok, err)
	}
	return b.String()
}

// TestExplainGolden: every explanation and stratification verdict reads
// as recorded in testdata/explain.golden, byte for byte — whichever
// evaluator re-derives them.
func TestExplainGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "explain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := explainRecord(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the recorded text:\ngot  %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("record has %d lines, the golden %d", len(gl), len(wl))
}
