package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/rewrite"
	"repro/internal/val"
)

// wfsDiffCase is one seeded instance of the differential test.
type wfsDiffCase struct {
	name string
	prog *ast.Program
	// least marks an admissible program: the reduct is compared at the
	// engine's least model of it too.
	least bool
}

func wfsDiffCases(t *testing.T) []wfsDiffCase {
	t.Helper()
	var cases []wfsDiffCase
	add := func(name, src string, least bool) {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, wfsDiffCase{name, prog, least})
	}
	// Aggregates over an empty group, with and without grouping
	// variables, and negation of a predicate with no rows.
	add("empty-groups", "p(a). r(X) :- p(X), not q(X). n(N) :- N = count : r(X). m(N) :- N = count : q(X). k(X, N) :- p(X), N = count : q(X).", false)
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		dag := gen.Graph(gen.LayeredDAG, n, 2*n, 9, seed)
		add(fmt.Sprintf("sp-dag/%d", seed), programs.ShortestPath+gen.GraphFacts(dag), true)
		cyc := gen.Graph(gen.RandomGraph, 3+r.Intn(3), 4+r.Intn(4), 5, seed)
		add(fmt.Sprintf("sp-cyclic/%d", seed), programs.ShortestPath+gen.GraphFacts(cyc), false)
		add(fmt.Sprintf("party/%d", seed), programs.Party+gen.PartyFacts(gen.Party(4+r.Intn(5), 3, 2, seed)), true)
		var moves strings.Builder
		for i, m := 0, 3+r.Intn(8); i < m; i++ {
			fmt.Fprintf(&moves, "move(p%d, p%d).\n", r.Intn(6), r.Intn(6))
		}
		add(fmt.Sprintf("win-move/%d", seed), "win(X) :- move(X, Y), not win(Y).\n"+moves.String(), false)
		own := gen.Ownership(3+r.Intn(3), 2, seed%2 == 0, seed)
		add(fmt.Sprintf("company/%d", seed), programs.CompanyControl+gen.OwnershipFacts(own), true)
		if seed <= 30 {
			prog, err := parser.Parse(programs.ShortestPath + gen.GraphFacts(gen.Graph(gen.LayeredDAG, n, 2*n, 9, seed+100)))
			if err != nil {
				t.Fatal(err)
			}
			norm, err := rewrite.MinMax(prog)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, wfsDiffCase{fmt.Sprintf("ggz-dag/%d", seed), norm, false})
		}
	}
	return cases
}

// TestWFSMatchesReference holds the alternating fixpoint on the engine's
// solves to the reference interpreter (wfs_oracle_test.go): on every
// seeded instance the True and Possible sets agree atom for atom, the
// alternation takes as many rounds, and the reduct at the least model is
// the same set.
func TestWFSMatchesReference(t *testing.T) {
	// Some cyclic shortest-path instances alternate without end; both
	// sides must then stop with the same class at the cap.
	opts := WFSOptions{MaxIters: 50}
	n := 0
	for _, c := range wfsDiffCases(t) {
		want, werr := refSolveWFS(context.Background(), c.prog, opts)
		got, gerr := SolveWFS(c.prog, opts)
		if werr != nil || gerr != nil {
			if !sameClass(werr, gerr) {
				t.Errorf("%s: reference err %v, engine err %v", c.name, werr, gerr)
			}
			continue
		}
		n++
		if !storeOf(got.True).Equal(want.True) {
			t.Errorf("%s: True differs\nengine:    %v\nreference: %v", c.name, storeText(storeOf(got.True)), storeText(want.True))
		}
		if !storeOf(got.Possible).Equal(want.Possible) {
			t.Errorf("%s: Possible differs\nengine:    %v\nreference: %v", c.name, storeText(storeOf(got.Possible)), storeText(want.Possible))
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%s: %d alternations, reference %d", c.name, got.Iterations, want.Iterations)
		}
		if !c.least {
			continue
		}
		en, err := New(c.prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m, _, err := en.Solve(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantR, werr := refReductLfp(c.prog, storeOf(m), opts)
		w, err := CompileWFS(c.prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gotR, gerr := w.ReductLfp(context.Background(), FlattenCosts(m))
		if werr != nil || gerr != nil {
			t.Errorf("%s: reduct: reference err %v, engine err %v", c.name, werr, gerr)
			continue
		}
		if !storeOf(gotR).Equal(wantR) {
			t.Errorf("%s: reduct differs\nengine:    %v\nreference: %v", c.name, storeText(storeOf(gotR)), storeText(wantR))
		}
	}
	if n < 200 {
		t.Fatalf("%d instances compared, want at least 200", n)
	}
}

// sameClass reports whether two errors are both nil or share their
// limit class.
func sameClass(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for _, class := range []error{ErrCanceled, ErrBudgetExceeded, ErrDiverged} {
		if errors.Is(a, class) != errors.Is(b, class) {
			return false
		}
	}
	return true
}

// storeText renders a store for a failure message.
func storeText(s *Store) string {
	var b strings.Builder
	for _, k := range s.Preds() {
		s.Each(k, func(args []val.T) bool {
			fmt.Fprintf(&b, "%s%v ", k.Name(), args)
			return true
		})
	}
	return b.String()
}
