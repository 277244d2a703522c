package stable

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// example31 returns the program, M1 (the engine's least model) and M2
// (Example 3.1's second model, with the spurious cost-0 cycle claim).
func example31(t *testing.T) (*ast.Program, *relation.DB, *relation.DB, *core.Engine) {
	t.Helper()
	prog := mustParse(t, programs.ShortestPath+"arc(a, b, 1).\narc(b, b, 0).\n")
	en, err := core.New(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m1.Clone()
	m2.AddFact("s", []val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(0))
	m2.AddFact("path", []val.T{val.Symbol("a"), val.Symbol("b"), val.Symbol("b")}, val.Number(0))
	return prog, m1, m2, en
}

// TestExample31BothStable reproduces §5.3/§5.5: both M1 and M2 of
// Example 3.1 are stable in the Kemp–Stuckey sense.
func TestExample31BothStable(t *testing.T) {
	prog, m1, m2, _ := example31(t)
	s1 := core.FlattenCosts(m1)
	s2 := core.FlattenCosts(m2)
	ok, err := IsStable(prog, s1, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M1 must be stable")
	}
	ok, err = IsStable(prog, s2, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M2 must be stable (the incomparable-stable-models flaw, §5.3)")
	}
	// A non-model is not stable.
	bad := m1.Clone()
	bad.AddFact("s", []val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(0.5))
	if ok, _ := IsStable(prog, core.FlattenCosts(bad), core.WFSOptions{}); ok {
		t.Fatal("an arbitrary cost improvement must not be stable")
	}
}

// TestExample31MonotonicStable reproduces the §5.5 alternative semantics:
// reduce only negation, require the candidate to be the minimal model of
// the (monotonic) reduced program — only M1 survives.
func TestExample31MonotonicStable(t *testing.T) {
	prog, m1, m2, _ := example31(t)
	ok, err := IsMonotonicStable(prog, nil, m1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M1 is the unique monotonic-stable model")
	}
	ok, err = IsMonotonicStable(prog, nil, m2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("M2 must be rejected by the monotonic-reduct stability")
	}
}

// TestEnumerateFindsBothModels searches the union of M1 and M2 atoms and
// finds exactly the two stable models of Example 3.1.
func TestEnumerateFindsBothModels(t *testing.T) {
	prog, m1, m2, _ := example31(t)
	candidates := core.FlattenCosts(m1)
	m2s := core.FlattenCosts(m2)
	for _, k := range m2s.Preds() {
		candidates.Rel(k).Join(m2s.Rel(k))
	}
	fixed := map[ast.PredKey]bool{"arc/3": true}
	models, err := Enumerate(prog, candidates, fixed, 16, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("stable models found = %d, want exactly 2 (M1 and M2)", len(models))
	}
	found1, found2 := false, false
	for _, m := range models {
		if m.Equal(core.FlattenCosts(m1), nil) {
			found1 = true
		}
		if m.Equal(m2s, nil) {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Fatalf("expected M1 and M2; got M1=%v M2=%v", found1, found2)
	}
}

func TestEnumerateBound(t *testing.T) {
	prog, m1, _, _ := example31(t)
	if _, err := Enumerate(prog, core.FlattenCosts(m1), nil, 2, core.WFSOptions{}); err == nil {
		t.Fatal("exceeding maxFree must error")
	}
}

// TestAcyclicUniqueStable: on an acyclic graph the stable model is unique
// and equals the least model (§5.3's positive case).
func TestAcyclicUniqueStable(t *testing.T) {
	prog := mustParse(t, programs.ShortestPath+"arc(a, b, 1).\narc(b, c, 2).\n")
	en, err := core.New(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	candidates := core.FlattenCosts(m)
	// Add a decoy: a worse claimed s cost.
	candidates.Rel("s/3").InsertJoin([]val.T{val.Symbol("a"), val.Symbol("c"), val.Number(7)}, val.T{})
	fixed := map[ast.PredKey]bool{"arc/3": true}
	models, err := Enumerate(prog, candidates, fixed, 16, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || !models[0].Equal(core.FlattenCosts(m), nil) {
		t.Fatalf("acyclic graphs have the least model as unique stable model; got %d", len(models))
	}
}
