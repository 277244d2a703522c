package rewrite

import (
	"strings"
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

func nums(args ...any) []val.T {
	out := make([]val.T, len(args))
	for i, a := range args {
		switch a := a.(type) {
		case string:
			out[i] = val.Symbol(a)
		case int:
			out[i] = val.Number(float64(a))
		}
	}
	return out
}

func TestRewriteShape(t *testing.T) {
	prog := mustParse(t, programs.ShortestPath+"arc(a, b, 1).\n")
	norm, err := MinMax(prog)
	if err != nil {
		t.Fatal(err)
	}
	// One aggregate rule becomes two; the rest, the fact among them,
	// copy over.
	if want := len(prog.AsRules().Rules) + 1; len(norm.Rules) != want {
		t.Fatalf("rules = %d, want %d", len(norm.Rules), want)
	}
	text := norm.String()
	if !strings.Contains(text, "not ggz_less_s_1") {
		t.Fatalf("missing negated dominance subgoal:\n%s", text)
	}
	if strings.Contains(text, "?=") || strings.Contains(text, "min") {
		t.Fatalf("aggregates must be gone:\n%s", text)
	}
	// No aggregates remain structurally.
	for _, r := range norm.Rules {
		for _, sg := range r.Body {
			if _, isAgg := sg.(*ast.Agg); isAgg {
				t.Fatalf("aggregate survived in %q", r)
			}
		}
	}
}

// TestRewriteAgreesOnAcyclic reproduces §5.4's headline: on nonnegative
// acyclic graphs, the rewritten program's (two-valued) well-founded model
// assigns exactly the monotonic least model's s atoms.
func TestRewriteAgreesOnAcyclic(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(a, c, 5).
arc(c, d, 1).
`
	prog := mustParse(t, src)
	norm, err := MinMax(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveWFS(norm, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TwoValued() {
		t.Fatalf("cost-monotonic programs have a two-valued WF model; %d undefined", res.UndefinedCount())
	}
	en, err := core.New(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every s atom of the least model is true in the rewritten WF model,
	// and no other s atom is.
	sCount := 0
	m.Rel("s/3").Each(func(row relationRow) bool {
		sCount++
		args := append(append([]val.T{}, row.Args...), row.Cost)
		if res.Status("s/3", args) != core.True {
			t.Errorf("s%v missing from the rewritten WF model", args)
		}
		return true
	})
	if wfsCount := res.True.Rel("s/3").Len(); wfsCount != sCount {
		t.Fatalf("rewritten WF model has %d s atoms, least model has %d", wfsCount, sCount)
	}
}

// TestRewriteZeroCycleAgrees: Example 3.1's graph (a zero-weight cycle)
// also agrees — the rewritten model picks M1's values.
func TestRewriteZeroCycleAgrees(t *testing.T) {
	src := programs.ShortestPath + "arc(a, b, 1).\narc(b, b, 0).\n"
	norm, err := MinMax(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveWFS(norm, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status("s/3", nums("a", "b", 1)); got != core.True {
		t.Fatalf("s(a,b,1) = %v, want true (M1)", got)
	}
	if got := res.Status("s/3", nums("a", "b", 0)); got != core.False {
		t.Fatalf("s(a,b,0) = %v, want false (M2 is rejected by the rewriting)", got)
	}
}

// TestRewriteDivergesOnPositiveCycle: without the cost functional
// dependency the rewritten path relation is infinite on positive cycles —
// the §7 motivation for greedy evaluation. The native engine terminates
// on the same input.
func TestRewriteDivergesOnPositiveCycle(t *testing.T) {
	src := programs.ShortestPath + "arc(a, b, 1).\narc(b, a, 1).\n"
	norm, err := MinMax(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.SolveWFS(norm, core.WFSOptions{MaxAtoms: 400, MaxIters: 200}); err == nil {
		t.Fatal("the rewritten program must diverge on a positive cycle")
	}
	en, err := core.New(mustParse(t, src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := en.Solve(nil)
	if err != nil {
		t.Fatalf("the native engine must terminate: %v", err)
	}
	row, ok := m.Rel("s/3").Get(nums("a", "a"))
	if !ok || row.Cost.Num() != 2 {
		t.Fatalf("s(a,a) = %v, want 2", row)
	}
}

// TestRewriteMax checks the max variant.
func TestRewriteMax(t *testing.T) {
	src := `
.cost score/2 : maxreal.
.cost best/1 : maxreal.
score(a, 3).
score(b, 7).
best(C) :- C ?= max D : score(X, D).
`
	norm, err := MinMax(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveWFS(norm, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status("best/1", nums(7)); got != core.True {
		t.Fatalf("best(7) = %v, want true", got)
	}
	if got := res.Status("best/1", nums(3)); got != core.False {
		t.Fatalf("best(3) = %v, want false", got)
	}
}

// TestRewriteRejectsOtherAggregates: §5.4 — "this fix does not apply to
// arbitrary aggregate operators".
func TestRewriteRejectsOtherAggregates(t *testing.T) {
	src := `
.cost s/3 : sumreal.
.cost m/3 : sumreal.
m(X, Y, N) :- N ?= sum M : s(X, Y, M).
`
	if _, err := MinMax(mustParse(t, src)); err == nil {
		t.Fatal("sum must be rejected by the min/max rewriting")
	}
}

type relationRow = relation.Row
