package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

// TestSection61LimitTrend approximates §6.1's infinite-relation
// discussion with a deep halving chain: the minimum over lengths
// 1, 1/2, 1/4, ... approaches the glb 0, which is not itself a member.
// Any finite prefix computes exactly; the trend to the glb is visible as
// the chain deepens.
func TestSection61LimitTrend(t *testing.T) {
	src := `
.cost w/2 : minreal.
.cost shortest/1 : minreal.
shortest(C) :- C ?= min D : w(X, D).
`
	v := 1.0
	for k := 0; k <= 40; k++ {
		src += "w(n" + itoa(k) + ", " + val.Number(v).String() + ").\n"
		v /= 2
	}
	db := solve(t, src, Options{})
	c, ok := costOf(t, db, "shortest")
	if !ok {
		t.Fatal("shortest missing")
	}
	if c != math.Pow(2, -40) {
		t.Fatalf("shortest = %v, want 2^-40", c)
	}
	if c == 0 {
		t.Fatal("any finite prefix stays strictly above the glb 0 (§6.1)")
	}
}

// TestNegativeCycleDiverges: with a reachable negative cycle the s costs
// descend forever; the round bound reports it instead of looping (§2.3.3
// concedes safety cannot guarantee termination).
func TestNegativeCycleDiverges(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, a, -2).
`
	en := mustEngine(t, src, Options{MaxRounds: 500})
	_, _, err := en.Solve(nil)
	if err == nil || !strings.Contains(err.Error(), "fixpoint") {
		t.Fatalf("err = %v, want a round-bound failure", err)
	}
	// Bellman-Ford flags the same input.
}

// TestConflictsAtRuntime: a cost-inconsistent program slips past
// SkipChecks; one application of the reference T_P, which inserts
// strictly, reports the conflicting derivation (Definition 2.6's failure
// mode, observed dynamically), while Solve joins the conflicting costs.
func TestConflictsAtRuntime(t *testing.T) {
	src := `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
.cost r/2 : sumreal.
q(x, 1).
r(x, 2).
p(X, C) :- q(X, C).
p(X, C) :- r(X, C).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Conflict-freedom rejects it statically.
	if _, err := New(prog, Options{}); err == nil || !strings.Contains(err.Error(), "conflicting costs") {
		t.Fatalf("static check: %v", err)
	}
	// With checks skipped the engine silently joins (documented hazard of
	// SkipChecks): p(x) holds the join of the two derived costs.
	en, err := New(prog, Options{SkipChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatalf("join mode must not error: %v", err)
	}
	p := ast.MakePredKey("p", 2)
	row, ok := db.Rel(p).Get([]val.T{val.Symbol("x")})
	if want := en.Schemas.Info(p).L.Join(val.Number(1), val.Number(2)); !ok || !val.Equal(row.Cost, want) {
		t.Fatalf("p(x) = %v (present %v), want the joined cost %v", row.Cost, ok, want)
	}
	// The reference T_P catches the conflict at runtime.
	ci := -1
	for i := 0; i < en.ComponentCount(); i++ {
		if slices.Contains(en.ComponentPreds(i), string(p)) {
			ci = i
		}
	}
	_, err = en.TP(db, ci)
	var ce *relation.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("TP err = %v, want a ConflictError", err)
	}
}

// TestNaiveSeedsEDBForCDBPreds: EDB rows supplied for a predicate that
// also has rules must survive the naive strategy's per-round relation
// replacement.
func TestNaiveSeedsEDBForCDBPreds(t *testing.T) {
	src := `
.cost s/3 : minreal.
.cost arc/3 : minreal.
s(X, Y, C) :- arc(X, Y, C).
`
	en := mustEngine(t, src, Options{Strategy: Naive})
	edb := relation.NewDB(en.Schemas)
	edb.Rel("arc/3").InsertJoin([]val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(1))
	// Seed an s tuple directly (an externally asserted shortest path).
	edb.Rel("s/3").InsertJoin([]val.T{val.Symbol("x"), val.Symbol("y")}, val.Number(7))
	db, _, err := en.Solve(edb)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := costOf(t, db, "s", "x", "y"); !ok || c != 7 {
		t.Fatalf("seeded s(x,y) = %v (%v), want 7", c, ok)
	}
	if c, _ := costOf(t, db, "s", "a", "b"); c != 1 {
		t.Fatalf("derived s(a,b) = %v, want 1", c)
	}
}

// TestMaxRoundsHonored: tiny bounds trip predictably.
func TestMaxRoundsHonored(t *testing.T) {
	src := programs.ShortestPath
	for i := 0; i < 20; i++ {
		src += "arc(n" + itoa(i) + ", n" + itoa(i+1) + ", 1).\n"
	}
	en := mustEngine(t, src, Options{MaxRounds: 3})
	if _, _, err := en.Solve(nil); err == nil {
		t.Fatal("a 20-hop chain cannot close in 3 rounds")
	}
}

// TestNewRefusesBadOptions: New refuses a negative round bound, under
// which every recursive component would fail after round 0, and an
// Epsilon that is not a finite number ≥ 0; 0 rounds selects the default.
func TestNewRefusesBadOptions(t *testing.T) {
	prog, err := parser.Parse(programs.ShortestPath + "arc(a, b, 1).\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{MaxRounds: -1}, "MaxRounds"},
		{Options{MaxRounds: math.MinInt}, "MaxRounds"},
		{Options{Epsilon: -1}, "Epsilon"},
		{Options{Epsilon: math.NaN()}, "Epsilon"},
		{Options{Epsilon: math.Inf(1)}, "Epsilon"},
	} {
		if _, err := New(prog, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%+v) = %v, want a refusal naming %s", c.opts, err, c.want)
		}
	}
	en, err := New(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := en.Solve(nil); err != nil {
		t.Fatalf("default options: %v", err)
	}
}

// TestDomainEscapeReported: deriving a cost outside the declared lattice
// (a negative sumreal) is an evaluation error, not a silent wrap.
func TestDomainEscapeReported(t *testing.T) {
	src := `
.cost q/2 : sumreal.
.cost p/2 : sumreal.
q(x, 1).
p(X, C) :- q(X, D), C = D - 5.
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, Options{SkipChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = en.Solve(nil)
	if err == nil || !strings.Contains(err.Error(), "outside lattice") {
		t.Fatalf("err = %v, want a domain-escape report", err)
	}
}

// TestPropositionalPredicates: zero-arity predicates flow through the
// whole pipeline.
func TestPropositionalPredicates(t *testing.T) {
	src := `
go.
p(a) :- go.
q :- p(X).
`
	db := solve(t, src, Options{})
	if !hasTuple(db, "q") || !hasTuple(db, "p", "a") {
		t.Fatalf("propositional flow broken:\n%s", db)
	}
}
