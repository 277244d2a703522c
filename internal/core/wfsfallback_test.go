package core

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/programs"
)

// winMoveAgg layers aggregation over recursion-through-negation: the
// bottom component (win) needs the well-founded fallback, the top
// component counts winning positions monotonically — §6.3's iterated
// construction end to end.
const winMoveAgg = `
.cost wins/1 : countnat.
win(X)  :- move(X, Y), not win(Y).
wins(N) :- N = count : win(X).
`

func TestWFSFallbackWinMove(t *testing.T) {
	src := winMoveAgg + `
move(a, b).
move(b, c).
move(d, e).
move(c, d).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Without the fallback the program is rejected (negation on CDB).
	if _, err := New(prog, Options{}); err == nil {
		t.Fatal("recursion through negation must be rejected without WFSFallback")
	}
	en, err := New(prog, Options{WFSFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	db, stats, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chain a->b->c->d->e: e lost, d won, c lost, b won, a lost.
	for winner, want := range map[string]bool{"a": false, "b": true, "c": false, "d": true, "e": false} {
		if hasTuple(db, "win", winner) != want {
			t.Errorf("win(%s) = %v, want %v", winner, !want, want)
		}
	}
	if n, ok := costOf(t, db, "wins"); !ok || n != 2 {
		t.Fatalf("wins = %v (%v), want 2", n, ok)
	}
	if stats.Components < 2 {
		t.Fatalf("expected at least two evaluated components, got %d", stats.Components)
	}
}

func TestWFSFallbackRejectsThreeValued(t *testing.T) {
	// A drawn cycle has an undefined win atom: §6.3's construction is
	// not defined, and the engine must say so rather than guess.
	src := winMoveAgg + `
move(a, b).
move(b, a).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, Options{WFSFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = en.Solve(nil)
	if err == nil || !strings.Contains(err.Error(), "two-valued") {
		t.Fatalf("err = %v, want a two-valuedness complaint", err)
	}
}

func TestWFSFallbackUsesLowerCosts(t *testing.T) {
	// The fallback component reads a cost predicate computed below it
	// (shortest paths feed a negation-recursive game: you may move along
	// arcs of cost ≤ 2).
	src := programs.ShortestPath + `
.cost wins/1 : countnat.
cheap(X, Y) :- s(X, Y, C), C <= 2.
win(X)      :- cheap(X, Y), not win(Y).
wins(N)     :- N = count : win(X).
arc(a, b, 1).
arc(b, c, 1).
arc(c, d, 9).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, Options{WFSFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// cheap edges: a->b (1), a->c (2), b->c (1); d has none.
	// c: no cheap moves -> lost. b: move to c -> won. a: moves to b
	// (won) and c (lost) -> won via c.
	if !hasTuple(db, "win", "a") || !hasTuple(db, "win", "b") || hasTuple(db, "win", "c") {
		t.Fatalf("game over cheap arcs solved wrong:\n%s", db)
	}
	if n, _ := costOf(t, db, "wins"); n != 2 {
		t.Fatalf("wins = %v, want 2", n)
	}
}

func TestWFSFallbackRejectsDefaultLDB(t *testing.T) {
	src := `
.cost t/2 : boolor.
.default t/2 = 0.
t(W, C) :- input2(W, C).
p(X) :- wire(X), t(X, 1), not p(X).
.cost input2/2 : boolor.
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, Options{WFSFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = en.Solve(nil)
	if err == nil || !strings.Contains(err.Error(), "default-value") {
		t.Fatalf("err = %v, want default-value rejection", err)
	}
}
