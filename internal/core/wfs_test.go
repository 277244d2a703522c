package core_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/programs"
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
		case float64:
			out[i] = val.Number(a)
		}
	}
	return out
}

// TestAcyclicShortestPathTwoValued: on an acyclic graph the program is
// modularly stratified and the Kemp–Stuckey well-founded model is
// two-valued and agrees with the monotonic least model (Proposition 6.1).
func TestAcyclicShortestPathTwoValued(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(a, c, 5).
`
	prog := mustParse(t, src)
	res, err := core.SolveWFS(prog, core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TwoValued() {
		t.Fatalf("acyclic WFS must be two-valued; %d undefined", res.UndefinedCount())
	}
	if res.Status("s/3", nums("a", "c", 3)) != core.True {
		t.Fatal("s(a,c,3) must be true")
	}
	if res.Status("s/3", nums("a", "c", 5)) != core.False {
		t.Fatal("s(a,c,5) must be false")
	}
	// Agreement with the core engine (Proposition 6.1).
	en, err := core.New(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !core.FlattenCosts(m).Equal(res.True, nil) {
		t.Fatalf("WFS and minimal model disagree on the acyclic graph:\nWFS true:\n%v\nmodel:\n%v", res.True.Preds(), m)
	}
}

// TestCyclicShortestPathUndefined reproduces §5.3: on Example 3.1's
// cyclic graph the well-founded model leaves the s atoms (and the cyclic
// path atom) undefined, while the monotonic semantics picks M1.
func TestCyclicShortestPathUndefined(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, b, 0).
`
	res, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TwoValued() {
		t.Fatal("the cyclic graph must leave atoms undefined (§5.3)")
	}
	if got := res.Status("s/3", nums("a", "b", 1)); got != core.Undefined {
		t.Fatalf("s(a,b,1) = %v, want undefined", got)
	}
	if got := res.Status("path/4", nums("a", "b", "b", 1)); got != core.Undefined {
		t.Fatalf("path(a,b,b,1) = %v, want undefined", got)
	}
	// The non-recursive facts stay true.
	if got := res.Status("path/4", nums("a", "direct", "b", 1)); got != core.True {
		t.Fatalf("path(a,direct,b,1) = %v, want true", got)
	}
	if got := res.Status("arc/3", nums("a", "b", 1)); got != core.True {
		t.Fatalf("arc(a,b,1) = %v, want true", got)
	}
}

// TestPartyWFS: with an acyclic knows relation WFS matches the monotonic
// model; with a cycle the well-founded model goes undefined where the
// monotonic model is total (Example 4.3's point: the program is
// monotonic but modularly stratified only for acyclic knows).
func TestPartyWFS(t *testing.T) {
	acyclic := programs.Party + `
requires(a, 0).
requires(b, 1).
knows(b, a).
`
	res, err := core.SolveWFS(mustParse(t, acyclic), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TwoValued() {
		t.Fatalf("acyclic party must be two-valued; %d undefined", res.UndefinedCount())
	}
	if res.Status("coming/1", nums("b")) != core.True {
		t.Fatal("b comes (knows a, who needs nobody)")
	}

	cyclic := programs.Party + `
requires(x, 1).
requires(y, 1).
knows(x, y).
knows(y, x).
`
	res, err = core.SolveWFS(mustParse(t, cyclic), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TwoValued() {
		t.Fatal("the knows-cycle must leave attendance undefined under WFS")
	}
	if got := res.Status("coming/1", nums("x")); got != core.Undefined {
		t.Fatalf("coming(x) = %v, want undefined (monotonic semantics says false)", got)
	}
}

// TestCompanyControlWFS: on §5.6's EDB c(a,b) and c(a,c) are not true —
// Kemp–Stuckey's well-founded construction makes the unsupported control
// cycle false (the paper's contrast there is against Van Gelder's
// semantics, which would leave them undefined; we document rather than
// implement his translation, DESIGN.md §4).
func TestCompanyControlWFS(t *testing.T) {
	src := programs.CompanyControl + `
s(a, b, 0.3).
s(a, c, 0.3).
s(b, c, 0.6).
s(c, b, 0.6).
`
	res, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status("c/2", nums("a", "b")); got == core.True {
		t.Fatal("c(a,b) must not be true")
	}
	if got := res.Status("c/2", nums("a", "c")); got == core.True {
		t.Fatal("c(a,c) must not be true")
	}
	// Direct 0.6 ownership is definite control.
	if got := res.Status("c/2", nums("b", "c")); got != core.True {
		t.Fatalf("c(b,c) = %v, want true", got)
	}
}

// TestNormalWinMove: the classic win-move game checks the plain
// (aggregate-free) alternating fixpoint.
func TestNormalWinMove(t *testing.T) {
	src := `
move(a, b).
move(b, a).
move(b, c).
move(d, e).
win(X) :- move(X, Y), not win(Y).
`
	res, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// c has no moves: lost; b can move to c: won; a moves only to b: lost;
	// d moves to e (lost): won... e has no moves: lost, so win(d) true.
	if got := res.Status("win/1", nums("b")); got != core.True {
		t.Fatalf("win(b) = %v, want true", got)
	}
	if got := res.Status("win/1", nums("a")); got != core.False {
		t.Fatalf("win(a) = %v, want false", got)
	}
	if got := res.Status("win/1", nums("d")); got != core.True {
		t.Fatalf("win(d) = %v, want true", got)
	}
	if got := res.Status("win/1", nums("c")); got != core.False {
		t.Fatalf("win(c) = %v, want false", got)
	}
}

func TestNormalWinMoveDraw(t *testing.T) {
	// A 2-cycle with no exit is a draw: undefined.
	src := `
move(a, b).
move(b, a).
win(X) :- move(X, Y), not win(Y).
`
	res, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status("win/1", nums("a")); got != core.Undefined {
		t.Fatalf("win(a) = %v, want undefined (draw)", got)
	}
	if got := res.Status("win/1", nums("b")); got != core.Undefined {
		t.Fatalf("win(b) = %v, want undefined (draw)", got)
	}
}

// TestPositiveSelfLoopPartial: a positive self-loop stays finite under
// the aggregate semantics (the achievable-minimum pruning caps candidate
// costs at the definite direct-path cost) and leaves the cyclic atoms
// undefined.
func TestPositiveSelfLoopPartial(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, a, 1).
`
	res, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{MaxAtoms: 5000, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status("s/3", nums("a", "a", 1)); got != core.Undefined {
		t.Fatalf("s(a,a,1) = %v, want undefined", got)
	}
	if got := res.Status("s/3", nums("a", "a", 2)); got != core.False {
		t.Fatalf("s(a,a,2) = %v, want false (the direct arc always caps the minimum)", got)
	}
}

// TestStoreIdentityIsWords: atoms are told apart by their arguments'
// words, not by their display key, which joins the argument keys with a
// NUL byte — so strings holding a NUL cannot make two tuples one atom.
func TestStoreIdentityIsWords(t *testing.T) {
	const src = `p("a\x00q:b", "c"). p("a", "b\x00q:c"). q(X, Y) :- p(X, Y).`
	res, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.CountAtoms(res.True); got != 4 {
		t.Fatalf("%d true atoms, want 4", got)
	}
	var got []string
	for _, row := range res.True.Rel("q/2").Rows() {
		args := row.Args
		got = append(got, args[0].String()+","+args[1].String())
	}
	if want := []string{`"a","b\x00q:c"`, `"a\x00q:b","c"`}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("q = %q, want %q", got, want)
	}
}
