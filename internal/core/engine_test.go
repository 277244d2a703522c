package core

import (
	"math"
	"testing"

	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

func mustEngine(t *testing.T, src string, opts Options) *Engine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func solve(t *testing.T, src string, opts Options) *relation.DB {
	t.Helper()
	en := mustEngine(t, src, opts)
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func costOf(t *testing.T, db *relation.DB, pred string, args ...string) (float64, bool) {
	t.Helper()
	vs := make([]val.T, len(args))
	for i, a := range args {
		vs[i] = val.Symbol(a)
	}
	for _, k := range db.Preds() {
		if k.Name() == pred {
			row, ok := db.Rel(k).Get(vs)
			if !ok {
				return 0, false
			}
			return row.Cost.Num(), true
		}
	}
	return 0, false
}

func hasTuple(db *relation.DB, pred string, args ...string) bool {
	vs := make([]val.T, len(args))
	for i, a := range args {
		vs[i] = val.Symbol(a)
	}
	for _, k := range db.Preds() {
		if k.Name() == pred {
			_, ok := db.Rel(k).Get(vs)
			return ok
		}
	}
	return false
}

// TestExample31LeastModel reproduces Example 3.1: on the cyclic graph
// {arc(a,b,1), arc(b,b,0)} the unique minimal model M1 has s(a,b,1) and
// s(b,b,0) — not the non-minimal M2 with cost 0 for s(a,b).
func TestExample31LeastModel(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		src := programs.ShortestPath + "arc(a, b, 1).\narc(b, b, 0).\n"
		db := solve(t, src, Options{Strategy: strat})
		if c, ok := costOf(t, db, "s", "a", "b"); !ok || c != 1 {
			t.Errorf("strategy %v: s(a,b) = %v, %v; want 1 (M1)", strat, c, ok)
		}
		if c, ok := costOf(t, db, "s", "b", "b"); !ok || c != 0 {
			t.Errorf("strategy %v: s(b,b) = %v, %v; want 0", strat, c, ok)
		}
		if c, ok := costOf(t, db, "path", "a", "b", "b"); !ok || c != 1 {
			t.Errorf("strategy %v: path(a,b,b) = %v, %v; want 1", strat, c, ok)
		}
	}
}

// TestExample31ModelChecking: both M1 and M2 of Example 3.1 are models;
// M1 ⊑ M2; the engine's answer equals M1 and is ⊑ every model.
func TestExample31ModelChecking(t *testing.T) {
	src := programs.ShortestPath + "arc(a, b, 1).\narc(b, b, 0).\n"
	en := mustEngine(t, src, Options{})
	m1, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := en.IsModel(m1); err != nil || !ok {
		t.Fatalf("least fixpoint must be a model (Proposition 3.4): %v %v", ok, err)
	}
	// Build M2 by improving s(a,b) and path(a,b,b) to 0.
	m2 := m1.Clone()
	m2.AddFact("s", []val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(0))
	m2.AddFact("path", []val.T{val.Symbol("a"), val.Symbol("b"), val.Symbol("b")}, val.Number(0))
	if ok, err := en.IsModel(m2); err != nil || !ok {
		t.Fatalf("M2 is a model too (Example 3.1): %v %v", ok, err)
	}
	if !m1.Leq(m2, nil) {
		t.Fatal("M1 ⊑ M2 (Example 3.1)")
	}
	if m2.Leq(m1, nil) {
		t.Fatal("M2 ⋢ M1")
	}
}

// TestPreModelNotModel reproduces the example after Definition 3.5:
// {p(a,3), q(a,2)} is a pre-model of "p(X,C) :- q(X,C)" (2 ⊑ 3) but not
// a model.
func TestPreModelNotModel(t *testing.T) {
	src := `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
q(a, 2).
p(X, C) :- q(X, C).
`
	en := mustEngine(t, src, Options{})
	pm := relation.NewDB(en.Schemas)
	pm.AddFact("q", []val.T{val.Symbol("a")}, val.Number(2))
	pm.AddFact("p", []val.T{val.Symbol("a")}, val.Number(3))
	if ok, err := en.IsPreModel(pm); err != nil || !ok {
		t.Fatalf("pre-model check = %v, %v; want true", ok, err)
	}
	if ok, _ := en.IsModel(pm); ok {
		t.Fatal("{p(a,3), q(a,2)} is not a model (the paper's example)")
	}
	m, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Leq(pm, nil) {
		t.Fatal("the least model is ⊑ every pre-model (Proposition 3.3)")
	}
}

// TestShortestPathDiamond checks a multi-path graph: the cheaper route
// wins and path records first intermediate hops.
func TestShortestPathDiamond(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(a, c, 4).
arc(b, d, 2).
arc(c, d, 1).
arc(a, d, 9).
`
	db := solve(t, src, Options{})
	if c, _ := costOf(t, db, "s", "a", "d"); c != 3 {
		t.Fatalf("s(a,d) = %v, want 3 (a->b->d)", c)
	}
	if c, _ := costOf(t, db, "s", "a", "c"); c != 4 {
		t.Fatalf("s(a,c) = %v, want 4", c)
	}
}

// TestShortestPathPositiveCycle: positive-weight cycles terminate thanks
// to the cost FD (only finitely many (X,Z,Y) triples, each improving
// monotonically).
func TestShortestPathPositiveCycle(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 1).
arc(c, a, 1).
arc(c, d, 1).
`
	db := solve(t, src, Options{})
	if c, _ := costOf(t, db, "s", "a", "d"); c != 3 {
		t.Fatalf("s(a,d) = %v, want 3", c)
	}
	if c, _ := costOf(t, db, "s", "a", "a"); c != 3 {
		t.Fatalf("s(a,a) = %v, want 3 (around the cycle)", c)
	}
}

// TestShortestPathNegativeWeightsDAG: §5.4 — our semantics covers
// negative weights (on acyclic graphs), where cost-monotonic rewriting
// does not apply.
func TestShortestPathNegativeWeightsDAG(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 5).
arc(b, c, -3).
arc(a, c, 4).
`
	db := solve(t, src, Options{})
	if c, _ := costOf(t, db, "s", "a", "c"); c != 2 {
		t.Fatalf("s(a,c) = %v, want 2 (5 - 3)", c)
	}
}

// TestCompanyControlChain: a controls b directly; a+b's shares control c.
func TestCompanyControlChain(t *testing.T) {
	src := programs.CompanyControl + `
s(a, b, 0.6).
s(a, c, 0.3).
s(b, c, 0.3).
`
	for _, strat := range []Strategy{SemiNaive, Naive} {
		db := solve(t, src, Options{Strategy: strat})
		if !hasTuple(db, "c", "a", "b") {
			t.Fatalf("strategy %v: a controls b directly", strat)
		}
		if !hasTuple(db, "c", "a", "c") {
			t.Fatalf("strategy %v: a controls c through b (0.3 + 0.3)", strat)
		}
		if n, _ := costOf(t, db, "m", "a", "c"); n != 0.6 {
			t.Fatalf("strategy %v: m(a,c) = %v, want 0.6", strat, n)
		}
		if hasTuple(db, "c", "b", "c") {
			t.Fatalf("strategy %v: b alone does not control c", strat)
		}
	}
}

// TestCompanyControlVanGelderEDB reproduces §5.6's discriminating EDB:
// for us c(a,b) and c(a,c) are (definitely) false, while Van Gelder's
// translation leaves them undefined.
func TestCompanyControlVanGelderEDB(t *testing.T) {
	src := programs.CompanyControl + `
s(a, b, 0.3).
s(a, c, 0.3).
s(b, c, 0.6).
s(c, b, 0.6).
`
	db := solve(t, src, Options{})
	if hasTuple(db, "c", "a", "b") || hasTuple(db, "c", "a", "c") {
		t.Fatal("c(a,b) and c(a,c) must be false in the least model (§5.6)")
	}
	// b and c each directly own 0.6 of the other, so they control each
	// other (and hence, transitively, themselves).
	if !hasTuple(db, "c", "b", "c") || !hasTuple(db, "c", "c", "b") {
		t.Fatal("direct 0.6 ownership is control")
	}
	if n, _ := costOf(t, db, "m", "a", "b"); n != 0.3 {
		t.Fatalf("m(a,b) = %v, want 0.3", n)
	}
}

// TestExample43Party: guests with requirement 0 bootstrap attendance;
// cyclic knows relations are fine (the program is monotonic though not
// modularly stratified).
func TestExample43Party(t *testing.T) {
	src := programs.Party + `
requires(ann, 0).
requires(bob, 1).
requires(cal, 2).
requires(dee, 1).
knows(bob, ann).
knows(cal, ann).
knows(cal, bob).
knows(dee, cal).
knows(ann, dee).
`
	db := solve(t, src, Options{})
	for _, g := range []string{"ann", "bob", "cal", "dee"} {
		if !hasTuple(db, "coming", g) {
			t.Errorf("%s should come", g)
		}
	}
}

func TestPartyCycleNobodyComes(t *testing.T) {
	// A pure cycle of mutual requirements: the least model has nobody
	// coming (no group can bootstrap without proof of commitment — the
	// paper's "we do not allow groups of friends to decide collectively").
	src := programs.Party + `
requires(x, 1).
requires(y, 1).
knows(x, y).
knows(y, x).
`
	db := solve(t, src, Options{})
	if hasTuple(db, "coming", "x") || hasTuple(db, "coming", "y") {
		t.Fatal("in the least model the mutual-requirement cycle stays home")
	}
}

// TestExample44Circuit: a cyclic circuit evaluated with default values
// and the pseudo-monotonic AND.
func TestExample44Circuit(t *testing.T) {
	src := programs.Circuit + `
input(w1, 1).
input(w2, 0).
gate(g1, and).
connect(g1, w1).
connect(g1, w2).
gate(g2, or).
connect(g2, w1).
connect(g2, g1).
`
	db := solve(t, src, Options{})
	wantBool := func(w string, want bool) {
		t.Helper()
		vs := []val.T{val.Symbol(w)}
		row, ok := db.Rel("t/2").GetOrDefault(vs)
		if !ok || row.Cost.Bool() != want {
			t.Errorf("t(%s) = %v (present %v), want %v", w, row.Cost, ok, want)
		}
	}
	wantBool("w1", true)
	wantBool("w2", false)
	wantBool("g1", false) // AND(1, 0)
	wantBool("g2", true)  // OR(1, 0)
}

func TestCircuitCyclicMinimality(t *testing.T) {
	// A single AND gate feeding itself: the minimal behaviour leaves the
	// output false (the paper's explicit discussion in Example 4.4).
	src := programs.Circuit + `
gate(g, and).
connect(g, g).
`
	db := solve(t, src, Options{})
	row, ok := db.Rel("t/2").GetOrDefault([]val.T{val.Symbol("g")})
	if !ok || row.Cost.Bool() {
		t.Fatalf("t(g) = %v, want false (minimal circuit behaviour)", row.Cost)
	}
	// An OR-gate latch with a true input stays latched... via the cycle.
	src2 := programs.Circuit + `
input(w, 1).
gate(g, or).
connect(g, w).
connect(g, g).
`
	db2 := solve(t, src2, Options{})
	row, _ = db2.Rel("t/2").GetOrDefault([]val.T{val.Symbol("g")})
	if !row.Cost.Bool() {
		t.Fatal("OR latch with a true input must be true")
	}
}

// TestExample51HalfsumLimit: the least model is {p(a,1), p(b,1)} but it
// is reached only at ω; with Epsilon the fixpoint converges to within eps.
func TestExample51HalfsumLimit(t *testing.T) {
	src := `
.cost p/2 : sumreal.
p(b, 1).
p(a, C) :- C ?= halfsum D : p(X, D).
`
	for _, strat := range []Strategy{SemiNaive, Naive} {
		en := mustEngine(t, src, Options{Strategy: strat, Epsilon: 1e-9})
		db, stats, err := en.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := costOf(t, db, "p", "a")
		if !ok || math.Abs(c-1) > 1e-6 {
			t.Fatalf("strategy %v: p(a) = %v, want ≈ 1 (Example 5.1)", strat, c)
		}
		if stats.Rounds < 10 {
			t.Fatalf("strategy %v: the ω-chain should take many rounds, got %d", strat, stats.Rounds)
		}
	}
	// Without Epsilon and with a small round bound, the engine must
	// report non-convergence rather than a wrong answer.
	en := mustEngine(t, src, Options{MaxRounds: 50})
	if _, _, err := en.Solve(nil); err == nil {
		t.Fatal("expected a non-convergence error for the ω-limit program")
	}
}

// TestExample21Averages reproduces the grouped-average rules of Example
// 2.1, including the weighting difference between all-avg variants.
func TestExample21Averages(t *testing.T) {
	src := `
.cost record/3 : sumreal.
.cost s_avg/2 : sumreal.
.cost c_avg/2 : sumreal.
.cost all_avg/1 : sumreal.
.cost all_avg2/1 : sumreal.
.cost class_count/2 : countnat.
.cost alt_class_count/2 : countnat.
record(john, math, 80).
record(john, physics, 60).
record(mary, math, 90).
s_avg(S, G) :- G ?= avg G2 : record(S, C, G2).
c_avg(C, G) :- G ?= avg G2 : record(S, C, G2).
all_avg(G) :- G ?= avg G2 : c_avg(S, G2).
all_avg2(G) :- G ?= avg G2 : record(S, C, G2).
class_count(C, N) :- N ?= count : record(S, C, G).
alt_class_count(C, N) :- courses(C), N = count : record(S, C, G).
courses(math).
courses(physics).
courses(art).
`
	db := solve(t, src, Options{})
	if g, _ := costOf(t, db, "s_avg", "john"); g != 70 {
		t.Errorf("s_avg(john) = %v, want 70", g)
	}
	if g, _ := costOf(t, db, "c_avg", "math"); g != 85 {
		t.Errorf("c_avg(math) = %v, want 85", g)
	}
	// all_avg averages class averages: (85 + 60) / 2 = 72.5;
	// all_avg2 averages raw records: (80+60+90)/3 ≈ 76.67.
	if g, _ := costOf(t, db, "all_avg"); g != 72.5 {
		t.Errorf("all_avg = %v, want 72.5", g)
	}
	if g, _ := costOf(t, db, "all_avg2"); math.Abs(g-230.0/3) > 1e-9 {
		t.Errorf("all_avg2 = %v, want %v", g, 230.0/3)
	}
	if n, _ := costOf(t, db, "class_count", "math"); n != 2 {
		t.Errorf("class_count(math) = %v, want 2", n)
	}
	// The "=" variant counts empty classes as 0.
	if n, ok := costOf(t, db, "alt_class_count", "art"); !ok || n != 0 {
		t.Errorf("alt_class_count(art) = %v (%v), want 0", n, ok)
	}
	// The "?=" variant has no row for the empty class.
	if hasTuple(db, "class_count", "art") {
		t.Error("class_count(art) must be absent (empty group under ?=)")
	}
}

// TestNaiveEqualsSemiNaive: the two strategies agree on all the paper's
// programs (E12 soundness).
func TestNaiveEqualsSemiNaive(t *testing.T) {
	srcs := []string{
		programs.ShortestPath + "arc(a,b,1).\narc(b,b,0).\narc(b,c,2).\narc(c,a,1).\n",
		programs.CompanyControl + "s(a,b,0.6).\ns(b,c,0.4).\ns(a,c,0.2).\n",
		programs.Party + "requires(p,0).\nrequires(q,1).\nknows(q,p).\nknows(p,q).\n",
		programs.Circuit + "input(w,1).\ngate(g,or).\nconnect(g,w).\nconnect(g,g).\n",
	}
	for _, src := range srcs {
		a := solve(t, src, Options{Strategy: SemiNaive})
		b := solve(t, src, Options{Strategy: Naive})
		if !a.Equal(b, nil) {
			t.Errorf("strategies disagree on\n%s\nsemi-naive:\n%s\nnaive:\n%s", src, a, b)
		}
	}
}

// TestNonAdmissibleRejected: New refuses the §3 two-minimal-model program
// unless checks are skipped.
func TestNonAdmissibleRejected(t *testing.T) {
	src := `
p(b).
q(b).
p(a) :- N ?= count : q(X), N = 1.
q(a) :- N ?= count : p(X), N = 1.
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, Options{}); err == nil {
		t.Fatal("the §3 example must be rejected")
	}
	if _, err := New(prog, Options{SkipChecks: true}); err != nil {
		t.Fatalf("SkipChecks must allow compilation: %v", err)
	}
}

// TestNegationOnLowerComponent: stratified negation over LDB works within
// the iterated construction (§6.3).
func TestNegationOnLowerComponent(t *testing.T) {
	src := `
e(a, b).
e(b, c).
r(X, Y) :- e(X, Y).
r(X, Y) :- e(X, Z), r(Z, Y).
unreach(X, Y) :- node(X), node(Y), not r(X, Y).
node(a). node(b). node(c).
`
	db := solve(t, src, Options{})
	if !hasTuple(db, "unreach", "c", "a") {
		t.Fatal("c cannot reach a")
	}
	if hasTuple(db, "unreach", "a", "c") {
		t.Fatal("a reaches c")
	}
}

// TestEDBViaSolveArgument: facts supplied through the Solve argument
// instead of program text.
func TestEDBViaSolveArgument(t *testing.T) {
	en := mustEngine(t, programs.ShortestPath, Options{})
	edb := relation.NewDB(en.Schemas)
	edb.AddFact("arc", []val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(2))
	edb.AddFact("arc", []val.T{val.Symbol("b"), val.Symbol("c")}, val.Number(3))
	db, _, err := en.Solve(edb)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := costOf(t, db, "s", "a", "c"); c != 5 {
		t.Fatalf("s(a,c) = %v, want 5", c)
	}
}

// TestStats sanity: semi-naive does strictly less firing than naive on a
// chain where naive recomputes everything per round.
func TestSemiNaiveDoesLessWork(t *testing.T) {
	src := programs.ShortestPath
	for i := 0; i < 30; i++ {
		src += "arc(n" + itoa(i) + ", n" + itoa(i+1) + ", 1).\n"
	}
	enS := mustEngine(t, src, Options{Strategy: SemiNaive})
	_, sStats, err := enS.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	enN := mustEngine(t, src, Options{Strategy: Naive})
	_, nStats, err := enN.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.Firings >= nStats.Firings {
		t.Fatalf("semi-naive (%d firings) should beat naive (%d)", sStats.Firings, nStats.Firings)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
