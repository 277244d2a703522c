package datalog

import (
	"math"
	"strings"
	"testing"

	"repro/internal/programs"
	"repro/internal/snapshot"
)

func TestQuickstartShortestPath(t *testing.T) {
	p, err := Load(programs.ShortestPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := p.Solve(
		NewFact("arc", Sym("a"), Sym("b"), Num(1)),
		NewFact("arc", Sym("b"), Sym("c"), Num(2)),
		NewFact("arc", Sym("a"), Sym("c"), Num(5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := m.Cost("s", Sym("a"), Sym("c"))
	if !ok {
		t.Fatal("s(a,c) missing")
	}
	if f, _ := c.Float(); f != 3 {
		t.Fatalf("s(a,c) = %v, want 3", c)
	}
	if stats.Rounds == 0 || stats.Firings == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !m.Has("s", Sym("a"), Sym("b")) || m.Has("s", Sym("c"), Sym("a")) {
		t.Fatal("Has is wrong")
	}
}

func TestFactsAndLen(t *testing.T) {
	p, err := Load(programs.CompanyControl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve(
		NewFact("s", Sym("a"), Sym("b"), Num(0.6)),
		NewFact("s", Sym("b"), Sym("c"), Num(0.6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has("c", Sym("a"), Sym("c")) {
		t.Fatal("a controls c through b")
	}
	rows := m.Facts("c")
	if len(rows) != m.Len("c") || len(rows) != 3 {
		t.Fatalf("c facts = %v", rows)
	}
	if !strings.Contains(m.String(), "c(a, b).") {
		t.Fatalf("model rendering:\n%s", m)
	}
}

func TestClassify(t *testing.T) {
	p, err := Load(programs.ShortestPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := p.Classify()
	if !cl.Admissible || cl.RMonotonic || cl.AggregateStratified || !cl.NegationStratified {
		t.Fatalf("classification = %+v", cl)
	}
	// A non-admissible program loads only with SkipChecks and reports why.
	if _, err := Load(programs.TwoMinimalModels, Options{}); err == nil {
		t.Fatal("two-minimal-models program must be rejected")
	}
	p, err = Load(programs.TwoMinimalModels, Options{SkipChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	cl = p.Classify()
	if cl.Admissible || cl.Reason == "" {
		t.Fatalf("classification = %+v", cl)
	}
}

func TestEpsilonHalfsum(t *testing.T) {
	p, err := Load(programs.Halfsum, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := m.Cost("p", Sym("a"))
	if !ok {
		t.Fatal("p(a) missing")
	}
	if f, _ := c.Float(); math.Abs(f-1) > 1e-6 {
		t.Fatalf("p(a) = %v, want ≈1", c)
	}
}

func TestSolveMoreFacade(t *testing.T) {
	p, err := Load(programs.ShortestPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := p.Solve(
		NewFact("arc", Sym("a"), Sym("b"), Num(4)),
		NewFact("arc", Sym("b"), Sym("c"), Num(4)),
	)
	if err != nil {
		t.Fatal(err)
	}
	inc, _, err := p.SolveMore(base, NewFact("arc", Sym("a"), Sym("c"), Num(1)))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := inc.Cost("s", Sym("a"), Sym("c"))
	if f, _ := c.Float(); f != 1 {
		t.Fatalf("incremental s(a,c) = %v, want 1", c)
	}
	// Original model intact.
	c, _ = base.Cost("s", Sym("a"), Sym("c"))
	if f, _ := c.Float(); f != 8 {
		t.Fatalf("base model mutated: s(a,c) = %v", c)
	}
	// Rejection path surfaces.
	pc, err := Load(programs.Circuit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m0, _, err := pc.Solve(NewFact("gate", Sym("g"), Sym("and")))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pc.SolveMore(m0, NewFact("connect", Sym("g"), Sym("w"))); err == nil {
		t.Fatal("pseudo-monotone aggregate input must be rejected")
	}
}

func TestExplainFacade(t *testing.T) {
	p, err := Load(programs.ShortestPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	arc := func(from, to string, c float64) Fact { return NewFact("arc", Sym(from), Sym(to), Num(c)) }
	m, _, err := p.Solve(arc("a", "b", 1), arc("b", "c", 2))
	if err != nil {
		t.Fatal(err)
	}
	rule, supports, ok := m.Explain("s", Sym("a"), Sym("c"))
	if !ok {
		t.Fatal("no explanation for s(a,c)")
	}
	if !strings.Contains(rule, "min") || len(supports) == 0 {
		t.Fatalf("rule = %q, supports = %v", rule, supports)
	}
	tree := m.ExplainTree("s", 4, Sym("a"), Sym("c"))
	for _, want := range []string{"s(a, c, 3)", "arc(a, b, 1)", "[fact]"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}

	// Provenance belongs to its model. Extending m must not change how m
	// explains s(a, c): m2 improves it to 2 through d, m keeps its 3.
	m2, _, err := p.SolveMore(m, arc("a", "d", 1), arc("d", "c", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.ExplainTree("s", 4, Sym("a"), Sym("c")); !strings.Contains(got, "s(a, c, 2)") || !strings.Contains(got, "path(a, d, c, 2)") {
		t.Fatalf("extended model explains s(a, c) as:\n%s", got)
	}
	if got := m.ExplainTree("s", 4, Sym("a"), Sym("c")); got != tree {
		t.Fatalf("after SolveMore the original model explains s(a, c) as:\n%s\nwant:\n%s", got, tree)
	}
	// An unrelated solve leaves m's explanations alone.
	if _, _, err := p.Solve(arc("x", "y", 1)); err != nil {
		t.Fatal(err)
	}
	if got := m.ExplainTree("s", 4, Sym("a"), Sym("c")); got != tree {
		t.Fatalf("after an unrelated Solve the original model explains s(a, c) as:\n%s\nwant:\n%s", got, tree)
	}
	// A restored model explains a derived tuple by its rule, not as a fact.
	restored, err := p.Restore(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r, _, ok := restored.Explain("s", Sym("a"), Sym("c")); !ok || r != rule {
		t.Fatalf("restored model explains s(a, c) by %q (ok=%v), want %q", r, ok, rule)
	}
	if got := restored.ExplainTree("s", 4, Sym("a"), Sym("c")); got != tree {
		t.Fatalf("restored model explains s(a, c) as:\n%s\nwant:\n%s", got, tree)
	}
}

func TestGameAggFallbackFacade(t *testing.T) {
	src := `
.cost wins/1 : countnat.
win(X)  :- move(X, Y), not win(Y).
wins(N) :- N = count : win(X).
`
	p, err := Load(src, Options{WFSFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve(NewFact("move", Sym("a"), Sym("b")))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has("win", Sym("a")) || m.Has("win", Sym("b")) {
		t.Fatal("game solved wrong")
	}
	n, _ := m.Cost("wins")
	if f, _ := n.Float(); f != 1 {
		t.Fatalf("wins = %v", n)
	}
}

func TestValueKinds(t *testing.T) {
	if s := SetOf(Sym("b"), Sym("a")).String(); s != "{a, b}" {
		t.Fatalf("set rendering = %q", s)
	}
	if v, ok := Bool(true).Truth(); !ok || !v {
		t.Fatal("Truth broken")
	}
	if _, ok := Sym("x").Float(); ok {
		t.Fatal("symbols have no Float")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Sym("a")) {
		t.Fatal("Equal broken")
	}
}

func TestBadFacts(t *testing.T) {
	p, err := Load(programs.ShortestPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Non-numeric cost on a minreal predicate.
	if _, _, err := p.Solve(NewFact("arc", Sym("a"), Sym("b"), Sym("w"))); err == nil {
		t.Fatal("symbolic cost must be rejected")
	}
}

func TestParseErrorSurface(t *testing.T) {
	if _, err := Load("p(X :- q(X).", Options{}); err == nil {
		t.Fatal("syntax errors must surface")
	}
}

func TestCircuitDefaults(t *testing.T) {
	p, err := Load(programs.Circuit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve(
		NewFact("input", Sym("w"), Num(1)),
		NewFact("gate", Sym("g"), Sym("or")),
		NewFact("connect", Sym("g"), Sym("w")),
		NewFact("gate", Sym("h"), Sym("and")),
		NewFact("connect", Sym("h"), Sym("w")),
		NewFact("connect", Sym("h"), Sym("u")), // u is an unset wire: default 0
	)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := m.Cost("t", Sym("g"))
	if b, _ := g.Truth(); !b {
		t.Fatal("t(g) must be true")
	}
	h, ok := m.Cost("t", Sym("h"))
	if !ok {
		t.Fatal("default-value predicates always answer")
	}
	if b, _ := h.Truth(); b {
		t.Fatal("t(h) must be false (AND over a default-false wire)")
	}
}

// TestFingerprintIsLazy: Load does not hash the program, and neither
// does a cold solve with no checkpoint sink; the first Fingerprint call
// does, once, and a model's snapshot carries the same hash.
func TestFingerprintIsLazy(t *testing.T) {
	p, err := Load(programs.ShortestPath+"arc(a, b, 1). arc(b, c, 2).", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if p.fp != ([32]byte{}) {
		t.Fatal("Load + Solve hashed the program")
	}
	fp := p.Fingerprint()
	if fp != snapshot.Fingerprint(p.prog) || p.fp != fp {
		t.Fatalf("Fingerprint = %x, want the hash of the program, %x", fp, snapshot.Fingerprint(p.prog))
	}
	s, err := snapshot.Decode(m.Snapshot(), p.en.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint != fp {
		t.Fatalf("snapshot fingerprint %x, want %x", s.Fingerprint, fp)
	}
}
