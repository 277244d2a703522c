package consistency

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func load(t *testing.T, src string) (*ast.Program, ast.Schemas) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ast.BuildSchemas(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

const spDecls = `
.cost arc/3 : minreal.
.cost path/4 : minreal.
.cost s/3 : minreal.
`

// TestExample23CostRespecting reproduces Example 2.3.
func TestExample23CostRespecting(t *testing.T) {
	// p(X, C) :- q(X, Y, C) is NOT cost-respecting: C depends on Y too.
	p, s := load(t, ".cost p/2 : sumreal.\n.cost q/3 : sumreal.\np(X, C) :- q(X, Y, C).")
	err := CostRespecting(p.Rules[0], s)
	if err == nil || !strings.Contains(err.Error(), "not cost-respecting") {
		t.Fatalf("err = %v", err)
	}
	// The path rule is cost-respecting via Armstrong's axioms.
	p, s = load(t, spDecls+`path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.`)
	if err := CostRespecting(p.Rules[0], s); err != nil {
		t.Fatalf("path rule must be cost-respecting: %v", err)
	}
	// The aggregate rule is cost-respecting: XY -> C by grouping.
	p, s = load(t, spDecls+`s(X, Y, C) :- C = min D : path(X, Z, Y, D).`)
	if err := CostRespecting(p.Rules[0], s); err != nil {
		t.Fatalf("min rule must be cost-respecting: %v", err)
	}
}

// TestExample25CompanyControlContainment reproduces the first half of
// Example 2.5: the cv rules admit a containment mapping after unification.
func TestExample25CompanyControlContainment(t *testing.T) {
	src := `
.cost s/3 : sumreal.
.cost cv/4 : sumreal.
.cost m/3 : sumreal.
cv(X, X, Y, M) :- s(X, Y, M).
cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
m(X, Y, N)     :- N ?= sum M : cv(X, Z, Y, M).
c(X, Y)        :- m(X, Y, N), N > 0.5.
`
	p, s := load(t, src)
	if err := ConflictFree(p, s); err != nil {
		t.Fatalf("company control must be conflict-free (Example 2.7): %v", err)
	}
}

// TestExample25ShortestPathIC reproduces the second half of Example 2.5:
// the path rules are conflict-free only thanks to the integrity constraint
// that 'direct' never appears as the first argument of arc.
func TestExample25ShortestPathIC(t *testing.T) {
	rules := `
path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).
`
	withIC := spDecls + ".ic :- arc(direct, Z, C).\n" + rules
	p, s := load(t, withIC)
	if err := ConflictFree(p, s); err != nil {
		t.Fatalf("with the IC the program is conflict-free: %v", err)
	}
	// Without the constraint the two path rules clash.
	p, s = load(t, spDecls+rules)
	err := ConflictFree(p, s)
	if err == nil || !strings.Contains(err.Error(), "conflicting costs") {
		t.Fatalf("err = %v, want a conflict", err)
	}
}

func TestNonUnifiableHeadsAreFine(t *testing.T) {
	src := `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
.cost r/2 : sumreal.
p(a, C) :- q(X, C), X = a.
p(b, C) :- r(X, C), X = b.
`
	p, s := load(t, src)
	if err := ConflictFree(p, s); err != nil {
		t.Fatalf("distinct head constants cannot conflict: %v", err)
	}
}

func TestConflictingAggregatesDetected(t *testing.T) {
	// The §2.4 example: min and max definitions of the same predicate.
	src := `
.cost p/2 : minreal.
.cost q/2 : minreal.
.cost r/2 : minreal.
p(X, C) :- C ?= min D : q(X, D).
p(X, C) :- C ?= min D : r(X, D).
`
	p, s := load(t, src)
	if err := ConflictFree(p, s); err == nil {
		t.Fatal("two aggregate definitions of p must be flagged")
	}
}

func TestIdenticalRulesContain(t *testing.T) {
	src := `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
p(X, C) :- q(X, C).
p(Y, D) :- q(Y, D).
`
	p, s := load(t, src)
	if err := ConflictFree(p, s); err != nil {
		t.Fatalf("alpha-equivalent rules trivially contain each other: %v", err)
	}
}

func TestContainmentMappingDirect(t *testing.T) {
	r1, _ := parser.ParseRule(`p(X, M) :- s(X, M).`)
	r2, _ := parser.ParseRule(`p(X, N) :- c(X), s(X, N).`)
	if !ContainmentMapping(r1, r2) {
		t.Fatal("r1 maps into r2 (M -> N)")
	}
	if ContainmentMapping(r2, r1) {
		t.Fatal("r2 has a subgoal c(X) with no image in r1")
	}
}

func TestContainmentRespectsConstants(t *testing.T) {
	r1, _ := parser.ParseRule(`p(X) :- q(X, a).`)
	r2, _ := parser.ParseRule(`p(X) :- q(X, b).`)
	if ContainmentMapping(r1, r2) {
		t.Fatal("distinct constants cannot match")
	}
	r3, _ := parser.ParseRule(`p(X) :- q(X, Y).`)
	if !ContainmentMapping(r3, r1) {
		t.Fatal("variable maps to constant")
	}
	if ContainmentMapping(r1, r3) {
		t.Fatal("constant cannot map to variable")
	}
}

func TestContainmentWithAggregates(t *testing.T) {
	r1, _ := parser.ParseRule(`s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).`)
	r2, _ := parser.ParseRule(`s(X, Y, C) :- C ?= min E : path(X, W, Y, E).`)
	if !ContainmentMapping(r1, r2) {
		t.Fatal("alpha-equivalent aggregate rules must contain")
	}
	r3, _ := parser.ParseRule(`s(X, Y, C) :- C ?= max D : path(X, Z, Y, D).`)
	if ContainmentMapping(r1, r3) {
		t.Fatal("different aggregate functions cannot match")
	}
}

func TestRepeatedVariableNeedsConsistentMapping(t *testing.T) {
	r1, _ := parser.ParseRule(`p(X) :- q(X, X).`)
	r2, _ := parser.ParseRule(`p(Y) :- q(Y, Z).`)
	if ContainmentMapping(r1, r2) {
		t.Fatal("X cannot map to both Y and Z")
	}
	if !ContainmentMapping(r2, r1) {
		t.Fatal("Y, Z can both map to X")
	}
}

func TestCostRespectingWithEqualityChain(t *testing.T) {
	src := ".cost p/2 : sumreal.\n.cost q/2 : sumreal.\n" +
		`p(X, C) :- q(X, D), E = D * 2, C = E + 1.`
	p, s := load(t, src)
	if err := CostRespecting(p.Rules[0], s); err != nil {
		t.Fatalf("FD chain through equalities must work: %v", err)
	}
}

func TestSameRuleHeadsBothCostFree(t *testing.T) {
	// Rules without cost arguments never conflict.
	src := `
c(X, Y) :- a(X, Y).
c(X, Y) :- b(X, Y).
`
	p, s := load(t, src)
	if err := ConflictFree(p, s); err != nil {
		t.Fatalf("cost-free heads cannot conflict: %v", err)
	}
}

// TestFactsAndTheRulePairLoop: facts of a predicate no rule defines are
// settled by the hash pass alone, while facts of a predicate that also
// heads a rule are still held against that rule (Definition 2.10), in
// the order the plain double loop would report.
func TestFactsAndTheRulePairLoop(t *testing.T) {
	// Two costs for one tuple of a facts-only predicate.
	p, s := load(t, spDecls+"arc(a, b, 1). arc(b, c, 2). arc(a, b, 3).")
	err := ConflictFree(p, s)
	if err == nil || !strings.Contains(err.Error(), `facts "arc(a, b, 1)." and "arc(a, b, 3)." assign different costs`) {
		t.Fatalf("err = %v, want the fact conflict", err)
	}
	// The same tuple twice with one cost is no conflict.
	p, s = load(t, spDecls+"arc(a, b, 1). arc(b, c, 2). arc(a, b, 1).")
	if err := ConflictFree(p, s); err != nil {
		t.Fatal(err)
	}
	// A fact against a rule for the same predicate: no containment
	// mapping, no constraint — reported whichever comes first in the text.
	for _, src := range []string{
		spDecls + "s(a, b, 7).\ns(X, Y, C) :- C ?= min D : path(X, Z, Y, D).",
		spDecls + "s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).\ns(a, b, 7).",
	} {
		p, s = load(t, src)
		err = ConflictFree(p, s)
		if err == nil || !strings.Contains(err.Error(), "may generate conflicting costs for s/3") {
			t.Fatalf("err = %v, want the rule/fact conflict on s/3", err)
		}
	}
	// With several conflicts the first pair in program order is named.
	p, s = load(t, ".cost p/2 : sumreal.\n.cost q/2 : sumreal.\n"+
		"p(X, C) :- q(X, C).\np(a, 1).\np(X, C) :- q(X, D), C = D + 1.")
	err = ConflictFree(p, s)
	if err == nil || !strings.Contains(err.Error(), `rules "p(X, C) :- q(X, C)." and "p(a, 1)."`) {
		t.Fatalf("err = %v, want the first pair in program order", err)
	}
}

// TestFactIdentityIsWords: two ground facts conflict only when they give
// one tuple two costs. Tuples are told apart by their values, not by
// display keys, which a string holding a NUL byte can make coincide.
func TestFactIdentityIsWords(t *testing.T) {
	p, s := load(t, ".cost p/3 : minreal.\n"+`p("a\x00q:b", "c", 1). p("a", "b\x00q:c", 2).`)
	if err := ConflictFree(p, s); err != nil {
		t.Fatalf("distinct tuples reported as a conflict: %v", err)
	}
	p, s = load(t, ".cost p/3 : minreal.\n"+`p("a", "b", 1). p("a", "b", 2).`)
	if err := ConflictFree(p, s); err == nil {
		t.Fatal("one tuple with two costs must conflict")
	}
}
