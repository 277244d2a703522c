package safety

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/programs"
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

const paperDecls = `
.cost record/3 : sumreal.
.cost t/2 : boolor.
.cost input/2 : boolor.
.default t/2 = 0.
.cost path/4 : minreal.
.cost arc/3 : minreal.
.cost s/3 : minreal.
`

// TestExample22RangeRestricted reproduces Example 2.2: the first three
// rules are range-restricted, the last three are not.
func TestExample22RangeRestricted(t *testing.T) {
	good := []string{
		`alt_class_count(C, N) :- record(X, C, Y), N = count : record(S, C, G).`,
		`t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].`,
		`s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).`,
	}
	bad := []string{
		// Grouping variable C of a "=" aggregate is not limited.
		`alt_class_count(C, N) :- N = count : record(S, C, G).`,
		// X is a local variable in a non-cost argument with no limiting
		// occurrence (uses a 3-ary default predicate).
		`t3(G, C) :- gate(G, and), C = and D : [connect(G, W), t3b(W, X, D)].`,
		// Grouping variables of a "=" (total) min aggregate are unlimited.
		`s(X, Y, C) :- C = min D : path(X, Z, Y, D).`,
	}
	decls := paperDecls + `
.cost t3/3 : boolor.
.cost t3b/3 : boolor.
.default t3b/3 = 0.
.cost alt_class_count/2 : countnat.
`
	for _, src := range good {
		p, s := load(t, decls+src)
		if err := CheckProgram(p, s); err != nil {
			t.Errorf("%s: unexpected error %v", src, err)
		}
	}
	for _, src := range bad {
		p, s := load(t, decls+src)
		if err := CheckProgram(p, s); err == nil {
			t.Errorf("%s: expected range-restriction error", src)
		}
	}
}

func TestHeadVariablesMustBeLimited(t *testing.T) {
	p, s := load(t, `p(X, Y) :- q(X).`)
	err := CheckProgram(p, s)
	if err == nil || !strings.Contains(err.Error(), "head variable Y") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegatedSubgoalsNeedLimitedVars(t *testing.T) {
	p, s := load(t, `p(X) :- q(X), not r(X, Y).`)
	if err := CheckProgram(p, s); err == nil {
		t.Fatal("unlimited Y in negation must be rejected")
	}
	p, s = load(t, `p(X) :- q(X), r2(X, Y), not r(X, Y).`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("limited negation rejected: %v", err)
	}
}

func TestNegatedCostNeedsQuasiLimited(t *testing.T) {
	decls := ".cost q/2 : sumreal.\n.cost r/2 : sumreal.\n"
	p, s := load(t, decls+`p(X) :- q(X, C), not r(X, C).`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("quasi-limited cost in negation rejected: %v", err)
	}
	p, s = load(t, decls+`p(X) :- q2(X), not r(X, C).`)
	if err := CheckProgram(p, s); err == nil {
		t.Fatal("unbound cost variable in negation must be rejected")
	}
}

func TestBuiltinVariablesMustBeBound(t *testing.T) {
	p, s := load(t, `p(X) :- q(X), Y > 3.`)
	if err := CheckProgram(p, s); err == nil {
		t.Fatal("floating builtin variable must be rejected")
	}
	p, s = load(t, ".cost p/2 : sumreal.\n.cost q/2 : sumreal.\n"+`p(X, C) :- q(X, A), C = A + 1.`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("bound builtin rejected: %v", err)
	}
	// Without a cost declaration, C sits in an ordinary head position and
	// quasi-limitedness does not suffice (Definition 2.5).
	p, s = load(t, ".cost q/2 : sumreal.\n"+`p(X, C) :- q(X, A), C = A + 1.`)
	if err := CheckProgram(p, s); err == nil {
		t.Fatal("quasi-limited variable in ordinary head position must be rejected")
	}
}

func TestEqualityChainsLimit(t *testing.T) {
	p, s := load(t, `p(Y) :- q(X), Y = X.`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("V = Y chain rejected: %v", err)
	}
	p, s = load(t, `p(Y) :- q(X), Y = a.`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("V = constant rejected: %v", err)
	}
}

func TestHeadCostQuasiLimited(t *testing.T) {
	decls := ".cost p/2 : sumreal.\n.cost q/2 : sumreal.\n"
	p, s := load(t, decls+`p(X, C) :- q(X, C).`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("cost propagation rejected: %v", err)
	}
	p, s = load(t, decls+`p(X, C) :- q(X, D).`)
	if err := CheckProgram(p, s); err == nil {
		t.Fatal("unbound head cost must be rejected")
	}
	// Arithmetic over quasi-limited variables is quasi-limited.
	p, s = load(t, decls+`p(X, C) :- q(X, D), C = D * 2.`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("arithmetic head cost rejected: %v", err)
	}
}

func TestDefaultPredicateArgsMustBeLimited(t *testing.T) {
	decls := ".cost t/2 : boolor.\n.default t/2 = 0.\n"
	// Positive default subgoal with unlimited W.
	p, s := load(t, decls+`p(W) :- t(W, D).`)
	if err := CheckProgram(p, s); err == nil {
		t.Fatal("default-value predicate with unlimited args must be rejected")
	}
	p, s = load(t, decls+`p(W) :- wire(W), t(W, D).`)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("limited default subgoal rejected: %v", err)
	}
}

func TestPartyProgramIsSafe(t *testing.T) {
	p, s := load(t, programs.Party)
	if err := CheckProgram(p, s); err != nil {
		t.Fatalf("party program must be range-restricted (Example 4.3): %v", err)
	}
}

func TestAnalyzeRoles(t *testing.T) {
	p, s := load(t, paperDecls+`s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).`)
	v := Analyze(p.Rules[0], s)
	for _, w := range []ast.Var{"X", "Y", "Z"} {
		if !v.Limited[w] {
			t.Errorf("%s should be limited", w)
		}
	}
	if !v.QuasiLimited["C"] || !v.QuasiLimited["D"] {
		t.Errorf("C and D should be quasi-limited: %+v", v.QuasiLimited)
	}
	if v.Limited["C"] {
		t.Error("C must not be limited")
	}
}
