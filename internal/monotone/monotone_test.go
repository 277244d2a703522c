package monotone

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
	if err := ast.ValidateProgram(p, s); err != nil {
		t.Fatal(err)
	}
	return p, s
}

const circuit = `
.cost t/2 : boolor.
.cost input/2 : boolor.
.default t/2 = 0.
t(W, C) :- input(W, C).
t(G, C) :- gate(G, or),  C = or D : [connect(G, W), t(W, D)].
t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
`

// TestPaperProgramsAdmissible verifies Example 4.2 (shortest path and
// company control are admissible) plus Examples 4.3 and 4.4.
func TestPaperProgramsAdmissible(t *testing.T) {
	for name, src := range map[string]string{
		"shortest-path":   programs.ShortestPath,
		"company-control": programs.CompanyControl,
		"party":           programs.Party,
		"circuit":         circuit,
	} {
		p, s := load(t, src)
		rep := CheckProgram(p, s)
		if rep.Admissible != nil {
			t.Errorf("%s: admissibility rejected: %v", name, rep.Admissible)
		}
	}
}

// TestStratificationLadder reproduces §5's classification: all four
// motivating programs recurse through aggregation (not aggregate
// stratified), and only suitably fused rules are r-monotonic.
func TestStratificationLadder(t *testing.T) {
	cases := []struct {
		name       string
		src        string
		rMonotonic bool
	}{
		// §5.2: shortest path is not r-monotonic (aggregate result in head).
		{"shortest-path", programs.ShortestPath, false},
		// §5.2: company control as written is not r-monotonic (rule 3).
		{"company-control", programs.CompanyControl, false},
		// §5.2: Example 4.3 is monotonic but not r-monotonic (the K
		// comparison).
		{"party", programs.Party, false},
		// §5.2: the fused company-control formulation is r-monotonic.
		{"fused-company-control", programs.CompanyControlFused, true},
	}
	for _, c := range cases {
		p, s := load(t, c.src)
		rep := CheckProgram(p, s)
		if rep.AggregateStratified {
			t.Errorf("%s: recursion through aggregation must be detected", c.name)
		}
		if got := rep.RMonotonic == nil; got != c.rMonotonic {
			t.Errorf("%s: r-monotonic = %v (%v), want %v", c.name, got, rep.RMonotonic, c.rMonotonic)
		}
		if rep.Admissible != nil {
			t.Errorf("%s: must be admissible: %v", c.name, rep.Admissible)
		}
	}
}

func TestWellFormedViolations(t *testing.T) {
	// The checks apply componentwise: only *recursive* references are CDB
	// (a stratified rule is trivially monotone in J), so each bad rule
	// below sits inside a recursive component.
	cases := []struct {
		name, src, want string
	}{
		{"constant CDB cost", `
.cost p/2 : sumreal.
p(X, C) :- e(X, Y), p(Y, 3), C = 1 + 2.`, "constant in CDB cost argument"},
		{"double cost occurrence", `
.cost p/2 : sumreal.
p(X, C) :- e(X, Y, Z), p(Y, C), p(Z, C).`, "occurs 2 times"},
		{"cost leaks to head data", `
.cost p/2 : sumreal.
p(C, C) :- e(X), p(X, C).`, "non-cost head argument"},
		{"cost leaks to body data", `
.cost p/2 : sumreal.
p(X, C) :- e(X, Y), p(Y, C), r(C).`, "non-cost argument"},
	}
	for _, c := range cases {
		p, s := load(t, c.src)
		rep := CheckProgram(p, s)
		if rep.Admissible == nil || !strings.Contains(rep.Admissible.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, rep.Admissible, c.want)
		}
	}
}

// TestSharedMultisetVarAcrossCDBAtoms: E occurring in the cost argument
// of two CDB atoms of one conjunction ties their costs together, which
// Lemma 4.1's proof cannot raise independently — rejected.
func TestSharedMultisetVarAcrossCDBAtoms(t *testing.T) {
	src := `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
.cost tot/1 : sumreal.
tot(C) :- C = sum E : [p(X, E), q(X, E)].
p(X, E) :- e(X, Y), tot(E).
q(X, E) :- e(X, Y), tot(E).
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible == nil || !strings.Contains(rep.Admissible.Error(), "ties the costs") {
		t.Fatalf("err = %v, want shared-multiset rejection", rep.Admissible)
	}
	// The same shape over LDB atoms is fine (their extension is fixed).
	src2 := `
.cost p2/2 : sumreal.
.cost q2/2 : sumreal.
.cost tot2/1 : sumreal.
tot2(C) :- C = sum E : [p2(X, E), q2(X, E)].
`
	p2, s2 := load(t, src2)
	rep2 := CheckProgram(p2, s2)
	if rep2.Admissible != nil {
		t.Fatalf("LDB-only shared multiset var must be fine: %v", rep2.Admissible)
	}
}

func TestPseudoMonotoneNeedsDefaults(t *testing.T) {
	// The circuit program without the default declaration is rejected:
	// AND is only pseudo-monotone and t is not a default-value predicate.
	src := `
.cost t/2 : boolor.
.cost input/2 : boolor.
t(W, C) :- input(W, C).
t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible == nil || !strings.Contains(rep.Admissible.Error(), "default-value") {
		t.Fatalf("err = %v, want default-value requirement (Definition 4.5)", rep.Admissible)
	}
}

func TestAvgThroughRecursionRejected(t *testing.T) {
	src := `
.cost p/2 : sumreal.
p(a, 1).
p(X, C) :- q(X), C ?= avg D : p(Y, D).
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible == nil {
		t.Fatal("avg through recursion without defaults must be rejected")
	}
}

func TestDirectionViolations(t *testing.T) {
	// Each offending rule sits in a recursive component so that the
	// referenced predicates are genuinely CDB.
	cases := []struct {
		name, src string
	}{
		{"wrong comparison side", `
.cost q/2 : sumreal.
p(X) :- r(X, K), N ?= sum D : q(X, D), N < K.
q(X, D) :- p(X), base(X, D).`},
		{"head moves against lattice", `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
p(X, C) :- N ?= sum D : q(X, D), C = 10 - N.
q(X, D) :- e(X, Y), p(Y, D).`},
		{"cost multiplied by unknown sign", `
.cost p/2 : minreal.
.cost w/2 : minreal.
p(X, C) :- e(X, Z), p(Z, C1), w(X, W1), C = C1 * W1.`},
		{"equality pins a moving aggregate", `
.cost q/2 : sumreal.
p(X) :- r(X, K), N ?= sum D : q(X, D), N = K.
q(X, D) :- p(X), base(X, D).`},
	}
	for _, c := range cases {
		p, s := load(t, c.src)
		rep := CheckProgram(p, s)
		if rep.Admissible == nil {
			t.Errorf("%s: expected rejection", c.name)
		}
	}
}

func TestNegationOnCDBRejected(t *testing.T) {
	src := `
p(X) :- e(X, Y), not p(Y).
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible == nil || !strings.Contains(rep.Admissible.Error(), "negation on CDB") {
		t.Fatalf("err = %v", rep.Admissible)
	}
	if rep.NegationStratified {
		t.Fatal("recursion through negation must be reported")
	}
	// Negation on LDB predicates is fine.
	p, s = load(t, `p(X) :- e(X, Y), not f(Y).`)
	rep = CheckProgram(p, s)
	if rep.Admissible != nil {
		t.Fatalf("LDB negation must be admissible: %v", rep.Admissible)
	}
}

// TestSection3Example: the two-minimal-model program of §3 must be
// rejected (count flips from satisfied to violated as the interpretation
// grows — the N = 1 equality pins a moving aggregate).
func TestSection3ExampleRejected(t *testing.T) {
	src := `
p(b).
q(b).
p(a) :- N ?= count : q(X), N = 1.
q(a) :- N ?= count : p(X), N = 1.
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible == nil {
		t.Fatal("the §3 example must not be admissible (it has two minimal models)")
	}
}

func TestNegativeWeightShortestPathStillAdmissible(t *testing.T) {
	// §5.4: with negative weights the program stays monotonic in our
	// sense (though not cost-monotonic per Ganguly et al.) — the checker
	// must accept it; negative weights are an EDB property, invisible
	// syntactically.
	p, s := load(t, programs.ShortestPath+"arc(a, b, -5).\n")
	rep := CheckProgram(p, s)
	if rep.Admissible != nil {
		t.Fatalf("negative weights do not affect admissibility: %v", rep.Admissible)
	}
}

func TestMixedLatticeTyping(t *testing.T) {
	src := `
.cost p/2 : sumreal.
.cost q/2 : minreal.
p(X, C) :- e(X, Y), q(Y, C).
q(X, C) :- p(X, C).
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible == nil {
		t.Fatal("sumreal head bound by minreal body var must be rejected")
	}
}

func TestHalfsumAdmissible(t *testing.T) {
	src := `
.cost p/2 : sumreal.
p(b, 1).
p(a, C) :- C ?= halfsum D : p(X, D).
`
	p, s := load(t, src)
	rep := CheckProgram(p, s)
	if rep.Admissible != nil {
		t.Fatalf("Example 5.1 must be admissible: %v", rep.Admissible)
	}
}
