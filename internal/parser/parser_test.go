package parser

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/programs"
	"repro/internal/val"
)

func TestParseShortestPath(t *testing.T) {
	prog, err := Parse(programs.ShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(prog.Rules))
	}
	if len(prog.CostDecls) != 3 || len(prog.Constraints) != 1 {
		t.Fatalf("decls = %d, ics = %d", len(prog.CostDecls), len(prog.Constraints))
	}
	r3 := prog.Rules[2]
	g, ok := r3.Body[0].(*ast.Agg)
	if !ok {
		t.Fatalf("rule 3 body = %T, want aggregate", r3.Body[0])
	}
	if !g.Restricted || g.Func != "min" || g.Result != "C" || g.MultisetVar != "D" {
		t.Fatalf("aggregate parsed wrong: %+v", g)
	}
	if len(g.Conj) != 1 || g.Conj[0].Pred != "path" {
		t.Fatalf("aggregate conjunction wrong: %v", g.Conj)
	}
	// Round-trip: printing then reparsing yields the same structure.
	prog2, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, prog.String())
	}
	if prog2.String() != prog.String() {
		t.Fatalf("round-trip mismatch:\n%s\nvs\n%s", prog.String(), prog2.String())
	}
}

func TestParseCompanyControl(t *testing.T) {
	prog, err := Parse(programs.CompanyControl)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	last := prog.Rules[3]
	b, ok := last.Body[1].(*ast.Builtin)
	if !ok || b.Op != ast.OpGt {
		t.Fatalf("expected N > 0.5 builtin, got %v", last.Body[1])
	}
}

func TestParseCircuitConjAggregate(t *testing.T) {
	src := `
.cost t/2 : boolor.
.cost input/2 : boolor.
.default t/2 = 0.

t(W, C) :- input(W, C).
t(G, C) :- gate(G, or),  C = or D : [connect(G, W), t(W, D)].
t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Rules[1].Body[1].(*ast.Agg)
	if len(g.Conj) != 2 || g.Restricted {
		t.Fatalf("conjunction aggregate parsed wrong: %+v", g)
	}
	if len(prog.DefaultDecl) != 1 || prog.DefaultDecl[0].Pred != "t/2" {
		t.Fatalf("default decl wrong: %+v", prog.DefaultDecl)
	}
}

func TestParseCountWithoutMultisetVar(t *testing.T) {
	r, err := ParseRule(`coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.`)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Body[1].(*ast.Agg)
	if g.Func != "count" || g.MultisetVar != "" || g.Restricted {
		t.Fatalf("count aggregate parsed wrong: %+v", g)
	}
}

func TestParseFactsAndConstants(t *testing.T) {
	prog, err := Parse(`
arc(a, b, 1).
arc(b, b, 0).
w(x, -2.5).
lim(a, inf).
neg(a, -inf).
str(n, "hello world").
set(g, {a, b, c}).
empty(h, {}).
p.
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 0 {
		t.Fatalf("rules = %d, want every statement a fact row", len(prog.Rules))
	}
	rules := prog.AsRules().Rules
	if len(rules) != 9 {
		t.Fatalf("facts = %d", len(rules))
	}
	get := func(i, j int) val.T { return rules[i].Head.Args[j].(ast.Const).V }
	if get(2, 1).Num() != -2.5 {
		t.Errorf("negative float: %v", get(2, 1))
	}
	if !math.IsInf(get(3, 1).Num(), 1) {
		t.Errorf("inf: %v", get(3, 1))
	}
	if !math.IsInf(get(4, 1).Num(), -1) {
		t.Errorf("-inf: %v", get(4, 1))
	}
	if get(5, 1).Text() != "hello world" {
		t.Errorf("string: %v", get(5, 1))
	}
	if get(6, 1).Set().Len() != 3 {
		t.Errorf("set: %v", get(6, 1))
	}
	if get(7, 1).Set().Len() != 0 {
		t.Errorf("empty set: %v", get(7, 1))
	}
	if rules[8].Head.Pred != "p" || len(rules[8].Head.Args) != 0 {
		t.Errorf("propositional fact: %v", rules[8].Head)
	}
}

func TestParseNegation(t *testing.T) {
	r, err := ParseRule(`win(X) :- move(X, Y), not win(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	l := r.Body[1].(*ast.Lit)
	if !l.Neg || l.Atom.Pred != "win" {
		t.Fatalf("negation parsed wrong: %v", l)
	}
}

func TestParseExpressions(t *testing.T) {
	r, err := ParseRule(`p(X, C) :- q(X, A, B), C = (A + B) * 2 - A / 2.`)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Body[1].(*ast.Builtin)
	got, err := ast.EvalExpr(b.R, func(v ast.Var) (val.T, bool) {
		switch v {
		case "A":
			return val.Number(4), true
		case "B":
			return val.Number(6), true
		}
		return val.T{}, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Num() != (4+6)*2-4.0/2 {
		t.Fatalf("expression = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`p(X :- q(X).`,
		`p(X) :- q(X)`,       // missing dot
		`p(X) :- .`,          // empty body
		`.cost p : minreal.`, // missing arity
		`.bogus p/1.`,        // unknown directive
		`p("unterminated).`,  // bad string
		`p(X) :- X ! q(X).`,  // stray !
		`p(X) :- C = min D.`, // aggregate shape without ':' and not a builtin
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("p(a).\nq(X :- r(X).\n")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error lacks line info: %v", err)
	}
}

func TestBareIdentBuiltin(t *testing.T) {
	// Definition 2.5 mentions builtins of the form V = a with a constant.
	r, err := ParseRule(`p(V) :- q(V, W), W = a.`)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := r.Body[1].(*ast.Builtin)
	if !ok || b.Op != ast.OpEq {
		t.Fatalf("W = a parsed as %T", r.Body[1])
	}
	if c, ok := b.R.(ast.ConstExpr); !ok || c.V.Text() != "a" {
		t.Fatalf("rhs = %v", b.R)
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	srcs := []string{
		`t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].`,
		`s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).`,
		`n(C) :- C = count : q(X).`,
	}
	for _, src := range srcs {
		r, err := ParseRule(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("round-trip %q: %v", r.String(), err)
		}
		if r2.String() != r.String() {
			t.Fatalf("round-trip mismatch: %q vs %q", r.String(), r2.String())
		}
	}
}
