package parser

import (
	"fmt"
	"math"
	"strings"
	"sync"
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

// TestErrorsCarryPosition: errors name their line and column, and a
// comment's bytes advance the column, so an error after a trailing
// comment points past it, where the same text padded with blanks points
// too.
func TestErrorsCarryPosition(t *testing.T) {
	for src, want := range map[string]string{
		"p(a).\nq(X :- r(X).\n": "2:5:",
		"p(a) % note":           "1:12:",
		"p(a)       ":           "1:12:",
		"p(a)    ":              "1:9:",
		"% c\np(a) %":           "2:7:",
	} {
		_, err := Parse(src)
		if err == nil || !strings.HasPrefix(err.Error(), "parser: "+want) {
			t.Errorf("Parse(%q) = %v, want an error at %s", src, err, want)
		}
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

// TestFactFastPathEntryStates checks that the fact fast path reads a
// fact from both states the parser leaves between statements: nothing
// lexed (the start of the text, after a fact it read) and the
// statement's first token lexed (after a statement the general parser
// read), and that it declines a rule without moving past its name.
func TestFactFastPathEntryStates(t *testing.T) {
	src := "% data first\n  p(a, 1).\nq(X) :- p(X, N).\nr(b).\ns(c).\n"
	p := &parser{lx: newLexer(src), prog: &ast.Program{}}
	if !p.fastFact() {
		t.Fatal("no fact read from raw bytes at the start of the text")
	}
	if p.fastFact() {
		t.Fatal("the fast path read the rule q(X) :- p(X, N)")
	}
	p.lexTo(0)
	if t0 := p.cur(); t0.kind != tokIdent || t0.text != "q" || t0.line != 3 || t0.col != 1 {
		t.Fatalf("after declining the rule the parser reads %s at %d:%d", t0, t0.line, t0.col)
	}
	if err := p.statement(p.prog); err != nil {
		t.Fatal(err)
	}
	p.toks = p.toks[:copy(p.toks, p.toks[p.pos:])]
	p.pos = 0
	if len(p.toks) != 1 || !p.fastFact() {
		t.Fatalf("no fact read after the rule, with %d tokens lexed", len(p.toks))
	}
	if !p.fastFact() {
		t.Fatal("no fact read from raw bytes after a fact")
	}
	var got []string
	for _, f := range p.prog.Facts {
		for i := 0; i < f.Len(); i++ {
			tag := f.Tag(i)
			got = append(got, fmt.Sprintf("%s@%d:%d#%d/%d", f.Rule(i), tag.Line, tag.Col, tag.Seq, tag.Rule))
		}
	}
	want := "[p(a, 1).@2:3#0/0 r(b).@4:1#1/1 s(c).@5:1#2/1]"
	if fmt.Sprint(got) != want || len(p.prog.Rules) != 1 {
		t.Fatalf("facts %v and %d rules, want %s and 1 rule", got, len(p.prog.Rules), want)
	}
}

// TestParseConcurrently parses from several goroutines at once, which
// hand the spare parser back and forth: every parse
// must read its own text (run under -race).
func TestParseConcurrently(t *testing.T) {
	srcs := []string{programs.ShortestPath + "arc(a, b, 1).\narc(b, c, 2).\n", programs.Party + "requires(g1, 2).\nknows(g1, g2).\n",
		programs.Circuit + "input(n1, 1).\ngate(n2, and).\nconnect(n2, n1).\n", programs.Halfsum}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = prog.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(srcs)
				prog, err := Parse(srcs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := prog.String(); got != want[i] {
					t.Errorf("goroutine %d read %q, want %q", g, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
