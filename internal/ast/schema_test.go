package ast

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/val"
)

// buildProgram assembles a small shortest-path program directly from AST
// constructors (the parser has its own tests; these exercise ast alone).
func buildShortestPath() *Program {
	// path(X, direct, Y, C) :- arc(X, Y, C).
	r1 := &Rule{
		Head: Atom{Pred: "path", Args: []Term{Var("X"), Sym("direct"), Var("Y"), Var("C")}},
		Body: []Subgoal{&Lit{Atom: Atom{Pred: "arc", Args: []Term{Var("X"), Var("Y"), Var("C")}}}},
	}
	// path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
	r2 := &Rule{
		Head: Atom{Pred: "path", Args: []Term{Var("X"), Var("Z"), Var("Y"), Var("C")}},
		Body: []Subgoal{
			&Lit{Atom: Atom{Pred: "s", Args: []Term{Var("X"), Var("Z"), Var("C1")}}},
			&Lit{Atom: Atom{Pred: "arc", Args: []Term{Var("Z"), Var("Y"), Var("C2")}}},
			&Builtin{Op: OpEq, L: VarExpr{V: "C"}, R: &BinExpr{Op: OpAdd, L: VarExpr{V: "C1"}, R: VarExpr{V: "C2"}}},
		},
	}
	// s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).
	r3 := &Rule{
		Head: Atom{Pred: "s", Args: []Term{Var("X"), Var("Y"), Var("C")}},
		Body: []Subgoal{&Agg{
			Result: "C", Restricted: true, Func: "min", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("X"), Var("Z"), Var("Y"), Var("D")}}},
		}},
	}
	return &Program{
		Rules: []*Rule{r1, r2, r3},
		CostDecls: []CostDecl{
			{Pred: "arc/3", Lattice: "minreal"},
			{Pred: "path/4", Lattice: "minreal"},
			{Pred: "s/3", Lattice: "minreal"},
		},
		Constraints: []*Constraint{{Body: []Subgoal{
			&Lit{Atom: Atom{Pred: "arc", Args: []Term{Sym("direct"), Var("Z"), Var("C")}}},
		}}},
	}
}

func TestBuildSchemas(t *testing.T) {
	p := buildShortestPath()
	s, err := BuildSchemas(p)
	if err != nil {
		t.Fatal(err)
	}
	pi := s.Info("path/4")
	if pi == nil || !pi.HasCost || pi.L.Name() != "minreal" {
		t.Fatalf("path schema = %+v", pi)
	}
	if pi.NonCost() != 3 || pi.CostIndex() != 3 {
		t.Fatalf("path non-cost arity = %d, cost index = %d", pi.NonCost(), pi.CostIndex())
	}
	if err := ValidateProgram(p, s); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestSchemaErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Program)
		want string
	}{
		{"unknown lattice", func(p *Program) { p.CostDecls[0].Lattice = "zzz" }, "unknown lattice"},
		{"duplicate cost", func(p *Program) { p.CostDecls = append(p.CostDecls, CostDecl{Pred: "s/3", Lattice: "minreal"}) }, "duplicate"},
		{"default without cost", func(p *Program) {
			p.DefaultDecl = append(p.DefaultDecl, DefaultDecl{Pred: "nope/2", Value: val.Number(0)})
		}, "requires a prior"},
		{"default not bottom", func(p *Program) {
			// minreal's bottom is +∞, so 0 must be rejected (§2.3.2).
			p.DefaultDecl = append(p.DefaultDecl, DefaultDecl{Pred: "s/3", Value: val.Number(0)})
		}, "not the lattice bottom"},
	}
	for _, c := range cases {
		p := buildShortestPath()
		c.mut(p)
		_, err := BuildSchemas(p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestRolesOf(t *testing.T) {
	p := buildShortestPath()
	roles := RolesOf(p.Rules[2], 0)
	if len(roles.Grouping) != 2 || roles.Grouping[0] != "X" || roles.Grouping[1] != "Y" {
		t.Fatalf("grouping = %v, want [X Y]", roles.Grouping)
	}
	if len(roles.Local) != 1 || roles.Local[0] != "Z" {
		t.Fatalf("local = %v, want [Z]", roles.Local)
	}
}

func TestValidateAggErrors(t *testing.T) {
	mk := func(g *Agg) *Program {
		p := buildShortestPath()
		p.Rules[2].Body = []Subgoal{g}
		return p
	}
	cases := []struct {
		name string
		g    *Agg
		want string
	}{
		{"unknown func", &Agg{Result: "C", Func: "median", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("X"), Var("Z"), Var("Y"), Var("D")}}}}, "unknown aggregate"},
		{"multiset var in non-cost position", &Agg{Result: "C", Func: "min", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("D"), Var("Z"), Var("Y"), Var("D")}}}}, "non-cost position"},
		{"result inside aggregation", &Agg{Result: "C", Func: "min", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("X"), Var("C"), Var("Y"), Var("D")}}}}, "occurs inside"},
		{"multiset var misses cost args", &Agg{Result: "C", Func: "min", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("X"), Var("Z"), Var("Y"), Var("E")}}}}, "does not occur in any cost argument"},
		{"wrong domain lattice", &Agg{Result: "C", Func: "sum", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("X"), Var("Z"), Var("Y"), Var("D")}}}}, "differs from domain"},
		{"result equals multiset var", &Agg{Result: "D", Func: "min", MultisetVar: "D",
			Conj: []Atom{{Pred: "path", Args: []Term{Var("X"), Var("Z"), Var("Y"), Var("D")}}}}, "equals multiset"},
	}
	for _, c := range cases {
		p := mk(c.g)
		s, err := BuildSchemas(p)
		if err != nil {
			t.Fatalf("%s: schema err %v", c.name, err)
		}
		err = ValidateProgram(p, s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestMultisetVarEscapes(t *testing.T) {
	p := buildShortestPath()
	r := p.Rules[2]
	// Leak D into another subgoal.
	r.Body = append(r.Body, &Lit{Atom: Atom{Pred: "arc", Args: []Term{Var("X"), Var("Y"), Var("D")}}})
	s, err := BuildSchemas(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProgram(p, s); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("err = %v, want escape error", err)
	}
}

func TestFactValue(t *testing.T) {
	p := buildShortestPath()
	p.AddFact("arc", []val.T{val.Symbol("a"), val.Symbol("b"), val.Number(2)}, Pos{Line: 1, Col: 1})
	p.AddFact("arc", []val.T{val.Symbol("b"), val.Symbol("c"), val.Symbol("far")}, Pos{Line: 2, Col: 1})
	s, _ := BuildSchemas(p)
	args, cost, err := p.Facts[0].Value(0, s.Info("arc/3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || args[0].Text() != "a" || cost.Num() != 2 {
		t.Fatalf("args = %v, cost = %v", args, cost)
	}
	if _, _, err := p.Facts[0].Value(1, s.Info("arc/3")); err == nil || !strings.Contains(err.Error(), "ast: fact arc(b, c, far): ") {
		t.Fatalf("err = %v, want the cost outside minreal reported with its fact", err)
	}
	// A predicate without a cost keeps every argument.
	if args, _, err := p.Facts[0].Value(0, &PredInfo{Key: "arc/3", Arity: 3}); err != nil || len(args) != 3 {
		t.Fatalf("args = %v, err = %v", args, err)
	}
}

func TestProgramAccessors(t *testing.T) {
	p := buildShortestPath()
	preds := p.Preds()
	if len(preds) != 3 {
		t.Fatalf("preds = %v", preds)
	}
	heads := p.HeadPreds()
	if !heads["path/4"] || !heads["s/3"] || heads["arc/3"] {
		t.Fatalf("heads = %v", heads)
	}
	vs := p.Rules[1].AllVars()
	if len(vs) != 6 {
		t.Fatalf("rule-2 vars = %v", vs)
	}
}

func TestCompareAndEval(t *testing.T) {
	ok, err := Compare(OpLt, val.Number(1), val.Number(2))
	if err != nil || !ok {
		t.Fatal("1 < 2")
	}
	if _, err := Compare(OpLt, val.Symbol("a"), val.Number(2)); err == nil {
		t.Fatal("ordered comparison of symbol must error")
	}
	ok, err = Compare(OpNe, val.Symbol("a"), val.Symbol("b"))
	if err != nil || !ok {
		t.Fatal("a != b")
	}
	if _, err := EvalExpr(&BinExpr{Op: OpDiv, L: NumExpr{N: 1}, R: NumExpr{N: 0}}, nil); err == nil {
		t.Fatal("division by zero must error")
	}
	if _, err := EvalExpr(VarExpr{V: "X"}, func(Var) (val.T, bool) { return val.T{}, false }); err == nil {
		t.Fatal("unbound variable must error")
	}
}

// TestSplitFacts: the fact buffers of predicates nothing else defines
// are data; the rows of a predicate that also heads a rule are handed
// back as rules, in program order. AsRules and the canonical printing
// interleave every row back at its statement ordinal.
func TestSplitFacts(t *testing.T) {
	v := func(names ...string) []Term {
		out := make([]Term, len(names))
		for i, n := range names {
			if n[0] >= 'A' && n[0] <= 'Z' {
				out[i] = Var(n)
			} else {
				out[i] = Sym(n)
			}
		}
		return out
	}
	p := &Program{}
	fact := func(pred string, args ...string) {
		vals := make([]val.T, len(args))
		for i, a := range args {
			vals[i] = val.Symbol(a)
		}
		p.AddFact(pred, vals, Pos{Line: int32(p.nfacts) + 1, Col: 1})
	}
	rule := func(pred string, args []string, body ...*Lit) {
		r := &Rule{Head: Atom{Pred: pred, Args: v(args...)}}
		for _, b := range body {
			r.Body = append(r.Body, b)
		}
		p.Rules = append(p.Rules, r)
	}
	fact("e", "a", "b") // data
	fact("t", "a", "a") // t heads a rule below: handed back
	rule("t", []string{"X", "Y"}, &Lit{Atom: Atom{Pred: "e", Args: v("X", "Y")}})
	fact("e", "b", "c")      // data
	fact("n", "a")           // handed back: the rule below makes n derived
	rule("n", []string{"X"}) // not ground: a rule
	fact("e", "c", "d")      // data
	fact("u")                // data, no arguments
	rules, edb := p.SplitFacts()
	render := func(rs []*Rule) string {
		var parts []string
		for _, r := range rs {
			parts = append(parts, r.String())
		}
		return strings.Join(parts, " ")
	}
	if got, want := render(rules), "t(a, a). t(X, Y) :- e(X, Y). n(a). n(X)."; got != want {
		t.Fatalf("Rules = %s, want %s", got, want)
	}
	var data []*Rule
	var keys []PredKey
	var counts []int
	for _, f := range edb {
		keys, counts = append(keys, f.Key), append(counts, f.Len())
		for i := 0; i < f.Len(); i++ {
			data = append(data, f.Rule(i))
		}
	}
	if got, want := render(data), "e(a, b). e(b, c). e(c, d). u."; got != want {
		t.Fatalf("Facts = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(keys, counts), "[e/2 u/0] [3 1]"; got != want {
		t.Fatalf("fact keys, counts = %s, want %s", got, want)
	}
	all := "e(a, b). t(a, a). t(X, Y) :- e(X, Y). e(b, c). n(a). n(X). e(c, d). u."
	if got := render(p.AsRules().Rules); got != all {
		t.Fatalf("AsRules = %s, want %s", got, all)
	}
	if got, want := p.String(), strings.ReplaceAll(all, ". ", ".\n")+"\n"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if tag := p.Facts[0].Tag(2); tag.Seq != 4 || tag.Rule != 2 || tag.Line != 5 {
		t.Fatalf("e(c, d) tagged %+v, want Seq 4, Rule 2, line 5", tag)
	}
	// A program without data is returned as it is.
	q := &Program{Rules: rules}
	if rules2, edb2 := q.SplitFacts(); len(edb2) != 0 || len(rules2) != len(q.Rules) || q.AsRules() != q {
		t.Fatalf("rules-only program split into %d rules and %d fact buffers", len(rules2), len(edb2))
	}
	if got := MakePredKey("path", 4); got != "path/4" || got.Name() != "path" || got.Arity() != 4 {
		t.Fatalf("MakePredKey = %q (name %q, arity %d)", got, got.Name(), got.Arity())
	}
}
