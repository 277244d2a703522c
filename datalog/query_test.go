package datalog

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/programs"
)

const querySP = programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(a, d, 9).
`

func solveQuerySP(t *testing.T) (*Program, *Model) {
	t.Helper()
	p, err := Load(querySP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestMatchWildcards(t *testing.T) {
	_, m := solveQuerySP(t)
	// s(a, _): every target reachable from a.
	rows := m.Match("s", Sym("a"), Any())
	if len(rows) != 3 {
		t.Fatalf("s(a, _) matched %d rows, want 3: %v", len(rows), rows)
	}
	for _, row := range rows {
		if got := row[0].String(); got != "a" {
			t.Fatalf("bound position must stay bound, got %s", got)
		}
		if len(row) != 3 {
			t.Fatalf("cost must be appended: %v", row)
		}
	}
	// All-wildcard match equals Facts.
	all := m.Match("s", Any(), Any())
	if !reflect.DeepEqual(all, m.Facts("s")) {
		t.Fatalf("all-wildcard Match must equal Facts:\n%v\nvs\n%v", all, m.Facts("s"))
	}
	// Fully ground match is a point lookup.
	one := m.Match("s", Sym("a"), Sym("c"))
	if len(one) != 1 {
		t.Fatalf("ground match: %v", one)
	}
	if n, _ := one[0][2].Float(); n != 3 {
		t.Fatalf("s(a, c) cost %v, want 3", one[0][2])
	}
	// Wrong arity matches nothing.
	if rows := m.Match("s", Any()); rows != nil {
		t.Fatalf("wrong arity must match nothing, got %v", rows)
	}
	// Unknown predicate matches nothing.
	if rows := m.Match("nope", Any()); rows != nil {
		t.Fatalf("unknown predicate must match nothing, got %v", rows)
	}
}

// TestFactsDeterministicSortedOrder pins the documented ordering: rows
// ascend tuple-wise with numbers compared numerically, independent of
// insertion order.
func TestFactsDeterministicSortedOrder(t *testing.T) {
	p, err := Load(".cost w/2 : minreal.\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve(
		NewFact("w", Num(10), Num(1)),
		NewFact("w", Num(2), Num(1)),
		NewFact("w", Num(1), Num(1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.Facts("w")
	var got []float64
	for _, r := range rows {
		n, _ := r[0].Float()
		got = append(got, n)
	}
	want := []float64{1, 2, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Facts order %v, want numeric ascending %v", got, want)
	}
}

func TestValueIntrospection(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
	}{
		{Sym("a"), SymValue},
		{Num(3.5), NumValue},
		{Bool(true), BoolValue},
		{Str("x"), StrValue},
		{SetOf(Sym("a")), SetValue},
		{Any(), AnyValue},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Fatalf("%s: kind %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if s, ok := Sym("a").Text(); !ok || s != "a" {
		t.Fatal("Text of Sym")
	}
	if s, ok := Str("x").Text(); !ok || s != "x" {
		t.Fatal("Text of Str")
	}
	if _, ok := Num(1).Text(); ok {
		t.Fatal("Text of Num must fail")
	}
	elems, ok := SetOf(Sym("b"), Sym("a")).Elems()
	if !ok || len(elems) != 2 || elems[0].String() != "a" {
		t.Fatalf("Elems: %v", elems)
	}
	if Any().String() != "_" {
		t.Fatal("Any renders as _")
	}
	if Any().Equal(Any()) || Any().Equal(Sym("a")) {
		t.Fatal("Any equals nothing")
	}
}

func TestPredicatesAndSize(t *testing.T) {
	p, m := solveQuerySP(t)
	decls := p.Predicates()
	byName := map[string]PredDecl{}
	for _, d := range decls {
		byName[d.Name] = d
	}
	s, ok := byName["s"]
	if !ok || !s.HasCost || s.Arity != 3 || s.Lattice != "minreal" {
		t.Fatalf("s declaration: %+v", s)
	}
	for i := 1; i < len(decls); i++ {
		if decls[i].Name < decls[i-1].Name {
			t.Fatalf("declarations not sorted: %v", decls)
		}
	}
	if m.Size() == 0 {
		t.Fatal("Size must count stored tuples")
	}
	preds := m.Preds()
	if len(preds) == 0 || preds[0] != "arc" {
		t.Fatalf("Preds: %v", preds)
	}
}

// fullSortMatch is Match as it was before it filtered first: sort the
// whole relation, then keep the rows whose values are Equal to the
// pattern's (compared by key, never through the intern table). The
// differential below holds the filter-then-sort Match to it.
func fullSortMatch(m *Model, pred string, args ...Value) [][]Value {
	var out [][]Value
	for _, k := range m.db.Preds() {
		if k.Name() != pred {
			continue
		}
		pi := m.schemas.Info(k)
		if pi == nil || pi.NonCost() != len(args) {
			continue
		}
	rows:
		for _, row := range m.db.Rel(k).Rows() {
			for i, a := range args {
				if !a.wild && !(Value{v: row.Args[i]}).Equal(a) {
					continue rows
				}
			}
			out = append(out, rowValues(row))
		}
	}
	return out
}

// TestMatchAgreesWithFullSort runs every pattern over a solved Example
// 2.6 model — each stored tuple under every choice of wildcard
// positions, plus a constant no tuple holds in each position — through
// Match and through the full-sort reference, and requires identical
// answers in identical order.
func TestMatchAgreesWithFullSort(t *testing.T) {
	g := gen.Graph(gen.CycleGraph, 8, 20, 9, 3)
	p, err := Load(programs.ShortestPath+gen.GraphFacts(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for _, pred := range m.Preds() {
		for _, row := range m.Facts(pred) {
			args := row
			if pi := m.schemas.Info(ast.MakePredKey(pred, len(row))); pi != nil && pi.HasCost {
				args = row[:len(row)-1]
			}
			for wild := 0; wild < 1<<len(args); wild++ {
				for miss := -1; miss < len(args); miss++ {
					pat := make([]Value, len(args))
					for i := range args {
						switch {
						case i == miss:
							pat[i] = Sym("absent")
						case wild&(1<<i) != 0:
							pat[i] = Any()
						default:
							pat[i] = args[i]
						}
					}
					got, want := m.Match(pred, pat...), fullSortMatch(m, pred, pat...)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s%v: Match %v, full sort %v", pred, pat, got, want)
					}
					patterns++
				}
			}
		}
	}
	if patterns < 1000 {
		t.Fatalf("only %d patterns exercised", patterns)
	}
}

// TestLookupAtTwoArities: a name declared at two arities that take as
// many lookup arguments — p/2, and the cost predicate p/3 — answers Has
// from either predicate and Cost from the cost predicate, as Match
// lists both.
func TestLookupAtTwoArities(t *testing.T) {
	p, err := Load(".cost p/3 : minreal.\np(a, b).\np(a, c, 1).\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]Value{{Sym("a"), Sym("b")}, {Sym("a"), Sym("c")}} {
		if !m.Has("p", args...) {
			t.Errorf("Has(p, %v) = false", args)
		}
		if len(m.Match("p", args...)) != 1 {
			t.Errorf("Match(p, %v) = %v", args, m.Match("p", args...))
		}
	}
	if m.Has("p", Sym("a"), Sym("d")) {
		t.Error("Has(p, a, d) = true")
	}
	if c, ok := m.Cost("p", Sym("a"), Sym("c")); !ok || c.String() != "1" {
		t.Errorf("Cost(p, a, c) = %v, %v; want 1", c, ok)
	}
	if c, ok := m.Cost("p", Sym("a"), Sym("b")); ok {
		t.Errorf("Cost(p, a, b) = %v: p/2 has no cost", c)
	}
}
