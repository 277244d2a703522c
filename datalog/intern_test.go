package datalog

import (
	"fmt"
	"testing"

	"repro/internal/programs"
	"repro/internal/val"
)

// TestReadsNeverIntern: the read paths resolve constants with
// val.Lookup, so queries naming symbols, strings and sets no model holds
// return nothing and leave the process-wide intern tables as they were;
// a fact naming one interns it, after which the same Value finds it.
func TestReadsNeverIntern(t *testing.T) {
	p, err := Load(programs.ShortestPath+"arc(a, b, 1). arc(b, c, 2).", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	texts, sets := val.Interned()
	for i := 0; i < 10000; i++ {
		fresh := fmt.Sprintf("fresh-%d", i)
		var found bool
		switch i % 6 {
		case 0:
			found = m.Has("s", Sym(fresh), Sym("b"))
		case 1:
			_, found = m.Cost("s", Sym("a"), Str(fresh))
		case 2:
			found = len(m.Match("s", Any(), Sym(fresh))) > 0
		case 3:
			found = len(m.Match("arc", SetOf(Sym("a"), Num(float64(i))), Any())) > 0
		case 4:
			_, _, found = m.Explain("s", Sym(fresh), Sym("c"))
		default:
			found = m.ExplainTree("s", 2, Sym(fresh), Sym("c")) != fmt.Sprintf("s(%s, c)  [fact]\n", fresh)
		}
		if found {
			t.Fatalf("query %d naming %s found a tuple", i, fresh)
		}
	}
	if t2, s2 := val.Interned(); t2 != texts || s2 != sets {
		t.Fatalf("10,000 reads grew the intern tables: texts %d → %d, sets %d → %d", texts, t2, sets, s2)
	}

	late := Sym("late-comer")
	if m.Has("arc", late, Sym("a")) {
		t.Fatal("a symbol no fact names was found")
	}
	m2, _, err := p.SolveMore(m, NewFact("arc", late, Sym("a"), Num(4)))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := m2.Cost("s", late, Sym("c")); !ok || c.String() != "7" {
		t.Fatalf("after the fact interned it: s(late-comer, c) = %v, %v", c, ok)
	}
	if t2, _ := val.Interned(); t2 != texts+1 {
		t.Fatalf("the fact interned %d texts, want 1", t2-texts)
	}
}

// TestBuiltValuesRenderCanonically: a set built by SetOf renders, lists
// and compares exactly as the interned set it resolves to, without
// interning anything.
func TestBuiltValuesRenderCanonically(t *testing.T) {
	built := SetOf(Sym("zz-built"), Num(10), Str("q"), Num(9), Sym("zz-built"))
	texts, sets := val.Interned()
	if got, want := built.String(), `{10, 9, "q", zz-built}`; got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
	elems, _ := built.Elems()
	if len(elems) != 4 {
		t.Fatalf("Elems = %v", elems)
	}
	if t2, s2 := val.Interned(); t2 != texts || s2 != sets {
		t.Fatal("rendering a built set interned it")
	}
	resolved, _ := built.resolve(true)
	if r := (Value{v: resolved}); r.String() != built.String() || !r.Equal(built) || !built.Equal(r) {
		t.Fatalf("interned %v disagrees with built %v", r, built)
	}
}

// TestBuiltValuesCompareStructurally: a built set's identity is its
// elements, not its display key, which joins element keys with an
// unescaped ";" — so {"a", "b"} and {"a;q:b"} stay two values, and a set
// holding both of {"x", "y"} and {"x;q:y"} keeps two elements.
func TestBuiltValuesCompareStructurally(t *testing.T) {
	two, one := SetOf(Str("a"), Str("b")), SetOf(Str("a;q:b"))
	if two.Equal(one) || one.Equal(two) {
		t.Fatalf("%v equals %v", two, one)
	}
	nested := SetOf(SetOf(Str("x"), Str("y")), SetOf(Str("x;q:y")))
	if got, want := nested.String(), `{{"x", "y"}, {"x;q:y"}}`; got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
	if elems, _ := nested.Elems(); len(elems) != 2 {
		t.Fatalf("Elems = %v, want two", elems)
	}
	// The same sets, read back from a model, equal the built ones.
	p, err := Load("q(X) :- p(X).", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve(NewFact("p", two), NewFact("p", one), NewFact("p", nested))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Facts("q")
	if len(got) != 3 {
		t.Fatalf("q = %v, want three sets", got)
	}
	for _, built := range []Value{two, one, nested} {
		n := 0
		for _, f := range got {
			if f[0].Equal(built) && built.Equal(f[0]) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v equals %d of the model's sets %v, want 1", built, n, got)
		}
	}
}
