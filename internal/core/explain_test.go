package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

func TestExplainShortestPath(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(a, c, 9).
`
	en := mustEngine(t, src, Options{})
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	args := []val.T{val.Symbol("a"), val.Symbol("c")}
	d, ok := en.Provenance(db).Explain("s", args)
	if !ok {
		t.Fatal("no derivation for s(a,c)")
	}
	if !strings.Contains(d.Rule, "?= min") {
		t.Fatalf("s must come from the min rule, got %q", d.Rule)
	}
	found := false
	for _, sup := range d.Supports {
		if strings.Contains(sup.String(), "min") && strings.Contains(sup.String(), "3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("aggregate support missing instantiated result: %v", d.Supports)
	}

	// path(a, b, c, 3) comes from rule 2, supported by s(a,b,1) and
	// arc(b,c,2) and the instantiated sum.
	pd, ok := en.Provenance(db).Explain("path", []val.T{val.Symbol("a"), val.Symbol("b"), val.Symbol("c")})
	if !ok {
		t.Fatal("no derivation for path(a,b,c)")
	}
	joined := ""
	for _, sup := range pd.Supports {
		joined += sup.String() + "; "
	}
	for _, want := range []string{"s(a, b, 1)", "arc(b, c, 2)", "3 = (1 + 2)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("path supports missing %q: %s", want, joined)
		}
	}

	// The tree renderer walks derived supports down to facts.
	tree := en.Provenance(db).Tree("s", args, 5)
	for _, want := range []string{"s(a, c, 3)", "[fact]", "arc(a, b, 1)"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestExplainChoosesLeastInstance: among several instances deriving a
// tuple, the explanation is the one whose supports sort least, and an
// EDB fact is unexplained.
func TestExplainChoosesLeastInstance(t *testing.T) {
	en := mustEngine(t, "reach(X) :- edge(Y, X).\nedge(c, x). edge(b, x). edge(a, y).\n", Options{})
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := en.Provenance(db).Explain("reach", []val.T{val.Symbol("x")})
	if !ok || len(d.Supports) != 1 || d.Supports[0].String() != "edge(b, x)" {
		t.Fatalf("reach(x) explained by %v %v, want edge(b, x)", d, ok)
	}
	if _, ok := en.Provenance(db).Explain("edge", []val.T{val.Symbol("c"), val.Symbol("x")}); ok {
		t.Fatal("an EDB fact must be unexplained")
	}
	if _, ok := en.Provenance(db).Explain("reach", []val.T{val.Symbol("z")}); ok {
		t.Fatal("a tuple absent from the model must be unexplained")
	}
}

func TestExplainNegationAndBuiltins(t *testing.T) {
	src := `
node(a). node(b).
e(a, b).
isolated(X) :- node(X), not linked(X).
linked(X) :- e(X, Y).
linked(Y) :- e(X, Y).
`
	en := mustEngine(t, src, Options{})
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if hasTuple(db, "isolated", "a") {
		t.Fatal("a is linked")
	}
	// Negative supports render with "not".
	d, ok := en.Provenance(db).Explain("linked", []val.T{val.Symbol("b")})
	if !ok {
		t.Fatal("no derivation for linked(b)")
	}
	if !strings.Contains(d.Supports[0].String(), "e(a, b)") {
		t.Fatalf("supports = %v", d.Supports)
	}
}

func TestExplainNaiveStrategy(t *testing.T) {
	en := mustEngine(t, programs.ShortestPath+"arc(a, b, 4).\n", Options{Strategy: Naive})
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := en.Provenance(db).Explain("s", []val.T{val.Symbol("a"), val.Symbol("b")})
	if !ok || !strings.Contains(d.Rule, "min") {
		t.Fatalf("naive-strategy model unexplained: %v %v", d, ok)
	}
}

// TestExplainIsWellFounded: a recursive tuple is explained from earlier
// stages only, so every path of its tree ends in facts and repeats no
// atom. With edges a→z, z→c, c→b, b→c, b→b, the instance of reach(a, c)
// through reach(a, b) sorts before the one through reach(a, z), but
// reach(a, b) is itself derived only through reach(a, c) or through
// itself; the explanation must take the path through z.
func TestExplainIsWellFounded(t *testing.T) {
	for _, rules := range []string{
		"reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- reach(X, Y), edge(Y, Z).\n",
		"reach(X, Z) :- reach(X, Y), edge(Y, Z).\nreach(X, Y) :- edge(X, Y).\n",
	} {
		en := mustEngine(t, rules+"edge(a, z). edge(z, c). edge(c, b). edge(b, c). edge(b, b).\n", Options{})
		db, _, err := en.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		pv := en.Provenance(db)
		onPath := map[string]bool{}
		var walk func(s Support)
		walk = func(s Support) {
			if onPath[atomKey(s)] {
				t.Fatalf("%s repeats along a path of its own explanation:\n%s", s, pv.Tree("reach", []val.T{val.Symbol("a"), val.Symbol("c")}, 8))
			}
			d, ok := pv.Explain(s.Pred, s.Args)
			if !ok {
				if s.Pred != "edge" {
					t.Fatalf("%s is unexplained", s)
				}
				return
			}
			onPath[atomKey(s)] = true
			for _, sup := range d.Supports {
				walk(sup)
			}
			delete(onPath, atomKey(s))
		}
		for _, row := range db.Rel("reach/2").Rows() {
			walk(Support{Pred: "reach", Args: row.Args})
		}
		tree := pv.Tree("reach", []val.T{val.Symbol("a"), val.Symbol("b")}, 8)
		if !strings.Contains(tree, "edge(a, z)  [fact]") {
			t.Fatalf("reach(a, b) does not reach edge(a, z):\n%s", tree)
		}
	}
}

// TestExplainLimitIsUnexplained: halfsum's p(a) is the limit of an
// infinite ascending chain (Example 5.1). Every instance that derives it
// reads p(a) itself, so no finite derivation explains it, while the
// program fact p(b, 1) is its own explanation.
func TestExplainLimitIsUnexplained(t *testing.T) {
	en := mustEngine(t, programs.Halfsum, Options{Epsilon: 1e-9})
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	pv := en.Provenance(db)
	if d, ok := pv.Explain("p", []val.T{val.Symbol("a")}); ok {
		t.Fatalf("the limit p(a) is explained by %v", d)
	}
	if tree := pv.Tree("p", []val.T{val.Symbol("b")}, 3); tree != "p(b, 1)  [fact]\n" {
		t.Fatalf("p(b) tree = %q", tree)
	}
}

// TestExplainConcurrentFirstUse: sixteen goroutines ask a fresh
// Provenance for their first explanations at once — staging the
// recursive components, building indexes on the model's relations and
// on the stage generations — and each reads what one goroutine reads
// alone. Under -race it also checks that explaining never writes the
// model.
func TestExplainConcurrentFirstUse(t *testing.T) {
	for _, src := range []string{
		// near/2 has neither rules nor facts: the model as a snapshot
		// restores it holds no relation for it, and explaining far must
		// not create one.
		programs.ShortestPath + "far(X, Y) :- s(X, Y, C), not near(X, Y).\n" +
			"arc(a, b, 1). arc(b, c, 2). arc(c, a, 1). arc(a, c, 9). arc(c, d, 1).\n",
		programs.CompanyControl + "s(a, b, 0.3). s(a, c, 0.3). s(b, c, 0.6). s(c, b, 0.6).\n",
	} {
		en := mustEngine(t, src, Options{})
		solved, _, err := en.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		// The non-empty relations only, as a snapshot restores a model.
		restored := func() *relation.DB {
			db := relation.NewDB(en.Schemas)
			for _, k := range solved.Preds() {
				if solved.Rel(k).Len() > 0 {
					db.SetRel(k, solved.Rel(k))
				}
			}
			return db
		}
		render := func(pv *Provenance) string {
			var b strings.Builder
			for _, k := range solved.Preds() {
				for _, row := range solved.Rel(k).Rows() {
					b.WriteString(pv.Tree(k.Name(), row.Args, 4))
				}
			}
			return b.String()
		}
		want := render(en.Provenance(restored()))
		pv := en.Provenance(restored())
		got := make([]string, 16)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = render(pv)
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Fatalf("goroutine %d read\n%s\nwant\n%s", i, g, want)
			}
		}
	}
}

// TestExplainMemoIsByWords: explanations are cached per atom, and atoms
// are told apart by their values' words, not by display keys, which a
// string holding a NUL byte can make coincide.
func TestExplainMemoIsByWords(t *testing.T) {
	en := mustEngine(t, `p("a\x00q:b", "c"). p("a", "b\x00q:c"). q(X, Y) :- p(X, Y).`, Options{})
	db, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	pv := en.Provenance(db)
	for _, args := range [][]val.T{
		{val.String("a\x00q:b"), val.String("c")},
		{val.String("a"), val.String("b\x00q:c")},
	} {
		d, ok := pv.Explain("q", args)
		if !ok || len(d.Supports) != 1 || !slices.Equal(d.Supports[0].Args, args) {
			t.Fatalf("q%v explained as %+v", args, d)
		}
	}
}
