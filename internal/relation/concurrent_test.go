package relation

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/val"
)

// TestIndexOrderStableAcrossBuildTime pins that Match enumerates rows in
// insertion order regardless of whether the index existed before or after
// later inserts — the property the engine's fact-order determinism
// rests on.
func TestIndexOrderStableAcrossBuildTime(t *testing.T) {
	info := &ast.PredInfo{Key: ast.MakePredKey("p", 2)}
	mk := func(buildEarly bool) []float64 {
		r := New(info)
		key := val.Number(1)
		for i := 0; i < 5; i++ {
			if err := r.InsertStrict([]val.T{key, val.Number(float64(i))}, val.T{}); err != nil {
				t.Fatal(err)
			}
		}
		if buildEarly {
			// Force the index now; later inserts must maintain it.
			r.Match([]*val.T{&key, nil}, func(Row) bool { return true })
		}
		for i := 5; i < 10; i++ {
			if err := r.InsertStrict([]val.T{key, val.Number(float64(i))}, val.T{}); err != nil {
				t.Fatal(err)
			}
		}
		var order []float64
		r.Match([]*val.T{&key, nil}, func(row Row) bool {
			order = append(order, row.Args[1].Num())
			return true
		})
		return order
	}
	early, late := mk(true), mk(false)
	if len(early) != 10 || len(late) != 10 {
		t.Fatalf("want 10 rows each, got %d and %d", len(early), len(late))
	}
	for i := range early {
		if early[i] != late[i] {
			t.Fatalf("enumeration order diverges at %d: %v vs %v", i, early, late)
		}
	}
}

// TestConcurrentInterning exercises the process-wide intern tables under
// the race detector: goroutines intern symbols, strings and sets — each
// goroutine its own names and the shared ones racing to intern the same
// text — and render values read from a frozen relation, while a writer
// inserts rows of newly interned symbols and sets into another. Every
// value must render back to the text it was built from, and a name
// resolves to one id however many goroutines interned it.
func TestConcurrentInterning(t *testing.T) {
	info := &ast.PredInfo{Key: ast.MakePredKey("f", 2), Arity: 2}
	frozen := New(info)
	for i := 0; i < 300; i++ {
		frozen.InsertJoin([]val.T{val.Symbol(fmt.Sprintf("frozen%d", i)), val.SetOf(val.Number(float64(i)))}, val.T{})
	}
	const readers, n = 6, 400
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		w := New(info)
		for i := 0; i < n; i++ {
			s := val.Symbol(fmt.Sprintf("written%d", i))
			w.InsertJoin([]val.T{s, val.SetOf(s, val.String("w"))}, val.T{})
		}
		for i := 0; i < n; i++ {
			row := w.At(i)
			if want := fmt.Sprintf("written%d", i); row.Args[0].Text() != want || row.Args[1].String() != `{"w", `+want+`}` {
				t.Errorf("written row %d = %v", i, row.Args)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				own := fmt.Sprintf("r%d-%d", g, i)
				shared := fmt.Sprintf("shared%d", i)
				a, b, c := val.Symbol(own), val.Symbol(shared), val.String(shared)
				set := val.SetOf(a, b, c)
				if a.String() != own || b.Text() != shared || c.String() != `"`+shared+`"` ||
					set.Set().Len() != 3 || !set.Set().Contains(b) {
					t.Errorf("goroutine %d: %v %v %v %v", g, a, b, c, set)
					return
				}
				if got, ok := val.Lookup(val.Sym, shared); !ok || got != b {
					t.Errorf("goroutine %d: Lookup(%q) = %v, %v; interned as %v", g, shared, got, ok, b)
					return
				}
				row := frozen.At(i % frozen.Len())
				if want := fmt.Sprintf("frozen%d", i%frozen.Len()); row.Args[0].String() != want ||
					row.Args[1].String() != fmt.Sprintf("{%d}", i%frozen.Len()) {
					t.Errorf("goroutine %d: frozen row %v", g, row.Args)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
