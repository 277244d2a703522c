package relation

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// TestConcurrentReadersOnFrozenRelation exercises the frozen-snapshot
// contract under the race detector: once all writes have finished, many
// goroutines may Match (racing to build indexes for several masks), Get,
// Each and Rows the same relation concurrently — while other goroutines
// Clone it and write their clones, which share its full argument chunks
// (the component walk's private views). Every reader must keep seeing
// the frozen rows and costs.
func TestConcurrentReadersOnFrozenRelation(t *testing.T) {
	info := &ast.PredInfo{Key: ast.MakePredKey("edge", 3), Arity: 3, HasCost: true, L: lattice.MinReal}
	r := New(info)
	const rows = 1500 // several full chunks and a partial last one
	for i := 0; i < rows; i++ {
		args := []val.T{val.Number(float64(i % 17)), val.Number(float64(i))}
		if err := r.InsertStrict(args, val.Number(float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	const readers, writers = 12, 4
	var wg sync.WaitGroup
	wg.Add(readers + writers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				// Alternate bound-position masks so several lazy index
				// builds race with index consumers.
				a := val.Number(float64((g + rep) % 17))
				b := val.Number(float64(rep * 29 % rows))
				pats := [][]*val.T{
					{&a, nil},
					{nil, &b},
					{&a, &b},
					{nil, nil},
				}
				n := 0
				r.Match(pats[rep%len(pats)], func(Row) bool { n++; return true })
				i := (g*131 + rep*37) % rows
				if row, ok := r.Get([]val.T{val.Number(float64(i % 17)), val.Number(float64(i))}); !ok || row.Cost.Num() != float64(i) {
					t.Errorf("row %d reads %v, %v; want its frozen cost", i, row, ok)
					return
				}
				if got := len(r.Rows()); got != rows || r.Len() != rows {
					t.Errorf("Rows() returned %d rows, want %d", got, rows)
					return
				}
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Clone()
			for i := 0; i < rows; i += 7 {
				c.InsertJoin([]val.T{val.Number(float64(i % 17)), val.Number(float64(i))}, val.Number(-1))
			}
			for i := 0; i < 600; i++ {
				c.InsertJoin([]val.T{val.Number(float64(w)), val.Symbol("new")}, val.Number(float64(i)))
				c.InsertJoin([]val.T{val.Number(float64(i)), val.Number(float64(rows + w))}, val.Number(0))
			}
			c.Match([]*val.T{nil, new(val.T)}, func(Row) bool { return true })
			if c.Len() != rows+601 {
				t.Errorf("clone %d holds %d rows, want %d", w, c.Len(), rows+601)
			}
		}(w)
	}
	wg.Wait()
}

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
