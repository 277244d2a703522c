package relation_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/val"
)

// TestConcurrentReadersOnFrozenRelation exercises the frozen-snapshot
// contract under the race detector. Generation k is published with two
// indexes built; then, while readers Get, Seek, Match (building further
// indexes on k), Rows and snapshot.Encode it, one writer chains
// generations k+1…k+m — each a Clone of the last, extending k's shared
// arrays in place, raising costs k holds and linking new rows into k's
// index chains — and then forks k, and other goroutines fork k
// concurrently. Every reader must keep seeing k byte for byte.
func TestConcurrentReadersOnFrozenRelation(t *testing.T) {
	info := &ast.PredInfo{Key: ast.MakePredKey("edge", 3), Arity: 3, HasCost: true, L: lattice.MinReal}
	k := relation.New(info)
	// Several full chunks and a partial last one. The chain's rows fit
	// k's key table and index arrays, so no generation rehashes or
	// reallocates them: all write into the arrays k's readers probe.
	// Position 0 splits the rows into groups chains, each of which the
	// chain's first writes link onto from a row of k.
	const rows, indexed, chain, perGen, groups = 1100, 800, 6, 60, 211
	edge := func(i int) []val.T { return []val.T{val.Number(float64(i % groups)), val.Number(float64(i))} }
	zero := val.Number(0)
	for i := 0; i < rows; i++ {
		if err := k.InsertStrict(edge(i), val.Number(float64(i))); err != nil {
			t.Fatal(err)
		}
		if i == indexed {
			k.Match([]*val.T{&zero, nil}, func(relation.Row) bool { return true })
			k.Match([]*val.T{nil, &zero}, func(relation.Row) bool { return true })
		}
	}
	db := relation.NewDB(ast.Schemas{info.Key: info})
	db.SetRel(info.Key, k)
	encode := func() []byte { return snapshot.Encode(&snapshot.Snapshot{DB: db}) }
	frozen := encode()

	// The writer takes k's storage over before any reader starts.
	next := k.Clone()
	const readers, forkers = 6, 3
	var wg sync.WaitGroup
	wg.Add(readers + forkers + 1)
	go func() {
		defer wg.Done()
		cur := next
		for j := 1; j <= chain; j++ {
			for i := 0; i < rows; i += 7 {
				cur.InsertJoin(edge(i), val.Number(float64(-j)))
			}
			for i := 0; i < perGen; i++ {
				cur.InsertJoin(edge(rows+(j-1)*perGen+i), val.Number(0))
			}
			if want := rows + j*perGen; cur.Len() != want {
				t.Errorf("generation k+%d holds %d rows, want %d", j, cur.Len(), want)
			}
			if j < chain {
				cur = cur.Clone()
			}
		}
		n := 0
		cur.Match([]*val.T{&zero, nil}, func(relation.Row) bool { n++; return true })
		if want := (rows + chain*perGen + groups - 1) / groups; n != want {
			t.Errorf("generation k+%d matches %d rows on position 0, want %d", chain, n, want)
		}
		f := k.Clone()
		f.InsertJoin([]val.T{val.Symbol("fork"), val.Number(0)}, val.Number(0))
		if f.Len() != rows+1 {
			t.Errorf("a fork of k holds %d rows, want %d", f.Len(), rows+1)
		}
	}()
	for w := 0; w < forkers; w++ {
		go func(w int) {
			defer wg.Done()
			c := k.Clone()
			for i := 0; i < rows; i += 5 {
				c.InsertJoin(edge(i), val.Number(-100))
			}
			for i := 0; i < 600; i++ {
				c.InsertJoin([]val.T{val.Number(float64(w)), val.Symbol("new")}, val.Number(float64(i)))
				c.InsertJoin([]val.T{val.Number(float64(i)), val.Number(float64(rows + w))}, val.Number(0))
			}
			if c.Len() != rows+601 {
				t.Errorf("fork %d holds %d rows, want %d", w, c.Len(), rows+601)
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 40; rep++ {
				a := val.Number(float64((g*40 + rep*7) % groups))
				b := val.Number(float64(rep * 29 % rows))
				pats := [][]*val.T{{&a, nil}, {nil, &b}, {&a, &b}, {nil, nil}}
				want := []int{(rows - int(a.Num()) + groups - 1) / groups, 1, 0, rows}
				if int(b.Num())%groups == int(a.Num()) {
					want[2] = 1
				}
				n := 0
				k.Match(pats[rep%len(pats)], func(row relation.Row) bool {
					if row.Cost.Num() != row.Args[1].Num() {
						t.Errorf("Match offers %v, not its frozen cost", row)
					}
					n++
					return true
				})
				if n != want[rep%len(pats)] {
					t.Errorf("Match %d offered %d rows, want %d", rep%len(pats), n, want[rep%len(pats)])
					return
				}
				// Drain every chain: each ends on a link the writer sets.
				for x := 0; x < groups; x++ {
					n = 0
					c := k.Seek(1, []val.T{val.Number(float64(x)), {}})
					for _, ok := c.Next(); ok; _, ok = c.Next() {
						n++
					}
					if want := (rows - x + groups - 1) / groups; n != want {
						t.Errorf("Seek offered %d rows of group %d, want %d", n, x, want)
						return
					}
				}
				i := (g*131 + rep*37) % rows
				if row, ok := k.Get(edge(i)); !ok || row.Cost.Num() != float64(i) {
					t.Errorf("row %d reads %v, %v; want its frozen cost", i, row, ok)
					return
				}
				if _, ok := k.Get(edge(rows + perGen + i%perGen)); ok || k.ID(edge(rows+perGen)) >= 0 {
					t.Errorf("k reads a row a newer generation added")
					return
				}
				if got := len(k.Rows()); got != rows || k.Len() != rows {
					t.Errorf("Rows() returned %d rows, want %d", got, rows)
					return
				}
				if rep%8 == 0 && !bytes.Equal(encode(), frozen) {
					t.Error("k's snapshot bytes changed while newer generations were written")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(encode(), frozen) {
		t.Fatal("k's snapshot bytes changed")
	}
}
