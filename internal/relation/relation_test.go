package relation

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

func costInfo(name string, arity int, l lattice.Lattice, def bool) *ast.PredInfo {
	return &ast.PredInfo{
		Key: ast.MakePredKey(name, arity), Arity: arity,
		HasCost: true, L: l, HasDefault: def,
	}
}

func plainInfo(name string, arity int) *ast.PredInfo {
	return &ast.PredInfo{Key: ast.MakePredKey(name, arity), Arity: arity}
}

func TestInsertJoinMonotone(t *testing.T) {
	r := New(costInfo("s", 3, lattice.MinReal, false))
	a := []val.T{val.Symbol("a"), val.Symbol("b")}
	if !r.InsertJoin(a, val.Number(5)) {
		t.Fatal("first insert must change")
	}
	// In minreal, 3 is *larger* than 5 (⊑ is ≥): the join improves to 3.
	if !r.InsertJoin(a, val.Number(3)) {
		t.Fatal("improving cost must change")
	}
	if r.InsertJoin(a, val.Number(4)) {
		t.Fatal("worse cost must not change")
	}
	row, ok := r.Get(a)
	if !ok || row.Cost.Num() != 3 {
		t.Fatalf("cost = %v, want 3", row.Cost)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1 (FD enforced)", r.Len())
	}
}

func TestInsertStrictConflict(t *testing.T) {
	r := New(costInfo("p", 2, lattice.SumReal, false))
	a := []val.T{val.Symbol("x")}
	if err := r.InsertStrict(a, val.Number(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertStrict(a, val.Number(1)); err != nil {
		t.Fatal("re-inserting the same cost must succeed")
	}
	err := r.InsertStrict(a, val.Number(2))
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want ConflictError", err)
	}
}

func TestDefaultRowsAreVirtual(t *testing.T) {
	r := New(costInfo("t", 2, lattice.BoolOr, true))
	w := []val.T{val.Symbol("w1")}
	// Inserting the bottom value must not materialize a core row.
	if r.InsertJoin(w, val.Boolean(false)) {
		t.Fatal("bottom insert must be a no-op")
	}
	if r.Len() != 0 {
		t.Fatal("core must stay empty")
	}
	row, ok := r.GetOrDefault(w)
	if !ok || row.Cost.Bool() != false {
		t.Fatalf("default lookup = %v, %v", row, ok)
	}
	// A real value materializes.
	if !r.InsertJoin(w, val.Boolean(true)) {
		t.Fatal("true insert must change")
	}
	row, _ = r.GetOrDefault(w)
	if !row.Cost.Bool() {
		t.Fatal("core value must win over default")
	}
	// Non-default predicates miss.
	r2 := New(costInfo("q", 2, lattice.BoolOr, false))
	if _, ok := r2.GetOrDefault(w); ok {
		t.Fatal("non-default predicate must miss")
	}
}

func TestMatchWithIndexes(t *testing.T) {
	r := New(plainInfo("e", 2))
	pairs := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "a"}}
	for _, p := range pairs {
		r.InsertJoin([]val.T{val.Symbol(p[0]), val.Symbol(p[1])}, val.T{})
	}
	av := val.Symbol("a")
	var got []string
	r.Match([]*val.T{&av, nil}, func(row Row) bool {
		got = append(got, row.Args[1].Text())
		return true
	})
	if len(got) != 2 {
		t.Fatalf("match a,* = %v", got)
	}
	// Insert after the index exists; index must stay fresh.
	r.InsertJoin([]val.T{val.Symbol("a"), val.Symbol("d")}, val.T{})
	got = nil
	r.Match([]*val.T{&av, nil}, func(row Row) bool {
		got = append(got, row.Args[1].Text())
		return true
	})
	if len(got) != 3 {
		t.Fatalf("match after insert = %v", got)
	}
}

func TestMatchFullyBound(t *testing.T) {
	r := New(plainInfo("e", 2))
	r.InsertJoin([]val.T{val.Symbol("a"), val.Symbol("b")}, val.T{})
	a, b, c := val.Symbol("a"), val.Symbol("b"), val.Symbol("c")
	n := 0
	r.Match([]*val.T{&a, &b}, func(Row) bool { n++; return true })
	if n != 1 {
		t.Fatalf("bound match = %d", n)
	}
	n = 0
	r.Match([]*val.T{&a, &c}, func(Row) bool { n++; return true })
	if n != 0 {
		t.Fatalf("miss match = %d", n)
	}
}

func TestRelationLeq(t *testing.T) {
	mk := func(cost float64) *Relation {
		r := New(costInfo("s", 3, lattice.MinReal, false))
		r.InsertJoin([]val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(cost))
		return r
	}
	lo, hi := mk(5), mk(3) // in minreal, 5 ⊑ 3
	if !lo.Leq(hi) {
		t.Fatal("5 ⊑ 3 in minreal")
	}
	if hi.Leq(lo) {
		t.Fatal("3 ⋢ 5 in minreal")
	}
	empty := New(costInfo("s", 3, lattice.MinReal, false))
	if !empty.Leq(lo) || lo.Leq(empty) {
		t.Fatal("∅ ⊑ r but not conversely")
	}
	if !lo.Equal(mk(5)) {
		t.Fatal("equal relations must be Equal")
	}
}

func TestDBLeqJoinMeet(t *testing.T) {
	prog := &ast.Program{}
	s, _ := ast.BuildSchemas(prog)
	mkdb := func(cost float64) *DB {
		db := NewDB(s)
		db.Schemas["s/3"] = costInfo("s", 3, lattice.MinReal, false)
		db.Rel("s/3").InsertJoin([]val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(cost))
		return db
	}
	lo, hi := mkdb(5), mkdb(3)
	if !lo.Leq(hi, nil) || hi.Leq(lo, nil) {
		t.Fatal("DB order wrong")
	}
	j := lo.Clone()
	if !j.Join(hi) {
		t.Fatal("join must change lo")
	}
	if !j.Equal(hi, nil) {
		t.Fatal("lo ⊔ hi = hi")
	}
	m := lo.Meet(hi)
	if !m.Equal(lo, nil) {
		t.Fatalf("lo ⊓ hi = lo, got\n%s", m)
	}
}

func TestDBMeetDropsMissingTuples(t *testing.T) {
	prog := &ast.Program{}
	s, _ := ast.BuildSchemas(prog)
	a := NewDB(s)
	a.Schemas["p/1"] = plainInfo("p", 1)
	a.Rel("p/1").InsertJoin([]val.T{val.Symbol("x")}, val.T{})
	b := NewDB(s)
	m := a.Meet(b)
	if m.Rel("p/1").Len() != 0 {
		t.Fatal("meet with empty must be empty for non-default predicates")
	}
}

func TestFormatFact(t *testing.T) {
	row := Row{Args: []val.T{val.Symbol("a"), val.Symbol("b")}, Cost: val.Number(1.5), HasCost: true}
	if got := FormatFact("s", row); got != "s(a, b, 1.5)." {
		t.Fatalf("FormatFact = %q", got)
	}
	if got := FormatFact("p", Row{}); got != "p." {
		t.Fatalf("FormatFact = %q", got)
	}
}

func TestRowsDeterministic(t *testing.T) {
	r := New(plainInfo("e", 1))
	for _, s := range []string{"c", "a", "b"} {
		r.InsertJoin([]val.T{val.Symbol(s)}, val.T{})
	}
	rows := r.Rows()
	if rows[0].Args[0].Text() != "a" || rows[2].Args[0].Text() != "c" {
		t.Fatalf("rows not sorted: %v", rows)
	}
}

func TestInfinityCosts(t *testing.T) {
	r := New(costInfo("s", 2, lattice.MinReal, false))
	a := []val.T{val.Symbol("x")}
	r.InsertJoin(a, val.Number(math.Inf(1)))
	row, _ := r.Get(a)
	if !math.IsInf(row.Cost.Num(), 1) {
		t.Fatal("infinite cost must store")
	}
	r.InsertJoin(a, val.Number(7))
	row, _ = r.Get(a)
	if row.Cost.Num() != 7 {
		t.Fatal("finite beats +∞ in minreal")
	}
}

// TestJoinIntoEmptyAdoptsRows: joining into an empty relation of the
// same shape takes the rows over as they are — same rows, same insertion
// order, lookups and later inserts working — and leaves the source
// untouched; a relation of another shape, or one that already holds
// rows, joins tuple by tuple as before.
func TestJoinIntoEmptyAdoptsRows(t *testing.T) {
	a, b, c := val.Symbol("a"), val.Symbol("b"), val.Symbol("c")
	src := New(costInfo("arc", 3, lattice.MinReal, false))
	src.InsertJoin([]val.T{a, b}, val.Number(4))
	src.InsertJoin([]val.T{b, c}, val.Number(2))

	dst := New(costInfo("arc", 3, lattice.MinReal, false)) // equal shape, distinct PredInfo
	if !dst.Join(src) {
		t.Fatal("joining rows into an empty relation must report change")
	}
	if dst.Len() != 2 || !dst.Equal(src) {
		t.Fatalf("adopted relation holds %d rows, want the source's 2", dst.Len())
	}
	if first := dst.At(0); !val.Equal(first.Args[0], a) || first.Cost.Num() != 4 {
		t.Fatalf("insertion order lost: first row %v", first)
	}
	if !dst.InsertJoin([]val.T{a, b}, val.Number(1)) || !dst.InsertJoin([]val.T{c, a}, val.Number(9)) {
		t.Fatal("an adopted relation must accept improvements and new rows")
	}
	if row, _ := src.Get([]val.T{a, b}); row.Cost.Num() != 4 || src.Len() != 2 {
		t.Fatalf("writing to the adopting relation changed the source: %v, %d rows", row, src.Len())
	}
	if row, _ := dst.Get([]val.T{a, b}); row.Cost.Num() != 1 {
		t.Fatalf("improvement lost: %v", row)
	}
	if New(costInfo("arc", 3, lattice.MinReal, false)).Join(New(costInfo("arc", 3, lattice.MinReal, false))) {
		t.Fatal("joining nothing must report no change")
	}

	// Another shape: a default-value predicate keeps bottom rows virtual.
	def := New(costInfo("t", 2, lattice.BoolOr, true))
	plainCost := New(costInfo("t", 2, lattice.BoolOr, false))
	plainCost.InsertJoin([]val.T{a}, val.Boolean(false))
	plainCost.InsertJoin([]val.T{b}, val.Boolean(true))
	def.Join(plainCost)
	if def.Len() != 1 {
		t.Fatalf("default-value relation stored %d rows, want 1 (bottom rows are virtual)", def.Len())
	}
}
