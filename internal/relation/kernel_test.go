package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// refRel is the reference model the storage kernel is checked against:
// tuples keyed by val.KeyOf in a Go map, insertion order in a slice.
type refRel struct {
	info  *ast.PredInfo
	order []string
	rows  map[string]Row
}

func newRef(info *ast.PredInfo) *refRel {
	return &refRel{info: info, rows: map[string]Row{}}
}

func (m *refRel) clone() *refRel {
	c := newRef(m.info)
	c.order = append([]string(nil), m.order...)
	for k, v := range m.rows {
		c.rows[k] = v
	}
	return c
}

// insertJoin is InsertJoin's specification.
func (m *refRel) insertJoin(args []val.T, cost lattice.Elem) bool {
	k := val.KeyOf(args)
	if old, ok := m.rows[k]; ok {
		if !m.info.HasCost {
			return false
		}
		j := m.info.L.Join(old.Cost, cost)
		if lattice.Eq(m.info.L, j, old.Cost) {
			return false
		}
		old.Cost = j
		m.rows[k] = old
		return true
	}
	if m.info.HasDefault && lattice.Eq(m.info.L, cost, m.info.L.Bottom()) {
		return false
	}
	m.add(k, args, cost)
	return true
}

func (m *refRel) add(k string, args []val.T, cost lattice.Elem) {
	row := Row{Args: append([]val.T(nil), args...), HasCost: m.info.HasCost}
	if m.info.HasCost {
		row.Cost = cost
	}
	m.order = append(m.order, k)
	m.rows[k] = row
}

// match lists, in insertion order, the rows agreeing with pattern.
func (m *refRel) match(pattern []*val.T) []Row {
	var out []Row
	for _, k := range m.order {
		row := m.rows[k]
		ok := true
		for i, p := range pattern {
			if p != nil && row.Args[i].Key() != p.Key() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// kernelValue draws a value of any kind from a domain small enough that
// tuples collide often: symbols; strings, some with a symbol's text (one
// text, two values); numbers, with zero of either sign, infinities and
// NaNs of several bit patterns (one value); booleans; and sets, nested
// two deep and holding any of these.
func kernelValue(r *rand.Rand, domain int) val.T {
	switch r.Intn(8) {
	case 0:
		if r.Intn(3) == 0 {
			return val.String(fmt.Sprintf("n%d", r.Intn(domain)))
		}
		return val.String(fmt.Sprintf("s%d", r.Intn(domain)))
	case 1:
		switch r.Intn(5) {
		case 0:
			return val.Number(math.Copysign(0, -1))
		case 1:
			return val.Number(math.Inf(1 - 2*r.Intn(2)))
		case 2:
			return val.Number(math.Float64frombits(0x7ff8000000000000 | uint64(r.Intn(4))))
		}
		return val.Number(float64(r.Intn(domain)) - 2.5)
	case 2:
		return val.Boolean(r.Intn(2) == 0)
	case 3:
		elems := []val.T{val.Symbol(fmt.Sprintf("e%d", r.Intn(3)))}
		switch r.Intn(4) {
		case 0:
			elems = append(elems, val.Number(float64(r.Intn(3))))
		case 1:
			elems = append(elems, val.String(fmt.Sprintf("e%d", r.Intn(3))), val.Number(math.NaN()))
		}
		if r.Intn(4) == 0 {
			inner := val.SetOf(val.Symbol("nested"))
			if r.Intn(2) == 0 {
				inner = val.SetOf(inner, val.Number(math.Copysign(0, -1)))
			}
			elems = append(elems, inner)
		}
		return val.SetOf(elems...)
	}
	return val.Symbol(fmt.Sprintf("n%d", r.Intn(domain)))
}

func kernelCost(r *rand.Rand, info *ast.PredInfo) lattice.Elem {
	if !info.HasCost {
		return val.T{}
	}
	if info.L == lattice.BoolOr {
		return val.Boolean(r.Intn(3) == 0)
	}
	return val.Number(float64(r.Intn(50)))
}

// checkSame compares the whole relation against the model: length,
// every row by id in insertion order, point lookups and sorted rows.
func checkSame(t *testing.T, what string, rel *Relation, m *refRel) {
	t.Helper()
	if rel.Len() != len(m.order) {
		t.Fatalf("%s: Len %d, model %d", what, rel.Len(), len(m.order))
	}
	for i, k := range m.order {
		want := m.rows[k]
		if got := rel.At(i); val.KeyOf(got.Args) != k || !sameRows([]Row{got}, []Row{want}) {
			t.Fatalf("%s: row %d = %v, model %v", what, i, got, want)
		}
		if got, ok := rel.Get(want.Args); !ok || !sameRows([]Row{got}, []Row{want}) {
			t.Fatalf("%s: Get(%v) = %v, %v", what, want.Args, got, ok)
		}
	}
	rows := rel.Rows()
	for i := 1; i < len(rows); i++ {
		if CompareArgs(rows[i-1].Args, rows[i].Args) >= 0 {
			t.Fatalf("%s: Rows not strictly sorted at %d", what, i)
		}
	}
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if val.KeyOf(a[i].Args) != val.KeyOf(b[i].Args) || a[i].HasCost != b[i].HasCost ||
			(a[i].HasCost && a[i].Cost.Key() != b[i].Cost.Key()) {
			return false
		}
	}
	return true
}

// kernelShapes are the schemas the model tests run on: plain, cost,
// default-value and unary.
var kernelShapes = []*ast.PredInfo{
	{Key: "p/2", Arity: 2},
	{Key: "s/3", Arity: 3, HasCost: true, L: lattice.MinReal},
	{Key: "t/4", Arity: 4, HasCost: true, L: lattice.BoolOr, HasDefault: true},
	{Key: "q/1", Arity: 1},
}

// TestKernelAgainstModel drives random operation sequences — InsertJoin,
// InsertStrict, Get, Match (building indexes before and after inserts),
// a private copy (DB.Clone's) followed by writes to either side,
// adopt-Join, cursors opened mid-insert — against the map model, across
// chunk boundaries and every value kind, for plain, cost and
// default-value relations. Clone's generations, of which only the newest
// may be written, have their own test: TestGenerationsAgainstModel.
func TestKernelAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, info := range kernelShapes {
			t.Run(fmt.Sprintf("%s/seed=%d", info.Key, seed), func(t *testing.T) {
				runKernelOps(t, rand.New(rand.NewSource(seed)), info)
			})
		}
	}
}

func runKernelOps(t *testing.T, r *rand.Rand, info *ast.PredInfo) {
	width := info.NonCost()
	domain := 3 + r.Intn(30)
	tuple := func() []val.T {
		args := make([]val.T, width)
		for i := range args {
			args[i] = kernelValue(r, domain)
		}
		return args
	}
	pattern := func(args []val.T) []*val.T {
		pat := make([]*val.T, width)
		for i := range pat {
			if r.Intn(2) == 0 {
				v := args[i]
				pat[i] = &v
			}
		}
		return pat
	}
	rels := []*Relation{New(info)}
	models := []*refRel{newRef(info)}
	if r.Intn(2) == 0 {
		rels[0].Reserve(r.Intn(700))
	}
	for op := 0; op < 2500; op++ {
		i := r.Intn(len(rels))
		rel, m := rels[i], models[i]
		switch x := r.Intn(100); {
		case x < 55:
			args, cost := tuple(), kernelCost(r, info)
			if got, want := rel.InsertJoin(args, cost), m.insertJoin(args, cost); got != want {
				t.Fatalf("op %d: InsertJoin(%v, %v) = %v, model %v", op, args, cost, got, want)
			}
		case x < 62:
			args, cost := tuple(), kernelCost(r, info)
			err := rel.InsertStrict(args, cost)
			old, had := m.rows[val.KeyOf(args)]
			var ce *ConflictError
			switch {
			case had && info.HasCost && !lattice.Eq(info.L, old.Cost, cost):
				if !errors.As(err, &ce) {
					t.Fatalf("op %d: InsertStrict over %v with %v: err %v, want a conflict", op, old.Cost, cost, err)
				}
			case err != nil:
				t.Fatalf("op %d: InsertStrict: %v", op, err)
			case !had:
				m.add(val.KeyOf(args), args, cost)
			}
		case x < 75:
			args := tuple()
			got, ok := rel.Get(args)
			want, had := m.rows[val.KeyOf(args)]
			if ok != had || ok && !sameRows([]Row{got}, []Row{want}) {
				t.Fatalf("op %d: Get(%v) = %v, %v; model %v, %v", op, args, got, ok, want, had)
			}
		case x < 88:
			pat := pattern(tuple())
			if len(m.order) > 0 && r.Intn(2) == 0 {
				pat = pattern(m.rows[m.order[r.Intn(len(m.order))]].Args)
			}
			var got []Row
			rel.Match(pat, func(row Row) bool { got = append(got, row); return true })
			if want := m.match(pat); !sameRows(got, want) {
				t.Fatalf("op %d: Match = %v, model %v", op, got, want)
			}
		case x < 93:
			// A cursor opened before further inserts offers exactly the
			// rows that matched when it was opened.
			if width == 0 {
				continue
			}
			key := tuple()
			if len(m.order) > 0 {
				key = m.rows[m.order[r.Intn(len(m.order))]].Args
			}
			var mask uint64
			pat := make([]*val.T, width)
			for j := range pat {
				if r.Intn(2) == 0 || j == 0 {
					mask |= 1 << uint(j)
					v := key[j]
					pat[j] = &v
				}
			}
			want := m.match(pat)
			c := rel.Seek(mask, key)
			for k := r.Intn(20); k > 0; k-- {
				args, cost := tuple(), kernelCost(r, info)
				copy(args, key[:width/2+1])
				rel.InsertJoin(args, cost)
				m.insertJoin(args, cost)
			}
			var got []Row
			for id, ok := c.Next(); ok; id, ok = c.Next() {
				got = append(got, rel.At(id))
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: cursor opened on %d rows offered %d", op, len(want), len(got))
			}
			for j := range got {
				if val.KeyOf(got[j].Args) != val.KeyOf(want[j].Args) {
					t.Fatalf("op %d: cursor row %d = %v, want %v", op, j, got[j].Args, want[j].Args)
				}
			}
		case x < 96 && len(rels) < 4:
			rels = append(rels, rel.copy())
			models = append(models, m.clone())
		case x < 98 && len(rels) < 4:
			same := *info // equal shape, distinct schema object
			dst := New(&same)
			if dst.Join(rel) != (rel.Len() > 0) {
				t.Fatalf("op %d: adopting %d rows reported the wrong change", op, rel.Len())
			}
			rels = append(rels, dst)
			models = append(models, m.clone())
		default:
			checkSame(t, fmt.Sprintf("op %d relation %d", op, i), rel, m)
		}
	}
	for i := range rels {
		checkSame(t, fmt.Sprintf("final relation %d", i), rels[i], models[i])
	}
}

// TestGroupSetAgainstModel drives random Add/Find/Reset sequences on a
// GroupSet against a map keyed by val.KeyOf, with the values the kernel
// test draws: groups are the distinct tuples in first-occurrence order.
func TestGroupSetAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var s GroupSet
		var order []string
		index := map[string]int{}
		width := 0
		for op := 0; op < 3000; op++ {
			if op%700 == 0 {
				width = r.Intn(4)
				s.Reset(width)
				order, index = nil, map[string]int{}
			}
			tuple := make([]val.T, width)
			for i := range tuple {
				tuple[i] = kernelValue(r, 8)
			}
			k := val.KeyOf(tuple)
			want, had := index[k]
			if r.Intn(3) == 0 {
				if got := s.Find(tuple); had && got != want || !had && got != -1 {
					t.Fatalf("seed %d op %d: Find(%v) = %d, model %d (present %v)", seed, op, tuple, got, want, had)
				}
				continue
			}
			g, added := s.Add(tuple)
			if !had {
				want = len(order)
				index[k] = want
				order = append(order, k)
			}
			if g != want || added == had {
				t.Fatalf("seed %d op %d: Add(%v) = %d, %v; model %d, new %v", seed, op, tuple, g, added, want, !had)
			}
			if s.Len() != len(order) {
				t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, s.Len(), len(order))
			}
			for g, k := range order {
				if val.KeyOf(s.At(g)) != k {
					t.Fatalf("seed %d op %d: group %d = %v, model %q", seed, op, g, s.At(g), k)
				}
			}
		}
	}
}

// chunkReserves are the Reserve sizes the chunk-boundary tests start
// from: none, below the first chunk, inside the chunk cap and past it.
var chunkReserves = []int{0, 3, 100, 5000}

// TestChunkBoundaries inserts across every chunk boundary of the arena
// — a fresh relation's and a reserved one's — and checks every row, its
// arguments' capacity (a row's slice never reaches into its neighbour)
// and that rows handed out before growth are unchanged after it.
func TestChunkBoundaries(t *testing.T) {
	for _, reserve := range chunkReserves {
		rel := New(&ast.PredInfo{Key: "e/3", Arity: 3, HasCost: true, L: lattice.MinReal})
		rel.Reserve(reserve)
		var early []Row
		const n = 3000
		for i := 0; i < n; i++ {
			if !rel.InsertJoin([]val.T{val.Number(float64(i)), val.Symbol("x")}, val.Number(float64(i))) {
				t.Fatalf("reserve %d: row %d not new", reserve, i)
			}
			if i == 7 || i == 600 {
				early = append(early, rel.At(i))
			}
		}
		for i := 0; i < n; i++ {
			row := rel.At(i)
			if row.Args[0].Num() != float64(i) || row.Cost.Num() != float64(i) || len(row.Args) != 2 || cap(row.Args) != 2 {
				t.Fatalf("reserve %d: row %d = %v (cap %d)", reserve, i, row, cap(row.Args))
			}
		}
		if early[0].Args[0].Num() != 7 || early[1].Args[0].Num() != 600 {
			t.Fatalf("reserve %d: rows moved under their holders: %v", reserve, early)
		}
	}
}

// TestKernelAllocations pins the storage kernel's allocation contract:
// the join-on-collision insert, Get, an index probe drained through its
// cursor and At allocate nothing, and inserting n new rows allocates
// O(log n) objects for the growing chunks and tables plus two chunks per
// 512 rows once chunks reach their cap — never an object per row.
func TestKernelAllocations(t *testing.T) {
	info := &ast.PredInfo{Key: "s/3", Arity: 3, HasCost: true, L: lattice.MinReal}
	rel := New(info)
	args := make([][]val.T, 10000)
	for i := range args {
		args[i] = []val.T{val.Symbol(fmt.Sprintf("u%d", i%100)), val.Symbol(fmt.Sprintf("v%d", i/100))}
	}
	fill := testing.AllocsPerRun(1, func() {
		rel = New(info)
		for i, a := range args {
			rel.InsertJoin(a, val.Number(float64(i)))
		}
	})
	if limit := 3*math.Log2(float64(len(args))) + 2*float64(len(args))/512 + 8; fill > limit {
		t.Fatalf("inserting %d rows allocated %.0f objects, want at most %.0f", len(args), fill, limit)
	}
	u := val.Symbol("u17")
	key := []val.T{u, {}}
	rel.Match([]*val.T{&u, nil}, func(Row) bool { return true }) // build the index
	for name, f := range map[string]func(){
		"join on collision": func() { rel.InsertJoin(args[4242], val.Number(-1)) },
		"Get":               func() { rel.Get(args[4242]) },
		"index probe": func() {
			c := rel.Seek(1, key)
			for _, ok := c.Next(); ok; _, ok = c.Next() {
			}
		},
		"At": func() { rel.At(4242) },
	} {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", name, avg)
		}
	}
}
