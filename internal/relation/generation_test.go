package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// genStream reads a generation run's choices from bytes: the unit test
// draws them from a seeded source and the fuzzer mutates them. A read
// past the end yields 0, and the run stops once the stream is spent.
type genStream struct {
	b []byte
	i int
}

// intn returns the next choice in [0, n), for n ≤ 1<<16.
func (s *genStream) intn(n int) int {
	v := 0
	for k := 0; k < 2; k++ {
		if s.i < len(s.b) {
			v = v<<8 | int(s.b[s.i])
		}
		s.i++
		if n <= 256 {
			break
		}
	}
	return v % n
}

// generation is one relation of a generation tree and its map model.
type generation struct {
	rel *Relation
	m   *refRel
	tip bool // the test's own account of whether rel may be written
}

// maxSteps bounds a run however long its stream, so that a fuzzed input
// stays cheap to execute.
const maxSteps = 400

// freshBatches are the sizes of the runs of new rows a step appends:
// enough to carry a generation across the chunk boundaries
// TestChunkBoundaries walks and the cost pages' 64-row boundaries.
var freshBatches = []int{1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 100, 511, 512, 513}

// runGenerations drives a tree of generations of one relation: clones
// of the tip (which take its storage over), forks of older generations,
// inserts of new rows, joins that raise costs below and above the clone
// point, lazily built indexes and cursors opened before a write. After
// every step every live generation must equal its own model — so a row
// or cost written through one generation's shared storage never shows
// in another.
func runGenerations(t *testing.T, info *ast.PredInfo, reserve int, s *genStream) {
	width := info.NonCost()
	first := New(info)
	first.Reserve(reserve)
	gens := []*generation{{rel: first, m: newRef(info), tip: true}}
	var recent [][]val.T // tuples last written to any generation
	fresh := 0
	freshTuple := func() []val.T {
		fresh++
		// Position 0 makes the tuple new; the others repeat, so index
		// chains run from an older generation's rows into newer ones.
		args := make([]val.T, width)
		for i := range args {
			args[i] = val.Number(float64(fresh % (3 + 2*i)))
		}
		args[0] = val.Number(float64(fresh))
		if width > 1 {
			args[1] = val.Symbol(fmt.Sprintf("f%d", fresh%7))
		}
		return args
	}
	smallTuple := func() []val.T {
		args := make([]val.T, width)
		for i := range args {
			args[i] = val.Number(float64(s.intn(6)))
		}
		return args
	}
	cost := func() lattice.Elem {
		switch {
		case !info.HasCost:
			return val.T{}
		case info.L == lattice.BoolOr:
			return val.Boolean(s.intn(3) == 0)
		}
		return val.Number(float64(s.intn(50)))
	}
	pick := func(ok func(*generation) bool) *generation {
		var from []*generation
		for _, g := range gens {
			if ok(g) {
				from = append(from, g)
			}
		}
		if len(from) == 0 {
			return nil
		}
		return from[s.intn(len(from))]
	}
	tips := func(g *generation) bool { return g.tip }
	frozen := func(g *generation) bool { return !g.tip }
	all := func(*generation) bool { return true }
	write := func(op string, g *generation, args []val.T, c lattice.Elem) {
		if got, want := g.rel.InsertJoin(args, c), g.m.insertJoin(args, c); got != want {
			t.Fatalf("%s: InsertJoin(%v, %v) = %v, model %v", op, args, c, got, want)
		}
		recent = append(recent, args)
		if len(recent) > 12 {
			recent = recent[1:]
		}
	}

	for step := 0; s.i < len(s.b) && step < maxSteps; step++ {
		op := fmt.Sprintf("step %d", step)
		k := s.intn(100)
		g := pick(tips)
		if g == nil && k < 58 {
			continue // every generation left is frozen: only reads and forks
		}
		switch {
		case k < 25:
			for n := freshBatches[s.intn(len(freshBatches))]; n > 0 && g.rel.Len() < 1600; n-- {
				write(op, g, freshTuple(), cost())
			}
		case k < 40:
			write(op, g, smallTuple(), cost())
		case k < 52:
			// Raise the cost of a stored row, half the time one the
			// generation shares with the one it extends.
			if g.m.order == nil {
				continue
			}
			i := s.intn(len(g.m.order))
			if g.rel.base > 0 && s.intn(2) == 0 {
				i = s.intn(min(g.rel.base, len(g.m.order)))
			}
			row := g.m.rows[g.m.order[i]]
			c := row.Cost
			switch {
			case info.L == lattice.MinReal:
				c = val.Number(row.Cost.Num() - float64(1+s.intn(3)))
			case info.HasCost:
				c = val.Boolean(true)
			}
			write(op, g, row.Args, c)
		case k < 58:
			args, c := smallTuple(), cost()
			err := g.rel.InsertStrict(args, c)
			old, had := g.m.rows[val.KeyOf(args)]
			switch conflict := had && info.HasCost && !lattice.Eq(info.L, old.Cost, c); {
			case conflict != (err != nil):
				t.Fatalf("%s: InsertStrict(%v, %v) over %v: %v", op, args, c, old, err)
			case !had:
				g.m.add(val.KeyOf(args), args, c)
				recent = append(recent, args)
			}
		case k < 70:
			// A cursor opened before writes offers the rows that matched
			// when it was opened; on a frozen generation there are none.
			g := pick(all)
			key := smallTuple()
			if len(g.m.order) > 0 && s.intn(2) == 0 {
				key = g.m.rows[g.m.order[s.intn(len(g.m.order))]].Args
			}
			mask := uint64(1 + s.intn(1<<width-1))
			pat := make([]*val.T, width)
			for j := range pat {
				if mask&(1<<j) != 0 {
					pat[j] = &key[j]
				}
			}
			want := matchWords(g.m, pat)
			c := g.rel.Seek(mask, key)
			if g.tip {
				for n := s.intn(6); n > 0; n-- {
					args := freshTuple()
					for j := range args {
						if mask&(1<<j) != 0 {
							args[j] = key[j]
						}
					}
					write(op, g, args, cost())
				}
			}
			// (A write may have raised an offered row's cost since.)
			n := 0
			for id, ok := c.Next(); ok; id, ok = c.Next() {
				if n >= len(want) || !slices.Equal(g.rel.At(id).Args, want[n].Args) {
					t.Fatalf("%s: cursor on mask %b offers row %d, %v; model %v", op, mask, n, g.rel.At(id).Args, want)
				}
				n++
			}
			if n != len(want) {
				t.Fatalf("%s: cursor on mask %b offered %d rows, model %d", op, mask, n, len(want))
			}
		case k < 82:
			if g == nil || len(gens) >= 6 {
				continue
			}
			c := g.rel.Clone()
			if g.rel.Len() > 0 {
				if c.lin.Load() != g.rel.lin.Load() || c.base != g.rel.Len() {
					t.Fatalf("%s: a clone of the tip did not take its storage over", op)
				}
				g.tip = false
			}
			gens = append(gens, &generation{rel: c, m: g.m.clone(), tip: true})
		case k < 90:
			g := pick(frozen)
			if g == nil || len(gens) >= 6 {
				continue
			}
			c := g.rel.Clone()
			if c.lin.Load() == g.rel.lin.Load() {
				t.Fatalf("%s: a clone of a superseded generation joined its lineage", op)
			}
			gens = append(gens, &generation{rel: c, m: g.m.clone(), tip: true})
		default:
			if len(gens) > 1 {
				i := s.intn(len(gens))
				gens = append(gens[:i], gens[i+1:]...)
			}
		}
		// Rows sorts, so only the step's target and the newest
		// generation check it; every generation checks every row by id.
		for i, x := range gens {
			checkGeneration(t, fmt.Sprintf("%s generation %d", op, i), x, recent, s, x == g || i == len(gens)-1)
		}
	}
	for i, g := range gens {
		checkGeneration(t, fmt.Sprintf("final generation %d", i), g, recent, s, true)
	}
}

// checkGeneration compares one generation with its model: Len, whether
// it is writable, every row by id, Get and ID of the tuples last written
// anywhere and of a few of its own rows, one Match, and — when sorted is
// set, for the generations a step wrote or cloned — Rows.
func checkGeneration(t *testing.T, what string, g *generation, recent [][]val.T, s *genStream, sorted bool) {
	t.Helper()
	rel, m := g.rel, g.m
	if rel.Len() != len(m.order) {
		t.Fatalf("%s: Len %d, model %d", what, rel.Len(), len(m.order))
	}
	if l := rel.lin.Load(); (l == nil || l.tip.Load() == rel) != g.tip {
		t.Fatalf("%s: tip %v, model %v", what, !g.tip, g.tip)
	}
	probe := append([][]val.T(nil), recent...)
	for k := 0; k < 4 && len(m.order) > 0; k++ {
		probe = append(probe, m.rows[m.order[s.intn(len(m.order))]].Args)
	}
	for _, args := range probe {
		want, had := m.rows[val.KeyOf(args)]
		got, ok := rel.Get(args)
		if ok != had || ok && !sameWords([]Row{got}, []Row{want}) {
			t.Fatalf("%s: Get(%v) = %v, %v; model %v, %v", what, args, got, ok, want, had)
		}
		if id := rel.ID(args); (id >= 0) != had || had && !slices.Equal(rel.At(id).Args, args) {
			t.Fatalf("%s: ID(%v) = %d, model present %v", what, args, id, had)
		}
	}
	want := make([]Row, 0, len(m.order))
	var row Row
	for i, k := range m.order {
		want = append(want, m.rows[k])
		if rel.Load(i, &row); !sameWords([]Row{row}, want[i:]) {
			t.Fatalf("%s: row %d = %v, model %v", what, i, row, want[i])
		}
	}
	if sorted {
		SortRows(want)
		if !sameWords(rel.Rows(), want) {
			t.Fatalf("%s: Rows differ from the model's", what)
		}
	}
	if len(m.order) > 0 {
		args := m.rows[m.order[s.intn(len(m.order))]].Args
		pat := make([]*val.T, len(args))
		for j := range pat {
			if s.intn(2) == 0 {
				pat[j] = &args[j]
			}
		}
		var got []Row
		rel.Match(pat, func(row Row) bool { got = append(got, row); return true })
		if want := matchWords(m, pat); !sameWords(got, want) {
			t.Fatalf("%s: Match = %v, model %v", what, got, want)
		}
	}
}

// sameWords compares rows word for word. The values this test draws have
// one encoding each, so word equality is tuple identity, and it is much
// cheaper than comparing val.KeyOf strings.
func sameWords(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Args, b[i].Args) || a[i].HasCost != b[i].HasCost || a[i].Cost != b[i].Cost {
			return false
		}
	}
	return true
}

// matchWords is refRel.match by word equality (see sameWords).
func matchWords(m *refRel, pattern []*val.T) []Row {
	var out []Row
	for _, k := range m.order {
		row := m.rows[k]
		ok := true
		for i, p := range pattern {
			if p != nil && row.Args[i] != *p {
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

// generationCases are the unit test's runs, which also seed the fuzzer:
// every shape of the kernel test at every reserve TestChunkBoundaries
// uses, with choices drawn from a seeded source.
func generationCases() (shapes []int, reserves []int, streams [][]byte) {
	for seed := int64(1); seed <= 3; seed++ {
		for si := range kernelShapes {
			for ri := range chunkReserves {
				b := make([]byte, 900)
				rand.New(rand.NewSource(seed*100 + int64(si*10+ri))).Read(b)
				shapes, reserves, streams = append(shapes, si), append(reserves, ri), append(streams, b)
			}
		}
	}
	return shapes, reserves, streams
}

// TestGenerationsAgainstModel runs random operation sequences over trees
// of generations (see runGenerations) against per-generation map models.
func TestGenerationsAgainstModel(t *testing.T) {
	shapes, reserves, streams := generationCases()
	for i := range streams {
		info, reserve := kernelShapes[shapes[i]], chunkReserves[reserves[i]]
		t.Run(fmt.Sprintf("%s/reserve=%d/case=%d", info.Key, reserve, i), func(t *testing.T) {
			runGenerations(t, info, reserve, &genStream{b: streams[i]})
		})
	}
}

// FuzzGenerations is TestGenerationsAgainstModel over arbitrary choice
// streams, seeded with its cases.
func FuzzGenerations(f *testing.F) {
	shapes, reserves, streams := generationCases()
	for i := range streams {
		f.Add(uint8(shapes[i]), uint8(reserves[i]), streams[i])
	}
	f.Fuzz(func(t *testing.T, shape, reserve uint8, stream []byte) {
		info := kernelShapes[int(shape)%len(kernelShapes)]
		runGenerations(t, info, chunkReserves[int(reserve)%len(chunkReserves)], &genStream{b: stream})
	})
}

// TestWriteToSupersededGenerationPanics: once a clone has taken a
// relation's storage over, writing the relation — a new row or a raised
// cost — panics with the predicate's name instead of changing what the
// clone reads. The clone, and a fork of the old relation, stay writable.
func TestWriteToSupersededGenerationPanics(t *testing.T) {
	info := &ast.PredInfo{Key: ast.MakePredKey("s", 3), Arity: 3, HasCost: true, L: lattice.MinReal}
	old := New(info)
	for i := 0; i < 10; i++ {
		old.InsertJoin([]val.T{val.Number(float64(i)), val.Symbol("x")}, val.Number(10))
	}
	next := old.Clone()
	for name, write := range map[string]func(){
		"new row":     func() { old.InsertJoin([]val.T{val.Number(99), val.Symbol("x")}, val.Number(1)) },
		"raised cost": func() { old.InsertJoin([]val.T{val.Number(3), val.Symbol("x")}, val.Number(1)) },
		"strict":      func() { old.InsertStrict([]val.T{val.Number(98), val.Symbol("x")}, val.Number(1)) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "s/3") {
					t.Errorf("%s: recovered %q, want a panic naming s/3", name, msg)
				}
			}()
			write()
		}()
	}
	if !next.InsertJoin([]val.T{val.Number(3), val.Symbol("x")}, val.Number(1)) || old.Len() != 10 {
		t.Fatal("the clone must stay writable and the old relation unchanged")
	}
	if row, _ := old.Get([]val.T{val.Number(3), val.Symbol("x")}); row.Cost.Num() != 10 {
		t.Fatalf("the clone's raised cost shows in the old relation: %v", row.Cost)
	}
	fork := old.Clone()
	if !fork.InsertJoin([]val.T{val.Number(99), val.Symbol("x")}, val.Number(1)) || fork.Len() != 11 || next.Len() != 10 {
		t.Fatal("a fork of the old relation must be writable on its own")
	}
}

// TestCostCopyOnWriteByPage: the first raise of a cost below the clone
// point copies that row's 64-row cost page and nothing more — every other
// page stays shared with the older generation, which keeps reading its
// own costs, and a later raise in the copied page writes in place — for
// a clone that extends the tip in place and for a fork, whose partial
// last page is its own from the start.
func TestCostCopyOnWriteByPage(t *testing.T) {
	info := &ast.PredInfo{Key: ast.MakePredKey("s", 3), Arity: 3, HasCost: true, L: lattice.MinReal}
	key := func(i int) []val.T { return []val.T{val.Number(float64(i)), val.Symbol("x")} }
	for _, reserve := range chunkReserves {
		old := New(info)
		old.Reserve(reserve)
		const n = 1000
		for i := 0; i < n; i++ {
			old.InsertJoin(key(i), val.Number(100))
		}
		shared := func(a, b *Relation, p int) bool { return &a.costs[p][0] == &b.costs[p][0] }
		check := func(what string, gen *Relation, raised int) {
			t.Helper()
			if !gen.InsertJoin(key(raised), val.Number(1)) {
				t.Fatalf("reserve %d, %s: raising row %d changed nothing", reserve, what, raised)
			}
			p, _ := gen.page(raised)
			if cap(gen.costs[p]) != pageRows {
				t.Errorf("reserve %d, %s: copied page %d holds %d rows, want %d", reserve, what, p, cap(gen.costs[p]), pageRows)
			}
			full, _ := gen.page(n &^ (pageRows - 1)) // the pages before it are full
			for q := 0; q < full; q++ {
				if shared(old, gen, q) == (q == p) {
					t.Errorf("reserve %d, %s: page %d shared = %v after raising row %d (page %d)", reserve, what, q, shared(old, gen, q), raised, p)
				}
			}
			if row, _ := old.Get(key(raised)); row.Cost.Num() != 100 {
				t.Fatalf("reserve %d, %s: the raise shows in the older generation: %v", reserve, what, row.Cost)
			}
			// The page is the generation's own now: a second raise in it
			// writes in place.
			own := &gen.costs[p][0]
			gen.InsertJoin(key(raised+1), val.Number(1))
			if &gen.costs[p][0] != own {
				t.Errorf("reserve %d, %s: a second raise in page %d copied it again", reserve, what, p)
			}
		}
		next := old.Clone()
		check("clone", next, 700)
		fork := old.Clone()
		check("fork", fork, 300)
		if last, _ := fork.page(n - 1); shared(old, fork, last) {
			t.Errorf("reserve %d: the fork shares the partial last page", reserve)
		}
	}
}
