package exec_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Operator-level properties of the streaming executor, exercised
// directly against hand-built pipelines (no compiler in the loop): σ
// placement invariance, π dedup under the lattice merge, join symmetry,
// Δ-drive equivalence, and γ's grouped/point agreement.

// testSchema declares edge/2, blocked/1, a/2, b/2 (plain) and m/2
// (cost minreal) and returns the schemas plus a fresh database.
func testSchema(t *testing.T) (ast.Schemas, *relation.DB) {
	t.Helper()
	minreal, ok := lattice.ByName("minreal")
	if !ok {
		t.Fatal("no minreal lattice")
	}
	s := ast.Schemas{}
	plain := func(name string, arity int) {
		k := ast.MakePredKey(name, arity)
		s[k] = &ast.PredInfo{Key: k, Arity: arity}
	}
	plain("edge", 2)
	plain("blocked", 1)
	plain("a", 2)
	plain("b", 2)
	mk := ast.MakePredKey("m", 2)
	s[mk] = &ast.PredInfo{Key: mk, Arity: 2, HasCost: true, L: minreal}
	return s, relation.NewDB(s)
}

// scanAtom builds a plain (non-cost) scan/neg atom binding argVars.
func scanAtom(s ast.Schemas, name string, argVars ...int) exec.Atom {
	k := ast.MakePredKey(name, len(argVars))
	return exec.Atom{
		Pred:    k,
		Info:    s.Info(k),
		ArgVar:  argVars,
		ArgVal:  make([]val.T, len(argVars)),
		CostVar: -1,
	}
}

// runPipeline acquires a machine, pulls every emission as a rendered
// binding string, and returns the emissions with the stats counters.
func runPipeline(t *testing.T, r *exec.Rule, cfg exec.Config) (out []string, firings, probes int64) {
	t.Helper()
	m := r.Acquire(cfg)
	err := m.Run(func(m *exec.Machine) error {
		var b strings.Builder
		for i := range m.Vals {
			if m.Bound[i] {
				fmt.Fprintf(&b, "%d=%s;", i, m.Vals[i].String())
			}
		}
		out = append(out, b.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	firings = m.Firings
	for i := range r.Steps {
		probes += m.Counts(i).Probes
	}
	r.Release(m)
	return out, firings, probes
}

func sym(s string) val.T { return val.Symbol(s) }

// randomEdges populates edge/2 and blocked/1 with a deterministic
// pseudo-random graph.
func randomEdges(db *relation.DB, rng *rand.Rand, nodes, edges int) {
	edgeRel := db.Rel(ast.MakePredKey("edge", 2))
	blockedRel := db.Rel(ast.MakePredKey("blocked", 1))
	node := func() val.T { return sym(fmt.Sprintf("n%d", rng.Intn(nodes))) }
	for i := 0; i < edges; i++ {
		edgeRel.InsertJoin([]val.T{node(), node()}, lattice.Elem{})
	}
	for i := 0; i < nodes/3; i++ {
		blockedRel.InsertJoin([]val.T{node()}, lattice.Elem{})
	}
}

// TestSelectionPushdown: a σ (negation filter) that depends only on
// variables bound by the first scan can run before or after the second
// scan of a join pipeline with identical output — not just the same
// set, the same emission sequence, since σ only filters a deterministic
// stream. This is the algebraic σ-through-⋈ rewrite the compiler's
// fixed step order relies on.
func TestSelectionPushdown(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s, db := testSchema(t)
		rng := rand.New(rand.NewSource(int64(trial)))
		randomEdges(db, rng, 8, 24)
		const X, Y, Z = 0, 1, 2
		scanXY := exec.Step{Kind: exec.ScanKind, Atom: scanAtom(s, "edge", X, Y)}
		scanYZ := exec.Step{Kind: exec.ScanKind, Atom: scanAtom(s, "edge", Y, Z)}
		sigma := exec.Step{Kind: exec.NegKind, Atom: scanAtom(s, "blocked", Y)}
		early := exec.NewRule(3, []exec.Step{scanXY, sigma, scanYZ}, exec.Hooks{})
		late := exec.NewRule(3, []exec.Step{scanXY, scanYZ, sigma}, exec.Hooks{})
		eOut, eFir, _ := runPipeline(t, early, exec.Config{DB: db})
		lOut, lFir, _ := runPipeline(t, late, exec.Config{DB: db})
		if strings.Join(eOut, "\n") != strings.Join(lOut, "\n") {
			t.Fatalf("trial %d: σ placement changed the join output:\nearly:\n%s\nlate:\n%s",
				trial, strings.Join(eOut, "\n"), strings.Join(lOut, "\n"))
		}
		if eFir != lFir {
			t.Fatalf("trial %d: firings differ: early=%d late=%d", trial, eFir, lFir)
		}
	}
}

// TestProjectionDedupLatticeMerge: projecting duplicate tuples into a
// cost relation is not set-dedup but a lattice merge — whatever order
// the duplicates stream in, the stored cost is the meet (min) of all of
// them, and only genuine improvements report as inserts.
func TestProjectionDedupLatticeMerge(t *testing.T) {
	costs := []float64{5, 3, 9, 3, 7}
	perm := []int{0, 1, 2, 3, 4}
	mk := ast.MakePredKey("m", 2)
	var want string
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		s, db := testSchema(t)
		src := db.Rel(mk)
		for _, i := range perm {
			src.InsertJoin([]val.T{sym("g")}, val.Number(costs[i]))
		}
		// Stream the merged source through a scan and π it into a fresh
		// head relation.
		const G, D = 0, 1
		at := scanAtom(s, "m", G)
		at.Pred, at.Info, at.CostVar = mk, s.Info(mk), D
		r := exec.NewRule(2, []exec.Step{{Kind: exec.ScanKind, Atom: at}}, exec.Hooks{})
		dst := relation.NewDB(s).Rel(mk)
		m := r.Acquire(exec.Config{DB: db})
		if err := m.Run(func(m *exec.Machine) error {
			dst.InsertJoin([]val.T{m.Vals[G]}, m.Vals[D])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		r.Release(m)
		row, ok := dst.Get([]val.T{sym("g")})
		if !ok || dst.Len() != 1 {
			t.Fatalf("trial %d: want exactly one merged tuple, got len=%d", trial, dst.Len())
		}
		got := row.Cost.String()
		if want == "" {
			want = got
		}
		if got != want || got != "3" {
			t.Fatalf("trial %d (order %v): merged cost %s, want 3", trial, perm, got)
		}
	}
}

// TestSymmetricJoinOrder: joining a ⋈ b in either step order yields the
// same result set, and the two orders agree exactly after sorting —
// the executor introduces no order nondeterminism of its own.
func TestSymmetricJoinOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s, db := testSchema(t)
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		aRel := db.Rel(ast.MakePredKey("a", 2))
		bRel := db.Rel(ast.MakePredKey("b", 2))
		node := func() val.T { return sym(fmt.Sprintf("n%d", rng.Intn(6))) }
		for i := 0; i < 18; i++ {
			aRel.InsertJoin([]val.T{node(), node()}, lattice.Elem{})
			bRel.InsertJoin([]val.T{node(), node()}, lattice.Elem{})
		}
		const X, Y, Z = 0, 1, 2
		ab := exec.NewRule(3, []exec.Step{
			{Kind: exec.ScanKind, Atom: scanAtom(s, "a", X, Y)},
			{Kind: exec.ScanKind, Atom: scanAtom(s, "b", Y, Z)},
		}, exec.Hooks{})
		ba := exec.NewRule(3, []exec.Step{
			{Kind: exec.ScanKind, Atom: scanAtom(s, "b", Y, Z)},
			{Kind: exec.ScanKind, Atom: scanAtom(s, "a", X, Y)},
		}, exec.Hooks{})
		abOut, abFir, _ := runPipeline(t, ab, exec.Config{DB: db})
		baOut, baFir, _ := runPipeline(t, ba, exec.Config{DB: db})
		sort.Strings(abOut)
		sort.Strings(baOut)
		if strings.Join(abOut, "\n") != strings.Join(baOut, "\n") {
			t.Fatalf("trial %d: a⋈b and b⋈a disagree after sort:\n%s\nvs\n%s",
				trial, strings.Join(abOut, "\n"), strings.Join(baOut, "\n"))
		}
		if abFir != baFir {
			t.Fatalf("trial %d: join cardinality differs by order: %d vs %d", trial, abFir, baFir)
		}
	}
}

// TestDeltaDriveEquivalence: driving the join from a Δ row set
// (Config.RestrictIDs) must emit exactly the full join's results whose
// driving row is in Δ, in Δ order — the semi-naive restriction is a
// filter, never a semantic change. With Δ = the full extension the
// restricted run reproduces the full scan byte for byte.
func TestDeltaDriveEquivalence(t *testing.T) {
	s, db := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	randomEdges(db, rng, 8, 30)
	edgeRel := db.Rel(ast.MakePredKey("edge", 2))
	const X, Y, Z = 0, 1, 2
	join := exec.NewRule(3, []exec.Step{
		{Kind: exec.ScanKind, Atom: scanAtom(s, "edge", X, Y)},
		{Kind: exec.ScanKind, Atom: scanAtom(s, "edge", Y, Z)},
	}, exec.Hooks{})

	full, fullFir, fullPr := runPipeline(t, join, exec.Config{DB: db})
	all := make([]int32, edgeRel.Len())
	for i := range all {
		all[i] = int32(i)
	}
	delta, deltaFir, deltaPr := runPipeline(t, join, exec.Config{DB: db, RestrictStep: 0, RestrictIDs: all})
	if strings.Join(full, "\n") != strings.Join(delta, "\n") {
		t.Fatalf("Δ=extension differs from full scan:\n%s\nvs\n%s",
			strings.Join(full, "\n"), strings.Join(delta, "\n"))
	}
	if fullFir != deltaFir || fullPr != deltaPr {
		t.Fatalf("Δ=extension stats differ: firings %d/%d probes %d/%d", fullFir, deltaFir, fullPr, deltaPr)
	}

	// A strict subset Δ must yield exactly the expected nested-loop join
	// of Δ against the full relation.
	sub := all[:len(all)/2]
	var want []string
	for _, i1 := range sub {
		r1 := edgeRel.At(int(i1))
		for _, i2 := range all {
			r2 := edgeRel.At(int(i2))
			if val.Equal(r1.Args[1], r2.Args[0]) {
				want = append(want, fmt.Sprintf("0=%s;1=%s;2=%s;", r1.Args[0], r1.Args[1], r2.Args[1]))
			}
		}
	}
	got, _, _ := runPipeline(t, join, exec.Config{DB: db, RestrictStep: 0, RestrictIDs: sub})
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("subset Δ join mismatch:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestAggGroupedMatchesPoint: γ's full grouped enumeration (grouping
// variables unbound; groups emitted in sorted key order) must agree
// group-for-group with point-mode queries that arrive with the group
// already bound — the same fold over the same multiset either way.
func TestAggGroupedMatchesPoint(t *testing.T) {
	s, db := testSchema(t)
	mk := ast.MakePredKey("m", 2)
	src := db.Rel(mk)
	rng := rand.New(rand.NewSource(11))
	groups := []string{"g0", "g1", "g2", "g3"}
	for i := 0; i < 40; i++ {
		g := groups[rng.Intn(len(groups))]
		src.InsertJoin([]val.T{sym(g + fmt.Sprintf("k%d", rng.Intn(10)))}, val.Number(float64(rng.Intn(50))))
	}
	f, ok := lattice.AggregateByName("min")
	if !ok {
		t.Fatal("no min aggregate")
	}
	const G, D, R = 0, 1, 2
	conj := scanAtom(s, "m", G)
	conj.Pred, conj.Info, conj.CostVar = mk, s.Info(mk), D
	agg := &exec.AggStep{
		G:          &ast.Agg{Func: "min"},
		Restricted: true,
		Result:     R,
		GroupVars:  []int{G},
		MsVar:      D,
		Conj:       []exec.Atom{conj},
		Apply:      f.Apply,
		Range:      f.Range(),
		OrderFull:  []int{0},
		OrderPoint: []int{0},
	}
	grouped := exec.NewRule(3, []exec.Step{{Kind: exec.AggKind, Agg: agg}}, exec.Hooks{})
	gOut, _, _ := runPipeline(t, grouped, exec.Config{DB: db})

	// Point mode: seed G from each stored group via a driving scan whose
	// cost is projected away, then aggregate. The Δ-grouped mode with
	// every group listed must agree too.
	var want []string
	onlyGroups := map[string]exec.GroupRef{}
	seen := map[string]bool{}
	for _, row := range src.Rows() {
		k := row.Args[0].String()
		if seen[k] {
			continue
		}
		seen[k] = true
		onlyGroups[string(val.AppendKeyOf(nil, row.Args[:1]))] = exec.GroupRef{Args: row.Args, Pos: []int{0}}
	}
	// Expected: per-group minimum, groups in sorted key order.
	type gv struct {
		key  string
		g    val.T
		min  float64
		seen bool
	}
	byKey := map[string]*gv{}
	for _, row := range src.Rows() {
		k := string(val.AppendKeyOf(nil, row.Args[:1]))
		e := byKey[k]
		if e == nil {
			e = &gv{key: k, g: row.Args[0]}
			byKey[k] = e
		}
		if !e.seen || row.Cost.N < e.min {
			e.min, e.seen = row.Cost.N, true
		}
	}
	var keys []string
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := byKey[k]
		want = append(want, fmt.Sprintf("0=%s;2=%s;", e.g, val.Number(e.min)))
	}
	if strings.Join(gOut, "\n") != strings.Join(want, "\n") {
		t.Fatalf("grouped γ disagrees with per-group fold:\n%s\nwant:\n%s",
			strings.Join(gOut, "\n"), strings.Join(want, "\n"))
	}
	dOut, _, _ := runPipeline(t, grouped, exec.Config{DB: db, AggGroups: map[int]map[string]exec.GroupRef{0: onlyGroups}})
	if strings.Join(dOut, "\n") != strings.Join(gOut, "\n") {
		t.Fatalf("Δ-grouped γ over all groups disagrees with full enumeration:\n%s\nwant:\n%s",
			strings.Join(dOut, "\n"), strings.Join(gOut, "\n"))
	}
}
