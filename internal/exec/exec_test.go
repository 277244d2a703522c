package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/parser"
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
		early := exec.NewRule(3, []exec.Step{scanXY, sigma, scanYZ})
		late := exec.NewRule(3, []exec.Step{scanXY, scanYZ, sigma})
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
		r := exec.NewRule(2, []exec.Step{{Kind: exec.ScanKind, Atom: at}})
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
		})
		ba := exec.NewRule(3, []exec.Step{
			{Kind: exec.ScanKind, Atom: scanAtom(s, "b", Y, Z)},
			{Kind: exec.ScanKind, Atom: scanAtom(s, "a", X, Y)},
		})
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
	})

	full, fullFir, fullPr := runPipeline(t, join, exec.Config{DB: db})
	all := make([]int32, edgeRel.Len())
	for i := range all {
		all[i] = int32(i)
	}
	delta, deltaFir, deltaPr := runPipeline(t, join, exec.Config{DB: db, RestrictIDs: all})
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
	got, _, _ := runPipeline(t, join, exec.Config{DB: db, RestrictIDs: sub})
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("subset Δ join mismatch:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestAggGroupedMatchesPoint: γ's full grouped enumeration (grouping
// variables unbound; groups emitted in first-occurrence order) must agree
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
		G:          &ast.Agg{Func: "min", Restricted: true},
		F:          f,
		Result:     R,
		GroupVars:  []int{G},
		MsVar:      D,
		Conj:       []exec.Atom{conj},
		OrderFull:  []int{0},
		OrderPoint: []int{0},
		KeyPos:     [][]int{{0}},
	}
	grouped := exec.NewRule(3, []exec.Step{{Kind: exec.AggKind, Agg: agg}})
	gOut, _, _ := runPipeline(t, grouped, exec.Config{DB: db})

	// Expected: per-group minimum, groups in first-occurrence order — the
	// relation's row order, since each row's argument is its group.
	var all relation.GroupSet
	all.Reset(1)
	mins := map[int]float64{}
	src.Each(func(row relation.Row) bool {
		if g, added := all.Add(row.Args[:1]); added || row.Cost.Num() < mins[g] {
			mins[g] = row.Cost.Num()
		}
		return true
	})
	var want []string
	for g := 0; g < all.Len(); g++ {
		want = append(want, fmt.Sprintf("0=%s;2=%s;", all.At(g)[0], val.Number(mins[g])))
	}
	if strings.Join(gOut, "\n") != strings.Join(want, "\n") {
		t.Fatalf("grouped γ disagrees with per-group fold:\n%s\nwant:\n%s",
			strings.Join(gOut, "\n"), strings.Join(want, "\n"))
	}
	// The Δ-grouped mode with every row in Δ must agree too, emitting the
	// groups in the order the Δ rows first name them.
	allIDs := make([]int32, src.Len())
	for i := range allIDs {
		allIDs[i] = int32(i)
	}
	dOut, _, _ := runPipeline(t, grouped, exec.Config{DB: db, AggDelta: deltaOf{conj.Num: allIDs}})
	if strings.Join(dOut, "\n") != strings.Join(gOut, "\n") {
		t.Fatalf("Δ-grouped γ over all groups disagrees with full enumeration:\n%s\nwant:\n%s",
			strings.Join(dOut, "\n"), strings.Join(gOut, "\n"))
	}
	// A Δ naming each group's first row, last group first.
	var revIDs []int32
	for g := all.Len() - 1; g >= 0; g-- {
		revIDs = append(revIDs, int32(slices.IndexFunc(allIDs, func(id int32) bool {
			return val.Equal(src.At(int(id)).Args[0], all.At(g)[0])
		})))
	}
	rOut, _, _ := runPipeline(t, grouped, exec.Config{DB: db, AggDelta: deltaOf{conj.Num: revIDs}})
	slices.Reverse(rOut)
	if strings.Join(rOut, "\n") != strings.Join(gOut, "\n") {
		t.Fatalf("Δ-grouped γ must emit the listed groups in the listed order:\n%s\nwant reversed:\n%s",
			strings.Join(rOut, "\n"), strings.Join(gOut, "\n"))
	}
}

// TestBuiltinEvalMatchesAST: BuiltinStep.Eval runs register-compiled
// operands, and must return what ast.EvalExpr and ast.Compare return on
// the same bindings — the same truth value, the same assigned value, or
// the same error text under the "core: builtin" prefix.
func TestBuiltinEvalMatchesAST(t *testing.T) {
	env := map[ast.Var]val.T{"X": val.Number(3), "Y": val.Number(4), "S": sym("a")}
	for _, tc := range []struct {
		src    string
		assign ast.Var // the variable the assignment form binds, "" for a test
	}{
		{src: "3 < 5"},
		{src: "2 * (X + Y) - Y / 4 = 13"},
		{src: "X - (Y * 2) >= 0"},
		{src: "X / (Y - 4) > 1"}, // division by zero
		{src: "S + 1 = 2"},       // a symbol in arithmetic
		{src: "S < 1"},           // ordered comparison of a symbol
		{src: "S = a"},
		{src: "X < Z"}, // Z unbound
		{src: "Z = X * Y + 1", assign: "Z"},
		{src: "(X + 1) / 2 = W", assign: "W"},
	} {
		t.Run(tc.src, func(t *testing.T) {
			prog, err := parser.Parse("h :- " + tc.src + ".")
			if err != nil {
				t.Fatal(err)
			}
			b := prog.Rules[0].Body[0].(*ast.Builtin)
			var names []ast.Var
			idxOf := func(v ast.Var) int {
				if i := slices.Index(names, v); i >= 0 {
					return i
				}
				names = append(names, v)
				return len(names) - 1
			}
			step := exec.NewBuiltin(b, idxOf)
			vals, bound := make([]val.T, len(names)), make([]bool, len(names))
			for i, v := range names {
				vals[i], bound[i] = env[v]
			}
			if assign, ok := step.Mode(bound); tc.assign != "" && (!ok || assign != idxOf(tc.assign)) {
				t.Fatalf("Mode = %d, %v; want the assignment of %s", assign, ok, tc.assign)
			}
			gotOK, didBind, gotErr := step.At(bound).Eval(vals, bound)

			lookup := func(v ast.Var) (val.T, bool) { x, ok := env[v]; return x, ok }
			var wantOK bool
			var wantVal val.T
			var wantErr error
			if tc.assign != "" {
				def := b.R
				if r, ok := b.R.(ast.VarExpr); ok && r.V == tc.assign {
					def = b.L
				}
				wantVal, wantErr = ast.EvalExpr(def, lookup)
				wantOK = wantErr == nil
			} else {
				l, lerr := ast.EvalExpr(b.L, lookup)
				r, rerr := ast.EvalExpr(b.R, lookup)
				switch {
				case lerr != nil:
					wantErr = lerr
				case rerr != nil:
					wantErr = rerr
				default:
					wantOK, wantErr = ast.Compare(b.Op, l, r)
				}
			}
			if wantErr != nil {
				want := fmt.Sprintf("core: builtin %s: %v", b, wantErr)
				if gotErr == nil || gotErr.Error() != want {
					t.Fatalf("Eval error %v, want %q", gotErr, want)
				}
				return
			}
			if gotErr != nil || gotOK != wantOK || didBind != (tc.assign != "") {
				t.Fatalf("Eval = %v, bound %v, %v; want %v, bound %v", gotOK, didBind, gotErr, wantOK, tc.assign != "")
			}
			if tc.assign != "" && !val.Equal(vals[idxOf(tc.assign)], wantVal) {
				t.Fatalf("%s = %s, want %s", tc.assign, vals[idxOf(tc.assign)], wantVal)
			}
		})
	}
}

// deltaOf is a fixed Δ view: per predicate number (Atom.Num), the
// changed row ids.
type deltaOf map[int][]int32

func (d deltaOf) IDs(n int) []int32 { return d[n] }

// countingDelta is a Δ view that counts its reads per predicate number.
type countingDelta struct {
	ids   deltaOf
	reads map[int]int
}

func (d *countingDelta) IDs(n int) []int32 {
	d.reads[n]++
	return d.ids[n]
}

// TestAggDeltaDerivesChangedGroups: handed the round's Δ, a γ step
// derives its changed groups itself — the Δ rows of each conjunct
// projected onto the group key, in first-occurrence order across the
// conjuncts — and emits exactly those groups with the values a full run
// gives them. The step sits behind a scan, so it runs once per upstream
// binding, but it reads each conjunct's Δ once per pass; a second pass on
// the same pooled machine derives its groups afresh.
func TestAggDeltaDerivesChangedGroups(t *testing.T) {
	s, db := testSchema(t)
	ak, bk := ast.MakePredKey("a", 2), ast.MakePredKey("b", 2)
	aRel, bRel := db.Rel(ak), db.Rel(bk)
	for _, r := range [][2]string{{"g1", "x1"}, {"g2", "x1"}, {"g1", "x2"}, {"g3", "x1"}, {"g4", "x3"}} {
		aRel.InsertJoin([]val.T{sym(r[0]), sym(r[1])}, lattice.Elem{})
	}
	for _, r := range [][2]string{{"g2", "y1"}, {"g3", "y1"}, {"g1", "y2"}, {"g2", "y2"}, {"g4", "y1"}, {"g5", "y1"}} {
		bRel.InsertJoin([]val.T{sym(r[0]), sym(r[1])}, lattice.Elem{})
	}
	blocked := db.Rel(ast.MakePredKey("blocked", 1))
	blocked.InsertJoin([]val.T{sym("u")}, lattice.Elem{})
	blocked.InsertJoin([]val.T{sym("v")}, lattice.Elem{})
	f, ok := lattice.AggregateByName("count")
	if !ok {
		t.Fatal("no count aggregate")
	}
	// blocked(U), N ?= count : [a(G, X), b(G, Y)]
	const U, G, X, Y, N = 0, 1, 2, 3, 4
	agg := &exec.AggStep{
		G:          &ast.Agg{Func: "count", Restricted: true},
		F:          f,
		Result:     N,
		GroupVars:  []int{G},
		MsVar:      -1,
		Conj:       []exec.Atom{scanAtom(s, "a", G, X), scanAtom(s, "b", G, Y)},
		OrderFull:  []int{0, 1},
		OrderPoint: []int{0, 1},
		KeyPos:     [][]int{{0}, {0}},
	}
	// The predicates' numbers in the Δ sets: a is 0, b is 1.
	const aNum, bNum = 0, 1
	agg.Conj[1].Num = bNum
	rule := exec.NewRule(5, []exec.Step{
		{Kind: exec.ScanKind, Atom: scanAtom(s, "blocked", U)},
		{Kind: exec.AggKind, Agg: agg},
	})
	full, _, _ := runPipeline(t, rule, exec.Config{DB: db})
	value := map[string]string{} // "U;G" -> the full run's emission
	for _, line := range full {
		// Emissions render as "0=U;1=G;4=N;" (X and Y are unbound).
		parts := strings.Split(line, ";")
		value[parts[0]+";"+parts[1]] = line
	}

	for _, tc := range []struct {
		name   string
		da, db []int32
		groups []string
	}{
		// Δa names g3, g1 (twice), Δb g2 and then g1 and g3 again.
		{"repeated", []int32{3, 0, 2}, []int32{0, 2, 1}, []string{"g3", "g1", "g2"}},
		// Only b changed; g5 has no a row, so its group is empty.
		{"b only", nil, []int32{5, 4}, []string{"g5", "g4"}},
	} {
		d := &countingDelta{ids: deltaOf{aNum: tc.da, bNum: tc.db}, reads: map[int]int{}}
		got, _, _ := runPipeline(t, rule, exec.Config{DB: db, AggDelta: d, AggSince: deltaOf{}})
		var want []string
		for _, u := range []string{"u", "v"} {
			for _, g := range tc.groups {
				if line, ok := value["0="+u+";1="+g]; ok {
					want = append(want, line)
				}
			}
		}
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: Δ pass emitted\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if d.reads[aNum] != 1 || d.reads[bNum] != 1 || len(d.reads) != 2 {
			t.Fatalf("%s: Δ reads %v, want each conjunct's once per pass", tc.name, d.reads)
		}
	}
}
