// Package experiments regenerates every experiment in EXPERIMENTS.md:
// the Figure 1 aggregate catalog and each of the paper's worked examples
// and semantic comparisons (Ross & Sagiv, PODS 1992), with timings of the
// deductive engine against the direct algorithmic baselines. The
// cmd/experiments command is a thin wrapper around Run.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/monotone"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/stable"
	"repro/internal/val"
)

// Config selects sizes and the experiment subset.
type Config struct {
	// Quick shrinks problem sizes for fast runs.
	Quick bool
	// Only, when non-empty, runs just the experiment with this id
	// (e.g. "E3").
	Only string
}

// state carries the run configuration and output sink through the
// experiment functions.
type state struct {
	w     io.Writer
	quick bool
}

// List returns the experiment ids and titles in order.
func List() [][2]string {
	var out [][2]string
	for _, e := range registry() {
		out = append(out, [2]string{e.id, e.name})
	}
	return out
}

type exp struct {
	id   string
	name string
	fn   func(*state)
}

func registry() []exp {
	return []exp{
		{"E1", "Figure 1 — monotonic aggregate functions", (*state).e1},
		{"E2", "Example 2.1 — grouped averages", (*state).e2},
		{"E3", "Example 2.6/3.1 — shortest path", (*state).e3},
		{"E4", "Example 2.7 — company control", (*state).e4},
		{"E5", "Example 4.3 — party invitations", (*state).e5},
		{"E6", "Example 4.4 — circuit evaluation", (*state).e6},
		{"E7", "§3 — two minimal models", (*state).e7},
		{"E8", "Example 3.1 + §5.5 — stable models", (*state).e8},
		{"E9", "§5.3 — well-founded comparison", (*state).e9},
		{"E10", "§5.4 — GGZ min/max rewriting", (*state).e10},
		{"E11", "Example 5.1 — halfsum ω-limit", (*state).e11},
		{"E12", "§6.2 — naive vs semi-naive", (*state).e12},
		{"E13", "§5.1–5.2 — stratification ladder", (*state).e13},
	}
}

// Run executes the selected experiments, writing the report to w.
func Run(w io.Writer, cfg Config) error {
	st := &state{w: w, quick: cfg.Quick}
	ran := false
	for _, e := range registry() {
		if cfg.Only != "" && cfg.Only != e.id {
			continue
		}
		ran = true
		fmt.Fprintf(w, "\n## %s: %s\n\n", e.id, e.name)
		e.fn(st)
	}
	if !ran {
		return fmt.Errorf("experiments: unknown experiment id %q", cfg.Only)
	}
	return nil
}

// fatal aborts the experiment run: the harness computes over verified
// generators, so any error here is a programming bug.
func fatal(err error) {
	panic(fmt.Sprintf("experiments: %v", err))
}

func mustSolve(src string, opts core.Options) (*relation.DB, core.Stats) {
	prog, err := parser.Parse(src)
	if err != nil {
		fatal(err)
	}
	en, err := core.New(prog, opts)
	if err != nil {
		fatal(err)
	}
	db, stats, err := en.Solve(nil)
	if err != nil {
		fatal(err)
	}
	return db, stats
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timingRuns is how many runs a median timing takes.
const timingRuns = 5

// medianTime returns the median of timingRuns runs of f.
func medianTime(f func()) time.Duration {
	ds := make([]time.Duration, timingRuns)
	for i := range ds {
		ds[i] = timeIt(f)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[timingRuns/2]
}

// loadSolve times the front end (parse, checks, compile: what
// datalog.Load does) and a cold solve of src separately, each the median
// of timingRuns runs, and returns the model.
func loadSolve(src string, opts core.Options) (load, solve time.Duration, db *relation.DB) {
	var en *core.Engine
	load = medianTime(func() {
		prog, err := parser.Parse(src)
		if err != nil {
			fatal(err)
		}
		if en, err = core.New(prog, opts); err != nil {
			fatal(err)
		}
	})
	solve = medianTime(func() {
		var err error
		if db, _, err = en.Solve(nil); err != nil {
			fatal(err)
		}
	})
	return load, solve, db
}

func (st *state) row(cols ...string) {
	fmt.Fprintf(st.w, "| %s |\n", strings.Join(cols, " | "))
}

func sym(format string, args ...any) val.T {
	return val.Symbol(fmt.Sprintf(format, args...))
}

// e1 reproduces Figure 1: every aggregate with its domain structure, and
// a randomized check of (pseudo-)monotonicity.
func (st *state) e1() {
	universe := val.NewSet([]val.T{val.Symbol("a"), val.Symbol("b"), val.Symbol("c"), val.Symbol("d"), val.Symbol("e")})
	aggs := []lattice.Aggregate{
		lattice.Max, lattice.Min, lattice.Sum, lattice.And, lattice.Or,
		lattice.Product, lattice.Count, lattice.Union,
		lattice.NewIntersection("e1_intersection", universe),
		lattice.NewProperty("e1_property_p4", lattice.HasPathProperty(4)),
		lattice.Average, lattice.Halfsum,
	}
	trials := 4000
	if st.quick {
		trials = 500
	}
	st.row("F", "domain D", "⊑_D", "⊥_D", "range R", "⊥_R", "class", "violations/"+fmt.Sprint(trials))
	st.row("---", "---", "---", "---", "---", "---", "---", "---")
	for _, a := range aggs {
		viol := checkMonotone(a, trials, a.Monotone())
		class := "monotonic"
		if !a.Monotone() {
			class = "pseudo-monotonic"
		}
		st.row(a.Name(), a.Domain().Name(), orderName(a.Domain()), a.Domain().Bottom().String(),
			a.Range().Name(), a.Range().Bottom().String(), class, fmt.Sprint(viol))
	}
	fmt.Fprintln(st.w, "\nMonotone rows are checked on random multiset pairs I ⊑ I';")
	fmt.Fprintln(st.w, "pseudo-monotone rows on equal-cardinality pairs (Definition 4.1).")
}

func orderName(l lattice.Lattice) string {
	switch l.Name() {
	case "minreal":
		return ">="
	case "booland":
		return ">="
	default:
		if strings.HasPrefix(l.Name(), "e1_intersection") {
			return "⊇"
		}
		if l.Name() == "setunion" {
			return "⊆"
		}
		return "<="
	}
}

func checkMonotone(a lattice.Aggregate, trials int, full bool) int {
	r := rand.New(rand.NewSource(1))
	viol := 0
	for i := 0; i < trials; i++ {
		lo, hi := randomPair(a.Domain(), r, !full)
		flo, ok1 := a.Apply(lo)
		fhi, ok2 := a.Apply(hi)
		if !ok1 || !ok2 {
			continue
		}
		if !a.Range().Leq(flo, fhi) {
			viol++
		}
	}
	return viol
}

func randomPair(d lattice.Lattice, r *rand.Rand, equalCard bool) (lo, hi []lattice.Elem) {
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		e := randomElem(d, r)
		hi = append(hi, e)
		if equalCard || r.Intn(4) > 0 {
			lo = append(lo, d.Meet(e, randomElem(d, r)))
		}
	}
	return lo, hi
}

func randomElem(d lattice.Lattice, r *rand.Rand) lattice.Elem {
	switch d.Name() {
	case "booland", "boolor":
		return val.Boolean(r.Intn(2) == 1)
	case "prodnat":
		return val.Number(float64(1 + r.Intn(9)))
	case "countnat", "sumreal":
		return val.Number(float64(r.Intn(20)))
	case "maxreal", "minreal":
		return val.Number(float64(r.Intn(41) - 20))
	default: // set-valued domains (union, intersection, edge sets)
		var elems []val.T
		for _, s := range []string{"a", "b", "c", "d", "e"} {
			if r.Intn(2) == 0 {
				elems = append(elems, val.Symbol(s))
			}
		}
		return val.SetOf(elems...)
	}
}

// e2 reruns Example 2.1 and prints the aggregate family.
func (st *state) e2() {
	src := programs.Averages + `
record(john, math, 80).
record(john, physics, 60).
record(mary, math, 90).
courses(math). courses(physics). courses(art).
`
	db, _ := mustSolve(src, core.Options{})
	for _, pred := range []string{"s_avg/2", "c_avg/2", "all_avg/1", "class_count/2", "alt_class_count/2"} {
		rel := db.Rel(ast.PredKey(pred))
		for _, r := range rel.Rows() {
			fmt.Fprintln(st.w, "  "+relation.FormatFact(ast.PredKey(pred).Name(), r))
		}
	}
	fmt.Fprintln(st.w, "\nNote all_avg = 72.5 (mean of class means), not the record mean 76.7 —")
	fmt.Fprintln(st.w, "the weighting difference Example 2.1 points out.")
}

// e3 sweeps shortest path against Dijkstra and checks Example 3.1.
func (st *state) e3() {
	sizesOf := func(kind gen.GraphKind) []int {
		if st.quick {
			return []int{32, 64}
		}
		if kind == gen.LayeredDAG {
			return []int{64, 128, 256}
		}
		return []int{32, 64, 128} // dense reachability grows quadratically
	}
	st.row("topology", "n", "edges", "load", "solve", "Dijkstra all-pairs", "solve/Dijkstra", "s tuples", "agree")
	st.row("---", "---", "---", "---", "---", "---", "---", "---", "---")
	for _, kind := range []gen.GraphKind{gen.LayeredDAG, gen.CycleGraph, gen.RandomGraph} {
		for _, n := range sizesOf(kind) {
			g := gen.Graph(kind, n, 4*n, 9, int64(n))
			src := programs.ShortestPath + gen.GraphFacts(g)
			dLoad, dSolve, db := loadSolve(src, core.Options{})
			var dist [][]float64
			dBase := medianTime(func() { dist = baseline.AllPairs(g) })
			agree := true
			count := 0
			for u := 0; u < g.N && agree; u++ {
				for v := 0; v < g.N; v++ {
					r, ok := db.Rel("s/3").Get([]val.T{sym("v%d", u), sym("v%d", v)})
					if math.IsInf(dist[u][v], 1) != !ok {
						agree = false
						break
					}
					if ok {
						count++
						if r.Cost.Num() != dist[u][v] {
							agree = false
							break
						}
					}
				}
			}
			st.row(kindName(kind), fmt.Sprint(n), fmt.Sprint(len(g.Edges)), dLoad.String(), dSolve.String(),
				dBase.String(), fmt.Sprintf("%.1f×", float64(dSolve)/float64(dBase)), fmt.Sprint(count), fmt.Sprint(agree))
		}
	}
	// Example 3.1 exact check.
	db, _ := mustSolve(programs.ShortestPath+"arc(a, b, 1).\narc(b, b, 0).\n", core.Options{})
	r, _ := db.Rel("s/3").Get([]val.T{val.Symbol("a"), val.Symbol("b")})
	fmt.Fprintf(st.w, "\nExample 3.1 (cyclic): least model picks s(a,b,%g) — M1, not M2's 0.\n", r.Cost.Num())
	// Negative weights on a DAG vs Bellman-Ford.
	gd := gen.Graph(gen.LayeredDAG, 48, 200, 9, 5)
	for i := range gd.Edges {
		if i%3 == 0 {
			gd.Edges[i].W = -gd.Edges[i].W / 3
		}
	}
	db, _ = mustSolve(programs.ShortestPath+gen.GraphFacts(gd), core.Options{})
	ok := true
	for u := 0; u < gd.N; u++ {
		want, err := baseline.BellmanFord(gd, u)
		if err != nil {
			fatal(err)
		}
		for v := 0; v < gd.N; v++ {
			r, found := db.Rel("s/3").Get([]val.T{sym("v%d", u), sym("v%d", v)})
			if found != !math.IsInf(want[v], 1) || (found && r.Cost.Num() != want[v]) {
				ok = false
			}
		}
	}
	fmt.Fprintf(st.w, "Negative-weight DAG vs Bellman–Ford (§5.4: beyond cost-monotonicity): agree=%v\n", ok)
}

func kindName(k gen.GraphKind) string {
	switch k {
	case gen.LayeredDAG:
		return "layered DAG"
	case gen.CycleGraph:
		return "cycle+chords"
	case gen.GridGraph:
		return "grid"
	default:
		return "random"
	}
}

// e4 sweeps company control and prints the Van Gelder discriminating EDB.
func (st *state) e4() {
	sizes := []int{16, 64, 256}
	if st.quick {
		sizes = []int{8, 32}
	}
	st.row("n", "cyclic", "engine", "direct solver", "controls", "agree")
	st.row("---", "---", "---", "---", "---", "---")
	for _, n := range sizes {
		for _, cyclic := range []bool{false, true} {
			o := gen.Ownership(n, 3, cyclic, int64(n))
			src := programs.CompanyControl + gen.OwnershipFacts(o)
			var db *relation.DB
			dEng := timeIt(func() { db, _ = mustSolve(src, core.Options{}) })
			var controls [][]bool
			dBase := timeIt(func() { controls, _ = baseline.CompanyControl(o) })
			agree := true
			count := 0
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					if x == y {
						continue
					}
					_, got := db.Rel("c/2").Get([]val.T{sym("c%d", x), sym("c%d", y)})
					if got {
						count++
					}
					if got != controls[x][y] {
						agree = false
					}
				}
			}
			st.row(fmt.Sprint(n), fmt.Sprint(cyclic), dEng.String(), dBase.String(),
				fmt.Sprint(count), fmt.Sprint(agree))
		}
	}
	src := programs.CompanyControl + `
s(a, b, 0.3). s(a, c, 0.3). s(b, c, 0.6). s(c, b, 0.6).
`
	db, _ := mustSolve(src, core.Options{})
	_, ab := db.Rel("c/2").Get([]val.T{val.Symbol("a"), val.Symbol("b")})
	_, bc := db.Rel("c/2").Get([]val.T{val.Symbol("b"), val.Symbol("c")})
	fmt.Fprintf(st.w, "\n§5.6 EDB: c(a,b)=%v c(b,c)=%v — for us c(a,b)/c(a,c) are *false*;\n", ab, bc)
	fmt.Fprintln(st.w, "Van Gelder's translation would leave them undefined (documented contrast).")
}

// e5 sweeps party invitations.
func (st *state) e5() {
	sizes := []int{64, 256, 1024}
	if st.quick {
		sizes = []int{32, 128}
	}
	st.row("n", "load", "solve", "direct solver", "coming", "agree")
	st.row("---", "---", "---", "---", "---", "---")
	for _, n := range sizes {
		p := gen.Party(n, 5, 3, int64(n))
		src := programs.Party + gen.PartyFacts(p)
		dLoad, dSolve, db := loadSolve(src, core.Options{})
		var want []bool
		dBase := medianTime(func() { want = p.Attendance() })
		agree := true
		count := 0
		for x := 0; x < n; x++ {
			_, got := db.Rel("coming/1").Get([]val.T{sym("g%d", x)})
			if got {
				count++
			}
			if got != want[x] {
				agree = false
			}
		}
		st.row(fmt.Sprint(n), dLoad.String(), dSolve.String(), dBase.String(), fmt.Sprint(count), fmt.Sprint(agree))
	}
}

// e6 sweeps circuits.
func (st *state) e6() {
	sizes := []int{64, 256, 1024}
	if st.quick {
		sizes = []int{32, 128}
	}
	st.row("gates", "cyclic", "load", "solve", "simulator", "true wires", "agree")
	st.row("---", "---", "---", "---", "---", "---", "---")
	for _, n := range sizes {
		for _, cyclic := range []bool{false, true} {
			c := gen.Circuit(n, n/5, 3, cyclic, int64(n))
			src := programs.Circuit + gen.CircuitFacts(c)
			dLoad, dSolve, db := loadSolve(src, core.Options{})
			var want []bool
			dBase := medianTime(func() { want = c.Eval() })
			agree := true
			count := 0
			for i := 0; i < n; i++ {
				r, _ := db.Rel("t/2").GetOrDefault([]val.T{sym("n%d", i)})
				if r.Cost.Bool() {
					count++
				}
				if r.Cost.Bool() != want[i] {
					agree = false
				}
			}
			st.row(fmt.Sprint(n), fmt.Sprint(cyclic), dLoad.String(), dSolve.String(), dBase.String(),
				fmt.Sprint(count), fmt.Sprint(agree))
		}
	}
}

// e7 shows the §3 program being rejected and its two minimal models.
func (st *state) e7() {
	prog, err := parser.Parse(programs.TwoMinimalModels)
	if err != nil {
		fatal(err)
	}
	_, err = core.New(prog, core.Options{})
	fmt.Fprintf(st.w, "admissibility check: %v\n\n", err)
	// Its two minimal Herbrand models, found by stable-model search over
	// the four candidate atoms.
	candidates := relation.NewDB(ast.Schemas{})
	for _, a := range []string{"a", "b"} {
		candidates.Rel("p/1").InsertJoin([]val.T{val.Symbol(a)}, val.T{})
		candidates.Rel("q/1").InsertJoin([]val.T{val.Symbol(a)}, val.T{})
	}
	models, err := stable.Enumerate(prog, candidates, nil, 8, core.WFSOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(st.w, "stable models found: %d (the paper's two minimal models)\n", len(models))
	for i, m := range models {
		var atoms []string
		for _, k := range m.Preds() {
			for _, row := range m.Rel(k).Rows() {
				atoms = append(atoms, fmt.Sprintf("%s(%s)", k.Name(), row.Args[0]))
			}
		}
		sort.Strings(atoms)
		fmt.Fprintf(st.w, "  M%d = {%s}\n", i+1, strings.Join(atoms, ", "))
	}
}

// e8 reproduces Example 3.1's incomparable stable models.
func (st *state) e8() {
	src := programs.ShortestPath + "arc(a, b, 1).\narc(b, b, 0).\n"
	prog, err := parser.Parse(src)
	if err != nil {
		fatal(err)
	}
	en, err := core.New(prog, core.Options{})
	if err != nil {
		fatal(err)
	}
	m1, _, err := en.Solve(nil)
	if err != nil {
		fatal(err)
	}
	m2 := m1.Clone()
	m2.AddFact("s", []val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(0))
	m2.AddFact("path", []val.T{val.Symbol("a"), val.Symbol("b"), val.Symbol("b")}, val.Number(0))
	s1, s2 := core.FlattenCosts(m1), core.FlattenCosts(m2)
	ks1, _ := stable.IsStable(prog, s1, core.WFSOptions{})
	ks2, _ := stable.IsStable(prog, s2, core.WFSOptions{})
	ms1, _ := stable.IsMonotonicStable(prog, nil, m1, core.Options{})
	ms2, _ := stable.IsMonotonicStable(prog, nil, m2, core.Options{})
	st.row("model", "s(a,b)", "Kemp–Stuckey stable", "monotonic-reduct stable (§5.5)")
	st.row("---", "---", "---", "---")
	st.row("M1 (least)", "1", fmt.Sprint(ks1), fmt.Sprint(ms1))
	st.row("M2", "0", fmt.Sprint(ks2), fmt.Sprint(ms2))
	fmt.Fprintln(st.w, "\nBoth are Kemp–Stuckey stable (the §5.3 flaw); the alternative §5.5")
	fmt.Fprintln(st.w, "monotonic-reduct stability selects exactly the paper's least model M1.")
}

// e9 compares the well-founded semantics with the minimal model.
func (st *state) e9() {
	cases := []struct {
		name string
		src  string
	}{
		{"shortest path, acyclic", programs.ShortestPath + "arc(a,b,1).\narc(b,c,2).\narc(a,c,5).\n"},
		{"shortest path, cyclic (Ex 3.1)", programs.ShortestPath + "arc(a,b,1).\narc(b,b,0).\n"},
		{"party, acyclic", programs.Party + "requires(a,0).\nrequires(b,1).\nknows(b,a).\n"},
		{"party, cyclic", programs.Party + "requires(x,1).\nrequires(y,1).\nknows(x,y).\nknows(y,x).\n"},
	}
	st.row("instance", "WFS true", "WFS undefined", "two-valued", "WFS-true set = minimal model")
	st.row("---", "---", "---", "---", "---")
	for _, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			fatal(err)
		}
		res, err := core.SolveWFS(prog, core.WFSOptions{})
		if err != nil {
			fatal(err)
		}
		db, _ := mustSolve(c.src, core.Options{})
		agrees := core.FlattenCosts(db).Equal(res.True, nil)
		st.row(c.name, fmt.Sprint(core.CountAtoms(res.True)), fmt.Sprint(res.UndefinedCount()),
			fmt.Sprint(res.TwoValued()), fmt.Sprint(agrees))
	}
	fmt.Fprintln(st.w, "\nOn cycles the Kemp–Stuckey WFS goes undefined exactly where the")
	fmt.Fprintln(st.w, "monotonic minimal model stays total (§5.3).")
}

// e10 benchmarks native aggregation against the GGZ rewriting.
func (st *state) e10() {
	sizes := []int{16, 32, 64}
	if st.quick {
		sizes = []int{8, 16}
	}
	st.row("layered DAG n", "native engine", "GGZ rewrite + WFS", "agree on s", "speedup")
	st.row("---", "---", "---", "---", "---")
	for _, n := range sizes {
		g := gen.Graph(gen.LayeredDAG, n, 3*n, 9, int64(n))
		src := programs.ShortestPath + gen.GraphFacts(g)
		prog, err := parser.Parse(src)
		if err != nil {
			fatal(err)
		}
		var db *relation.DB
		dNative := timeIt(func() { db, _ = mustSolve(src, core.Options{}) })
		norm, err := rewrite.MinMax(prog)
		if err != nil {
			fatal(err)
		}
		var res *core.WFSResult
		dGGZ := timeIt(func() {
			res, err = core.SolveWFS(norm, core.WFSOptions{MaxAtoms: 2000000})
		})
		if err != nil {
			fatal(err)
		}
		agree := true
		db.Rel("s/3").Each(func(r relation.Row) bool {
			args := append(append([]val.T{}, r.Args...), r.Cost)
			if res.Status("s/3", args) != core.True {
				agree = false
			}
			return true
		})
		if res.True.Rel("s/3").Len() != db.Rel("s/3").Len() {
			agree = false
		}
		st.row(fmt.Sprint(n), dNative.String(), dGGZ.String(), fmt.Sprint(agree),
			fmt.Sprintf("%.0fx", float64(dGGZ)/float64(dNative)))
	}
	// Divergence on a positive cycle.
	src := programs.ShortestPath + "arc(a,b,1).\narc(b,a,1).\n"
	prog, _ := parser.Parse(src)
	norm, _ := rewrite.MinMax(prog)
	_, err := core.SolveWFS(norm, core.WFSOptions{MaxAtoms: 400, MaxIters: 200})
	db, _ := mustSolve(src, core.Options{})
	r, _ := db.Rel("s/3").Get([]val.T{val.Symbol("a"), val.Symbol("a")})
	fmt.Fprintf(st.w, "\nPositive cycle: native terminates (s(a,a)=%g); rewrite diverges: %v\n", r.Cost.Num(), err != nil)
	fmt.Fprintln(st.w, "(the cost FD bounds the native path relation; the set-based rewrite")
	fmt.Fprintln(st.w, "enumerates unboundedly many costs — §7's motivation for greedy methods)")
}

// e11 sweeps the halfsum ω-limit program over epsilons.
func (st *state) e11() {
	st.row("epsilon", "rounds", "p(a)", "|1 - p(a)|")
	st.row("---", "---", "---", "---")
	for _, eps := range []float64{1e-6, 1e-9, 1e-12} {
		db, stats := mustSolve(programs.Halfsum, core.Options{Epsilon: eps})
		r, _ := db.Rel("p/2").Get([]val.T{val.Symbol("a")})
		st.row(fmt.Sprintf("%g", eps), fmt.Sprint(stats.Rounds),
			fmt.Sprintf("%.15f", r.Cost.Num()), fmt.Sprintf("%.2e", math.Abs(1-r.Cost.Num())))
	}
	fmt.Fprintln(st.w, "\nThe least model has p(a,1) exactly, reached only at ω (Example 5.1);")
	fmt.Fprintln(st.w, "each halving round closes half the remaining gap.")
}

// e12 contrasts the two fixpoint strategies.
func (st *state) e12() {
	sizes := []int{64, 128, 256}
	if st.quick {
		sizes = []int{32, 64}
	}
	st.row("workload", "n", "naive time", "naive firings", "semi-naive time", "semi-naive firings", "same model")
	st.row("---", "---", "---", "---", "---", "---", "---")
	for _, n := range sizes {
		g := gen.Graph(gen.CycleGraph, n, 3*n, 9, int64(n))
		src := programs.ShortestPath + gen.GraphFacts(g)
		var dbN, dbS *relation.DB
		var stN, stS core.Stats
		dN := timeIt(func() { dbN, stN = mustSolve(src, core.Options{Strategy: core.Naive}) })
		dS := timeIt(func() { dbS, stS = mustSolve(src, core.Options{Strategy: core.SemiNaive}) })
		st.row("shortest path", fmt.Sprint(n), dN.String(), fmt.Sprint(stN.Firings),
			dS.String(), fmt.Sprint(stS.Firings), fmt.Sprint(core.EqualEps(dbN, dbS, 1e-9)))
	}
	for _, n := range sizes {
		o := gen.Ownership(n/2, 3, true, int64(n))
		src := programs.CompanyControl + gen.OwnershipFacts(o)
		var dbN, dbS *relation.DB
		var stN, stS core.Stats
		dN := timeIt(func() { dbN, stN = mustSolve(src, core.Options{Strategy: core.Naive}) })
		dS := timeIt(func() { dbS, stS = mustSolve(src, core.Options{Strategy: core.SemiNaive}) })
		st.row("company control", fmt.Sprint(n/2), dN.String(), fmt.Sprint(stN.Firings),
			dS.String(), fmt.Sprint(stS.Firings), fmt.Sprint(core.EqualEps(dbN, dbS, 1e-9)))
	}
}

// e13 prints the stratification ladder for the paper's programs.
func (st *state) e13() {
	cases := []struct {
		name string
		src  string
	}{
		{"shortest path (Ex 2.6)", programs.ShortestPath},
		{"company control (Ex 2.7)", programs.CompanyControl},
		{"company control, fused (§5.2)", programs.CompanyControlFused},
		{"party invitations (Ex 4.3)", programs.Party},
		{"circuit (Ex 4.4)", programs.Circuit},
		{"halfsum (Ex 5.1)", programs.Halfsum},
		{"two minimal models (§3)", programs.TwoMinimalModels},
		{"grouped averages (Ex 2.1)", programs.Averages},
	}
	st.row("program", "aggregate stratified", "r-monotonic", "admissible (monotonic)")
	st.row("---", "---", "---", "---")
	for _, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			fatal(err)
		}
		schemas, err := ast.BuildSchemas(prog)
		if err != nil {
			fatal(err)
		}
		rep := monotone.CheckProgram(prog, schemas)
		st.row(c.name, fmt.Sprint(rep.AggregateStratified),
			fmt.Sprint(rep.RMonotonic == nil), fmt.Sprint(rep.Admissible == nil))
	}
	fmt.Fprintln(st.w, "\naggregate-stratified ⊂ r-monotonic-expressible ⊂ monotonic: the paper's")
	fmt.Fprintln(st.w, "programs recurse through aggregation yet remain admissible; only the")
	fmt.Fprintln(st.w, "fused company-control formulation is r-monotonic (§5.2), and the §3")
	fmt.Fprintln(st.w, "example falls outside the monotonic class (two minimal models).")

	// Instance-level modular ("group") stratification: the middle rung of
	// the ladder depends on the database, not just the program.
	fmt.Fprintln(st.w, "\nInstance-level group stratification (Mumick et al., §5.1):")
	inst := []struct {
		name string
		src  string
	}{
		{"shortest path, acyclic EDB", programs.ShortestPath + "arc(a,b,1).\narc(b,c,2).\n"},
		{"shortest path, cyclic EDB (Ex 3.1)", programs.ShortestPath + "arc(a,b,1).\narc(b,b,0).\n"},
		{"party, cyclic knows", programs.Party + "requires(a,0).\nrequires(b,1).\nrequires(c,1).\nknows(b,c).\nknows(c,b).\nknows(b,a).\n"},
	}
	for _, c := range inst {
		prog, err := parser.Parse(c.src)
		if err != nil {
			fatal(err)
		}
		en, err := core.New(prog, core.Options{})
		if err != nil {
			fatal(err)
		}
		ok, err := en.GroupStratified(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(st.w, "  %-38s group stratified: %v\n", c.name, ok)
	}
}
