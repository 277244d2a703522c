package datalog_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
)

// Every rule compiles at Load to one canonical order plus a Δ-driver
// order per positive scan that the canonical order does not already run
// first (docs/ARCHITECTURE.md, "Δ-driver orders"). A semi-naive pass
// restricted to that scan's Δ rows runs its driver order: in a cold
// solve only scans of the rule's own component are restricted, in a
// SolveMore also the EDB and lower-component scans its seed rows feed. Which order runs changes how a pass reaches its matches, never
// the fixpoint: these tests hold every program to the T_P oracle and to
// itself across worker counts, SolveMore splits and kill + Resume.

// driverCase is one program of the differential table. edb is its
// first batch of facts and more, when set, a second batch SolveMore
// accepts. drivers is the number of driver orders the program compiles,
// pinned so that a case cannot silently stop exercising them.
type driverCase struct {
	name, src, edb, more string
	drivers              int
	opts                 datalog.Options
}

// driverCases is the differential table: the shipped examples, every
// admissible program of internal/programs, and programs written to make
// the drivers move.
func driverCases(t *testing.T) []driverCase {
	type tc = driverCase
	var cases []tc
	entries, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatal(err)
	}
	exampleDrivers := map[string]int{"party.mdl": 1, "companycontrol.mdl": 1, "shortestpath.mdl": 1}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".mdl") || name == "omega.mdl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(exampleDir, name))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name: name, src: string(src), drivers: exampleDrivers[name], opts: exampleOptions(name)})
	}
	return append(cases,
		tc{name: "programs/shortestpath", src: programs.ShortestPath, drivers: 1,
			edb:  gen.GraphFacts(gen.Graph(gen.CycleGraph, 10, 16, 9, 3)),
			more: "arc(v3, w, 1). arc(w, v0, 2)."},
		tc{name: "programs/companycontrol", src: programs.CompanyControl, drivers: 1,
			edb:  gen.OwnershipFacts(gen.Ownership(8, 3, true, 5)),
			more: "s(c0, c7, 0.3)."},
		tc{name: "programs/companycontrolfused", src: programs.CompanyControlFused, drivers: 1,
			edb:  "s(a, b, 0.6). s(a, c, 0.3).",
			more: "s(b, c, 0.3)."},
		tc{name: "programs/party", src: programs.Party, drivers: 1,
			edb:  gen.PartyFacts(gen.Party(24, 3, 2, 8)),
			more: "knows(p3, p0). knows(p0, p7). requires(p24, 1). knows(p24, p0)."},
		tc{name: "programs/circuit", src: programs.Circuit,
			edb: "input(w2, 0). gate(g1, and). connect(g1, w1). connect(g1, w2). " +
				"gate(g2, or). connect(g2, w1). connect(g2, g1).",
			more: "input(w1, 1)."},
		tc{name: "programs/averages", src: programs.Averages,
			edb: "record(john, math, 80). record(john, physics, 60). record(mary, math, 90). " +
				"courses(math). courses(physics).",
			more: "courses(art)."},
		// tc(X, Z) drives one pass and tc(Z, Y) the other: the second
		// scan's driver order probes tc(X, Z) by Z.
		tc{name: "drivers/nonlinear-tc", drivers: 1, src: `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
`,
			edb:  "e(a, b). e(b, c). e(c, d). e(d, b). e(d, f).",
			more: "e(f, g). e(g, a)."},
		// The canonical order runs person, then par(X, XP), then the
		// recursive scan third; its driver order runs sg first and the
		// other three in that relative order. par(X, XP) and par(Y, YP)
		// get driver orders too, which the SolveMore split runs.
		tc{name: "drivers/samegen-third", drivers: 3, src: `
sg(X, X) :- person(X).
sg(X, Y) :- person(X), par(X, XP), sg(XP, YP), par(Y, YP).
`,
			edb: "person(a). person(b). person(c). person(d). person(e). person(f). person(g). " +
				"par(b, a). par(c, a). par(d, b). par(e, c). par(f, d).",
			more: "person(h). par(g, e). par(h, g)."},
		// Example 2.6 with arc written first: C = C1 + C2 stays an
		// assignment behind the moved s scan. Z = X turns from an
		// assignment into a test once reach(Z) runs first.
		tc{name: "drivers/builtin-after", drivers: 2, src: `
.cost arc/3 : minreal.
.cost path/4 : minreal.
.cost s/3 : minreal.
.ic :- arc(direct, Z, C).
path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- arc(Z, Y, C2), s(X, Z, C1), C = C1 + C2.
s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).
reach(Y) :- root(Y).
reach(Y) :- arc(X, Y, C), Z = X, reach(Z).
`,
			edb:  "root(a). arc(a, b, 1). arc(b, c, 2). arc(a, c, 4). arc(c, a, 1). arc(c, d, 1).",
			more: "arc(d, e, 1). arc(b, e, 5)."},
		// A γ subgoal behind the moved scan, over a conjunction that
		// reads the recursive predicate too (group-restricted γ passes
		// run the canonical order beside the driver passes).
		tc{name: "drivers/agg-after", drivers: 1, src: `
active(X) :- seed(X).
active(Y) :- link(X, Y), active(X), N = count : [endorse(Y, Z), active(Z)], N >= 1.
`,
			edb: "seed(a). seed(b). link(a, c). link(b, d). link(c, d). link(d, e). " +
				"endorse(c, a). endorse(d, c). endorse(e, b). endorse(e, f).",
			more: "link(e, f). endorse(f, e). seed(f)."},
		// not blocked(Y) reads a lower component (evaluated in one
		// round, being non-recursive) after the driver.
		tc{name: "drivers/negation-after", drivers: 1, src: `
blocked(X) :- bad(X).
safe(X) :- start(X).
safe(Y) :- edge(X, Y), safe(X), not blocked(Y).
`,
			edb:  "start(a). edge(a, b). edge(b, c). edge(c, d). edge(b, e). bad(c).",
			more: "edge(e, d). edge(d, f)."},
		// reach is default-valued: canonically a point lookup behind
		// link, as the driver it reads its Δ rows directly.
		tc{name: "drivers/default-driver", drivers: 1, src: `
.cost reach/2 : boolor.
.cost src/2 : boolor.
.cost via/3 : boolor.
.default reach/2 = 0.
.ic :- src(X, C), node(X).
reach(X, C) :- src(X, C).
reach(Y, C) :- node(Y), C = or D : [link(X, Y), via(X, Y, D)].
via(X, Y, C) :- link(X, Y), reach(X, C).
`,
			edb: "src(a, 1). src(b, 0). node(c). node(d). node(e). " +
				"link(a, c). link(b, d). link(c, d). link(d, e).",
			more: "node(f). link(e, f). link(b, f)."},
	)
}

// equalsTPOracle reports whether model (a Model rendering, which is
// ground facts) is the least fixpoint of T_P over src: J ← J ⊔ T_P(J, I)
// iterated per component, bottom-up, from the empty interpretation (the
// program text's facts are T_P's empty-body rules). The comparison reads
// absent rows of default-value predicates at their default, as the
// engine does.
func equalsTPOracle(t *testing.T, src, model string) bool {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en, err := core.New(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := relation.NewDB(en.Schemas)
	rendered, err := parser.Parse(model)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rendered.Facts {
		for i := 0; i < f.Len(); i++ {
			args, cost, err := f.Value(i, en.Schemas.Info(f.Key))
			if err != nil {
				t.Fatal(err)
			}
			got.Rel(f.Key).InsertJoin(args, cost)
		}
	}
	db := relation.NewDB(en.Schemas)
	for ci := 0; ci < en.ComponentCount(); ci++ {
		for round := 0; ; round++ {
			if round > 10000 {
				t.Fatalf("T_P iteration on component %v does not converge", en.ComponentPreds(ci))
			}
			out, err := en.TP(db, ci)
			if err != nil {
				t.Fatal(err)
			}
			next := db.Clone()
			next.Join(out)
			if core.EqualEps(next, db, 0) {
				break
			}
			db = next
		}
	}
	return core.EqualEps(got, db, 0)
}

// TestDriverDifferential holds every case of driverCases to the T_P
// oracle (programs the well-founded fallback evaluates have none) and to
// itself: model, fact order, traces, stats, profile row counts and final
// checkpoint bytes identical at GOMAXPROCS 1, 2 and 4; the same model
// when the facts arrive as a SolveMore split; and the same model when a
// solve is interrupted at a derivation budget and resumed from its last
// checkpoint.
func TestDriverDifferential(t *testing.T) {
	for _, tc := range driverCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			all := tc.src + "\n" + tc.edb + "\n" + tc.more
			withProcs(t, 1)
			ref := observe(t, all, nil, tc.opts)
			if !tc.opts.WFSFallback {
				if !equalsTPOracle(t, all, ref.model) {
					t.Fatalf("model differs from the T_P fixpoint:\n%s", ref.model)
				}
			}
			for _, procs := range []int{2, 4} {
				withProcs(t, procs)
				observe(t, all, nil, tc.opts).diff(t, fmt.Sprintf("GOMAXPROCS %d", procs), ref)
			}

			p, err := datalog.Load(all, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			drivers := 0
			for _, rp := range p.Profile(datalog.Stats{}).Rules {
				drivers += len(rp.Drivers)
			}
			if drivers != tc.drivers {
				t.Fatalf("%d Δ-driver orders compiled, want %d", drivers, tc.drivers)
			}

			if tc.more != "" {
				first, err := datalog.Load(tc.src+"\n"+tc.edb, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				m, _, err := first.Solve()
				if err != nil {
					t.Fatal(err)
				}
				split, _, err := first.SolveMore(m, argFacts(t, tc.more)...)
				if err != nil {
					t.Fatalf("SolveMore: %v", err)
				}
				if split.String() != ref.model {
					t.Fatalf("SolveMore split model differs:\n%s\nwant:\n%s", split, ref.model)
				}
			}

			full, st, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			budget := st.Derived / 3
			if budget == 0 {
				return // nothing a budget can interrupt
			}
			// budgeted is p with a MaxFacts budget; the fingerprint ignores
			// options, so each restores the other's checkpoints.
			bopts := tc.opts
			bopts.MaxFacts = budget
			budgeted, err := datalog.Load(all, bopts)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "model.ckpt")
			ctx := context.Background()
			ck := datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1)
			m, _, err := budgeted.SolveContext(ctx, nil, ck)
			resumes := 0
			for errors.Is(err, datalog.ErrBudgetExceeded) {
				restored, _, rerr := p.RestoreFile(ckpt)
				if rerr != nil {
					t.Fatalf("restore after interrupt %d: %v", resumes, rerr)
				}
				resumes++
				// Keep the budget for one more interruption, then finish.
				if resumes < 2 {
					m, _, err = budgeted.Resume(ctx, restored, nil, ck)
				} else {
					m, _, err = p.Resume(ctx, restored, nil, ck)
				}
			}
			if err != nil {
				t.Fatalf("after %d resumes: %v", resumes, err)
			}
			if resumes == 0 {
				t.Fatalf("a budget of %d derivations never interrupted the solve", budget)
			}
			if m.String() != full.String() {
				t.Fatalf("resumed model differs after %d resumes:\n%s\nwant:\n%s", resumes, m, full)
			}
		})
	}
}

// TestDriverDivergenceParity runs the intentionally divergent
// omega.mdl at GOMAXPROCS 1, 2 and 4: the ω-limit detector must trip
// every time with identical structured errors (component, round,
// offending group, trajectory) and an identical partial model.
func TestDriverDivergenceParity(t *testing.T) {
	run := func(par int) (string, string) {
		t.Helper()
		src, err := os.ReadFile(filepath.Join(exampleDir, "omega.mdl"))
		if err != nil {
			t.Fatal(err)
		}
		withProcs(t, par)
		opts := exampleOptions("omega.mdl")
		opts.DivergenceStreak = 50
		p, err := datalog.Load(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := p.Solve()
		if !errors.Is(err, datalog.ErrDiverged) {
			t.Fatalf("GOMAXPROCS=%d err = %v, want ErrDiverged", par, err)
		}
		if m == nil {
			t.Fatalf("GOMAXPROCS=%d divergence must return the partial model", par)
		}
		return err.Error(), m.String()
	}
	refErr, refModel := run(1)
	for _, par := range []int{2, 4} {
		gotErr, gotModel := run(par)
		if gotErr != refErr {
			t.Fatalf("GOMAXPROCS=%d divergence error differs:\n%s\nwant:\n%s", par, gotErr, refErr)
		}
		if gotModel != refModel {
			t.Fatalf("GOMAXPROCS=%d partial model differs:\n%s\nwant:\n%s", par, gotModel, refModel)
		}
	}
}

// TestDriverSolveMoreChain extends party.mdl twice through the
// incremental path: the knows seeds run the canonical order and the
// rounds they start run kc's driver order. The chained model must equal
// the one-shot solve of all the facts, and the chain must be identical
// (model, fact order, stats) at every worker count.
func TestDriverSolveMoreChain(t *testing.T) {
	first := []datalog.Fact{
		datalog.NewFact("knows", datalog.Sym("carol"), datalog.Sym("dana")),
		datalog.NewFact("requires", datalog.Sym("erin"), datalog.Num(2)),
	}
	second := []datalog.Fact{
		datalog.NewFact("knows", datalog.Sym("erin"), datalog.Sym("carol")),
		datalog.NewFact("knows", datalog.Sym("erin"), datalog.Sym("bob")),
	}
	chain := func(par int) (string, string, datalog.Stats) {
		t.Helper()
		withProcs(t, par)
		p, _ := loadExample(t, "party.mdl")
		m, _, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := p.SolveMore(m, first...)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d first SolveMore: %v", par, err)
		}
		m3, stats, err := p.SolveMore(m2, second...)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d second SolveMore: %v", par, err)
		}
		return m3.String(), factFingerprint(m3), stats
	}
	p, _ := loadExample(t, "party.mdl")
	oneShot, _, err := p.Solve(append(append([]datalog.Fact{}, first...), second...)...)
	if err != nil {
		t.Fatal(err)
	}
	refModel, refFacts, refStats := chain(1)
	if refModel != oneShot.String() {
		t.Fatalf("chained model differs from the one-shot solve:\n%s\nwant:\n%s", refModel, oneShot)
	}
	for _, par := range []int{2, 4} {
		model, facts, stats := chain(par)
		if model != refModel || facts != refFacts {
			t.Fatalf("GOMAXPROCS %d chained model or fact order differs:\n%s\nwant:\n%s", par, facts, refFacts)
		}
		if got, want := fmt.Sprintf("%+v", normStats(stats)), fmt.Sprintf("%+v", normStats(refStats)); got != want {
			t.Fatalf("GOMAXPROCS %d chained stats differ:\n%s\nwant:\n%s", par, got, want)
		}
	}
}

// TestDriverCheckpointParity checkpoints party.mdl, whose kc rule runs
// a driver order, at every round boundary at GOMAXPROCS 1, 2 and 4; the
// final checkpoint bytes must be byte-identical (the durable format
// leaks neither the orders that ran nor the worker count).
func TestDriverCheckpointParity(t *testing.T) {
	snap := func(par int) []byte {
		t.Helper()
		withProcs(t, par)
		p, _ := loadExample(t, "party.mdl")
		path := filepath.Join(t.TempDir(), "model.ckpt")
		if _, _, err := p.SolveContext(context.Background(), nil,
			datalog.WithCheckpoint(datalog.FileCheckpoint(path), 1)); err != nil {
			t.Fatalf("GOMAXPROCS=%d solve: %v", par, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := snap(1)
	for _, par := range []int{2, 4} {
		if got := snap(par); string(got) != string(ref) {
			t.Fatalf("GOMAXPROCS=%d checkpoint bytes differ (%d vs %d bytes)", par, len(got), len(ref))
		}
	}
}

// TestDriverResumeParity: a checkpoint written at one worker count
// restores and finishes at another with the same final model — a
// snapshot taken between driver passes is a sound restart point
// whatever resumes it.
func TestDriverResumeParity(t *testing.T) {
	final := func(writePar, resumePar int) string {
		t.Helper()
		p, src := loadExample(t, "party.mdl")
		budgeted, err := datalog.Load(src, datalog.Options{MaxFacts: 6})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.ckpt")
		ctx := context.Background()
		withProcs(t, writePar)
		_, _, err = budgeted.SolveContext(ctx, nil, datalog.WithCheckpoint(datalog.FileCheckpoint(path), 1))
		if !errors.Is(err, datalog.ErrBudgetExceeded) {
			t.Fatalf("GOMAXPROCS=%d budgeted solve: err = %v, want ErrBudgetExceeded", writePar, err)
		}
		restored, _, err := p.RestoreFile(path)
		if err != nil {
			t.Fatal(err)
		}
		withProcs(t, resumePar)
		m, _, err := p.Resume(ctx, restored, nil)
		if err != nil {
			t.Fatalf("resume GOMAXPROCS=%d: %v", resumePar, err)
		}
		return m.String()
	}
	ref := final(1, 1)
	for _, pair := range [][2]int{{1, 4}, {4, 1}, {4, 4}} {
		if got := final(pair[0], pair[1]); got != ref {
			t.Fatalf("GOMAXPROCS %d→%d resume differs:\n%s\nwant:\n%s", pair[0], pair[1], got, ref)
		}
	}
}

// partyParent holds Rounds/Firings/Derived of Party(64, 4, 3, seed) for
// seeds 1–8 as the parent of the driver orders computed them, when kc's
// Δ pass walked the whole Δ set once per knows row: driver orders change
// how a pass reaches its matches, not which matches there are.
var partyParent = [8][3]int64{
	{10, 508, 315}, {8, 457, 306}, {12, 478, 309}, {10, 473, 305},
	{14, 466, 308}, {14, 493, 311}, {10, 489, 310}, {8, 514, 312},
}

// TestPartyProbesPerDerived pins Example 4.3's semi-naive cost: with
// kc's Δ pass on its driver order (coming first, knows probed by Y) a
// solve probes at most 6 rows per derivation; walking the Δ set once
// per knows row took about 57.
func TestPartyProbesPerDerived(t *testing.T) {
	for i, want := range partyParent {
		seed := int64(i + 1)
		p, err := datalog.Load(programs.Party+gen.PartyFacts(gen.Party(64, 4, 3, seed)), datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int64{int64(st.Rounds), st.Firings, st.Derived}; got != want {
			t.Errorf("seed %d: rounds/firings/derived = %v, want %v", seed, got, want)
		}
		if st.Probes > 6*st.Derived {
			t.Errorf("seed %d: %d probes for %d derivations (%.1f per derivation), want ≤ 6",
				seed, st.Probes, st.Derived, float64(st.Probes)/float64(st.Derived))
		}
	}
}

// TestShortestPathProbesUnchanged pins Example 2.6 to its exact counters
// on two fixed graphs. Its recursive s scan is already first, so the
// only driver order it compiles is [1 0 2], for path's arc scan, which
// only a SolveMore seeded with arc rows runs: a cold solve's passes are
// the canonical ones. Its s rule's γ runs its Δ passes as a Δ-fold,
// which reads each changed path row by id instead of re-enumerating every
// changed group: the rounds, firings and derivations are those of the
// re-enumerating γ, and the probes are the fold's (68,578 and 2,651 when
// γ re-enumerated; the DAG's rise because each fold also reads the path
// rows changed earlier in its round).
func TestShortestPathProbesUnchanged(t *testing.T) {
	for _, c := range []struct {
		kind gen.GraphKind
		want [4]int64 // rounds, firings, derived, probes
	}{
		{gen.CycleGraph, [4]int64{19, 35018, 26987, 65307}},
		{gen.LayeredDAG, [4]int64{6, 1704, 1547, 3010}},
	} {
		p, err := datalog.Load(programs.ShortestPath+gen.GraphFacts(gen.Graph(c.kind, 64, 256, 9, 64)), datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var drivers []string
		for _, rp := range p.Profile(datalog.Stats{}).Rules {
			for _, d := range rp.Drivers {
				drivers = append(drivers, fmt.Sprintf("%s %v", rp.Rule, d))
			}
		}
		if want := []string{"path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = (C1 + C2). [1 0 2]"}; !slices.Equal(drivers, want) {
			t.Fatalf("driver orders %q, want %q", drivers, want)
		}
		_, st, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got := [4]int64{int64(st.Rounds), st.Firings, st.Derived, st.Probes}; got != c.want {
			t.Errorf("graph kind %d: rounds/firings/derived/probes = %v, want %v", c.kind, got, c.want)
		}
	}
}
