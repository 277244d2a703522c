package datalog_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/snapshot"
)

// Ground facts are data, not rules (docs/LANGUAGE.md): whether they
// arrive in the program text or as Solve arguments they take one ingest
// path and are accounted the same way. These tests hold the two routes
// to each other, and the front end to a cost that is flat in the number
// of facts.

// factCases pairs every admissible example of internal/programs with
// generated (internal/gen) or hand-written inputs.
func factCases() []struct {
	name, rules, facts string
	eps                float64
} {
	return []struct {
		name, rules, facts string
		eps                float64
	}{
		{name: "shortestpath/random", rules: programs.ShortestPath,
			facts: gen.GraphFacts(gen.Graph(gen.RandomGraph, 12, 30, 9, 1))},
		{name: "shortestpath/dag", rules: programs.ShortestPath,
			facts: gen.GraphFacts(gen.Graph(gen.LayeredDAG, 16, 40, 9, 2))},
		{name: "shortestpath/cycle", rules: programs.ShortestPath,
			facts: gen.GraphFacts(gen.Graph(gen.CycleGraph, 10, 16, 9, 3))},
		{name: "shortestpath/grid", rules: programs.ShortestPath,
			facts: gen.GraphFacts(gen.Graph(gen.GridGraph, 9, 0, 9, 4))},
		{name: "companycontrol/cyclic", rules: programs.CompanyControl,
			facts: gen.OwnershipFacts(gen.Ownership(8, 3, true, 5))},
		{name: "companycontrol/acyclic", rules: programs.CompanyControl,
			facts: gen.OwnershipFacts(gen.Ownership(8, 3, false, 6))},
		{name: "companycontrolfused", rules: programs.CompanyControlFused,
			facts: gen.OwnershipFacts(gen.Ownership(8, 3, true, 7))},
		{name: "party", rules: programs.Party,
			facts: gen.PartyFacts(gen.Party(12, 3, 2, 8))},
		{name: "circuit/cyclic", rules: programs.Circuit,
			facts: gen.CircuitFacts(gen.Circuit(10, 3, 2, true, 9))},
		{name: "circuit/acyclic", rules: programs.Circuit,
			facts: gen.CircuitFacts(gen.Circuit(10, 3, 2, false, 10))},
		{name: "averages", rules: programs.Averages,
			facts: "record(john, math, 80). record(john, physics, 60). record(mary, math, 90).\n" +
				"courses(math). courses(physics). courses(art).\n"},
		// Its one fact heads a rule's predicate, so it stays a rule.
		{name: "halfsum", rules: programs.Halfsum, eps: 1e-9},
	}
}

// argFacts parses ground facts into Solve arguments.
func argFacts(t *testing.T, text string) []datalog.Fact {
	t.Helper()
	prog, err := parser.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return factArgs(prog.Facts)
}

// observed is everything the determinism contract covers about a solve.
type observed struct {
	model, facts, trace, stats string
	// events is the engine's event stream (see eventFingerprint).
	events string
	// checkpoints counts the checkpoint writes; snap is the final one
	// without what names the program rather than the model: the
	// fingerprint is zeroed and the SHA-256 trailer (which covers it)
	// cut off.
	checkpoints string
	snap        []byte
}

// countingSink counts the checkpoints a solve writes through it. The
// walk takes checkpoints under its lock, so writes never overlap.
type countingSink struct {
	datalog.CheckpointSink
	n int
}

func (c *countingSink) Write(s *snapshot.Snapshot) error {
	c.n++
	return c.CheckpointSink.Write(s)
}

func observe(t *testing.T, src string, args []datalog.Fact, opts datalog.Options) observed {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	var events []datalog.Event
	opts.Sink = datalog.SinkFunc(func(e datalog.Event) { events = append(events, e) })
	p, err := datalog.Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{CheckpointSink: datalog.FileCheckpoint(ckpt)}
	m, stats, err := p.SolveContext(context.Background(), args, datalog.WithCheckpoint(sink, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fp := p.Fingerprint()
	snap = bytes.Replace(snap[:len(snap)-sha256.Size], fp[:], make([]byte, len(fp)), 1)
	return observed{
		model:       m.String(),
		facts:       factFingerprint(m),
		trace:       traceFingerprint(t, p, m),
		stats:       fmt.Sprintf("%+v", normStats(stats)),
		events:      eventFingerprint(events),
		checkpoints: fmt.Sprint(sink.n),
		snap:        snap,
	}
}

// eventFingerprint renders an event stream in the form the determinism
// contract covers: grouped by component in emission order within each
// group (concurrently evaluating components interleave), wall times
// zeroed.
func eventFingerprint(events []datalog.Event) string {
	groups := map[int][]string{}
	for _, e := range events {
		e.Nanos = 0
		groups[e.Component] = append(groups[e.Component], fmt.Sprintf("%+v", e))
	}
	var b strings.Builder
	comps := make([]int, 0, len(groups))
	for c := range groups {
		comps = append(comps, c)
	}
	sort.Ints(comps)
	for _, c := range comps {
		fmt.Fprintf(&b, "component %d:\n\t%s\n", c, strings.Join(groups[c], "\n\t"))
	}
	return b.String()
}

func (o observed) diff(t *testing.T, how string, want observed) {
	t.Helper()
	for _, c := range []struct{ what, got, want string }{
		{"model", o.model, want.model},
		{"fact order", o.facts, want.facts},
		{"traces", o.trace, want.trace},
		{"stats", o.stats, want.stats},
		{"events", o.events, want.events},
		{"checkpoint writes", o.checkpoints, want.checkpoints},
	} {
		if c.got != c.want {
			t.Fatalf("%s: %s differ:\n%s\nwant:\n%s", how, c.what, c.got, c.want)
		}
	}
	if !bytes.Equal(o.snap, want.snap) {
		t.Fatalf("%s: final checkpoint differs (%d vs %d bytes)", how, len(o.snap), len(want.snap))
	}
}

// TestFactsInTextEqualFactsAsArguments: Load(rules+facts).Solve() and
// Load(rules).Solve(facts...) agree on model, fact order, derivations,
// Stats (rule work only — no rule slot, firing or derivation per fact —
// and so the operator counters) and final checkpoint bytes, at every worker count.
// (cmd/mdl's TestFactFilesEqualProgramText covers `mdl prog.mdl
// facts.mdl`.)
func TestFactsInTextEqualFactsAsArguments(t *testing.T) {
	for _, tc := range factCases() {
		t.Run(tc.name, func(t *testing.T) {
			args := argFacts(t, tc.facts)
			var seq observed
			for _, procs := range []int{1, 2, 4} {
				withProcs(t, procs)
				opts := datalog.Options{Epsilon: tc.eps}
				text := observe(t, tc.rules+"\n"+tc.facts, nil, opts)
				text.diff(t, fmt.Sprintf("GOMAXPROCS %d, facts in text vs as arguments", procs),
					observe(t, tc.rules, args, opts))
				if procs == 1 {
					seq = text
				} else {
					text.diff(t, fmt.Sprintf("GOMAXPROCS %d vs 1", procs), seq)
				}
			}
		})
	}
}

// TestFrontEndFlatInFacts pins the front end's cost to the rules: ten
// times the arcs compile the same three plans and the same Stats.Rules,
// and core.New's allocations grow by a small constant per added fact —
// its stored row, nothing in the analyses or the compiler.
func TestFrontEndFlatInFacts(t *testing.T) {
	parse := func(arcs int) (*ast.Program, int) {
		src := programs.ShortestPath + gen.GraphFacts(gen.Graph(gen.LayeredDAG, 400, arcs, 9, 1))
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return prog, strings.Count(src, "arc(") - strings.Count(programs.ShortestPath, "arc(")
	}
	small, nSmall := parse(200)
	large, nLarge := parse(2000)
	if nLarge < 5*nSmall {
		t.Fatalf("generated %d and %d arcs, want them far apart", nSmall, nLarge)
	}
	for _, prog := range []*ast.Program{small, large} {
		en, err := core.New(prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(en.Profile(core.Stats{}).Rules); n != 3 {
			t.Fatalf("compiled %d plans, want the 3 rules of Example 2.6", n)
		}
		_, st, err := en.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Rules) != 3 {
			t.Fatalf("Stats.Rules has %d rows, want 3 (no row per fact)", len(st.Rules))
		}
	}
	allocs := func(prog *ast.Program) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := core.New(prog, core.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	perFact := (allocs(large) - allocs(small)) / float64(nLarge-nSmall)
	t.Logf("core.New: %.2f allocations per added fact", perFact)
	// A stored row costs its key string and its argument tuple; the seed
	// paid over a hundred allocations per fact here.
	if perFact > 3 {
		t.Fatalf("core.New allocates %.2f objects per added fact, want ≤ 3", perFact)
	}
}

// TestFactRejectionsStayAtLoad: what can be wrong with a fact is still
// found at Load, as an ErrStatic naming the fact.
func TestFactRejectionsStayAtLoad(t *testing.T) {
	datalog.RegisterSetUniverse("flatfacts_colors", datalog.Sym("red"), datalog.Sym("green"))
	for _, tc := range []struct{ name, src, want string }{
		{"conflicting costs",
			programs.ShortestPath + "arc(a, b, 1). arc(b, c, 2). arc(a, b, 3).",
			`facts "arc(a, b, 1)." and "arc(a, b, 3)." assign different costs`},
		{"cost outside the lattice",
			".cost owns/2 : flatfacts_colors.\nowns(ann, {red}). owns(bob, {blue}).",
			"owns(bob, {blue})"},
		{"cost of the wrong type",
			programs.ShortestPath + "arc(a, b, far).",
			"arc(a, b, far)"},
		{"non-ground fact",
			programs.ShortestPath + "arc(a, Y, 1).",
			`"arc(a, Y, 1)."`},
		{"cost predicate without arguments",
			".cost p/0 : minreal.\np.",
			"p/0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := datalog.Load(tc.src, datalog.Options{})
			if !errors.Is(err, datalog.ErrStatic) {
				t.Fatalf("err = %v, want ErrStatic", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, must name %s", err, tc.want)
			}
		})
	}
}

// TestFactCostConflictsJoinAsArguments pins the one difference between
// the ingest routes: two text facts giving one tuple two costs are
// refused at Load, while facts passed to Solve or SolveMore — against
// each other or against a text fact — are joined in the cost lattice
// (min for arc's minreal). Cold WAL recovery replays every logged fact
// as one Solve, so a log that re-asserts a tuple at a new cost must load.
func TestFactCostConflictsJoinAsArguments(t *testing.T) {
	if _, err := datalog.Load(programs.ShortestPath+"arc(a, b, 1). arc(a, b, 3).", datalog.Options{}); !errors.Is(err, datalog.ErrStatic) {
		t.Fatalf("conflicting text facts: err = %v, want ErrStatic", err)
	}
	arc := func(c float64) datalog.Fact {
		return datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("b"), datalog.Num(c))
	}
	cost := func(m *datalog.Model) float64 {
		t.Helper()
		fs := m.Facts("arc")
		if len(fs) != 1 {
			t.Fatalf("arc = %v, want one tuple", fs)
		}
		c, _ := fs[0][2].Float()
		return c
	}
	p, err := datalog.Load(programs.ShortestPath, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve(arc(3), arc(1))
	if err != nil || cost(m) != 1 {
		t.Fatalf("conflicting arguments: err = %v, want them joined to cost 1", err)
	}
	if m, _, err = p.SolveMore(m, arc(0.5)); err != nil || cost(m) != 0.5 {
		t.Fatalf("conflicting SolveMore fact: err = %v, want it joined to cost 0.5", err)
	}
	pt, err := datalog.Load(programs.ShortestPath+"arc(a, b, 1).", datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err = pt.Solve(arc(3)); err != nil || cost(m) != 1 {
		t.Fatalf("argument against a text fact: err = %v, want them joined to cost 1", err)
	}
}

// TestCallerFactsChecked: every route by which a caller's facts reach a
// solve — Solve, SolveMore, and a batch read back from AppendFacts —
// ends in one row sink with one set of refusals: a predicate the program
// does not have, a known predicate at another arity, a NaN argument and
// a cost outside the predicate's lattice. A refused fact leaves the
// model and the program's predicates as they were.
func TestCallerFactsChecked(t *testing.T) {
	p, err := datalog.Load(programs.ShortestPath, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := datalog.Sym("a"), datalog.Sym("b")
	base, _, err := p.Solve(datalog.NewFact("arc", a, b, datalog.Num(1)))
	if err != nil {
		t.Fatal(err)
	}
	preds := fmt.Sprint(p.Predicates())
	for _, tc := range []struct {
		name string
		fact datalog.Fact
		want string
	}{
		{"arity", datalog.NewFact("arc", b, datalog.Sym("c")),
			"datalog: arc takes 3 arguments (cost last for cost predicates), got 2"},
		{"unknown predicate", datalog.NewFact("nosuch", datalog.Sym("x")),
			`datalog: program has no predicate "nosuch"`},
		{"NaN argument", datalog.NewFact("arc", a, datalog.Num(math.NaN()), datalog.Num(1)),
			"datalog: fact arc: argument 2 is NaN"},
		{"NaN cost", datalog.NewFact("arc", a, b, datalog.Num(math.NaN())),
			"datalog: fact arc: argument 3 is NaN"},
		{"cost outside the lattice", datalog.NewFact("arc", a, b, datalog.Sym("far")),
			"datalog: fact arc: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(route string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want %q", route, err, tc.want)
				}
			}
			_, _, err := p.Solve(tc.fact)
			check("Solve", err)
			_, _, err = p.SolveMore(base, tc.fact)
			check("SolveMore", err)
			err = p.NewBatch().AddEncoded(datalog.AppendFacts(nil, []datalog.Fact{tc.fact}))
			if tc.name == "NaN argument" || tc.name == "NaN cost" {
				// The encoded route never gets a NaN past its decoder.
				if !errors.Is(err, datalog.ErrSnapshotCorrupt) {
					t.Errorf("AddEncoded: err = %v, want ErrSnapshotCorrupt", err)
				}
			} else {
				check("AddEncoded", err)
			}
			if got := fmt.Sprint(base.Facts("arc")); got != "[[a b 1]]" {
				t.Errorf("arc = %s after the refusal", got)
			}
			if got := fmt.Sprint(p.Predicates()); got != preds {
				t.Errorf("predicates %s after the refusal, were %s", got, preds)
			}
		})
	}
}

// TestBatchSolvedOnce: a solve takes its batch over, since the model it
// returns may keep the batch's relations; adding to or solving the batch
// again fails, and a program refuses another program's batch.
func TestBatchSolvedOnce(t *testing.T) {
	p, err := datalog.Load(programs.ShortestPath, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arc := datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("b"), datalog.Num(1))
	b := p.NewBatch()
	if err := b.Add(arc); err != nil || b.Len() != 1 {
		t.Fatalf("Add: %v, Len %d", err, b.Len())
	}
	m, _, err := p.Resume(context.Background(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(arc); err == nil {
		t.Error("Add to a solved batch succeeded")
	}
	if _, _, err := p.Resume(context.Background(), m, b); err == nil {
		t.Error("a batch was solved twice")
	}
	q, err := datalog.Load(programs.ShortestPath, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Resume(context.Background(), nil, p.NewBatch()); err == nil {
		t.Error("a program solved another program's batch")
	}
	if got := fmt.Sprint(m.Facts("arc")); got != "[[a b 1]]" {
		t.Errorf("arc = %s", got)
	}
}
