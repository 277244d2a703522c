package datalog_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/val"
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
	var out []datalog.Fact
	for _, r := range prog.Rules {
		f := datalog.Fact{Pred: r.Head.Pred}
		for _, a := range r.Head.Args {
			switch v := a.(ast.Const).V; v.Kind {
			case val.Sym:
				f.Args = append(f.Args, datalog.Sym(v.S))
			case val.Num:
				f.Args = append(f.Args, datalog.Num(v.N))
			case val.Bool:
				f.Args = append(f.Args, datalog.Bool(v.B))
			case val.Str:
				f.Args = append(f.Args, datalog.Str(v.S))
			default:
				t.Fatalf("fact %s: unsupported constant %s", r, v)
			}
		}
		out = append(out, f)
	}
	return out
}

// observed is everything the determinism contract covers about a solve.
type observed struct {
	model, facts, trace, stats string
	// snap is the final checkpoint without what names the program rather
	// than the model: the fingerprint is zeroed and the SHA-256 trailer
	// (which covers it) cut off.
	snap []byte
}

func observe(t *testing.T, src string, args []datalog.Fact, opts datalog.Options) observed {
	t.Helper()
	p, err := datalog.Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	m, stats, err := p.SolveContext(context.Background(), args, datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
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
		model: m.String(),
		facts: factFingerprint(m),
		trace: traceFingerprint(t, p, m),
		stats: fmt.Sprintf("%+v", normStats(stats)),
		snap:  snap,
	}
}

func (o observed) diff(t *testing.T, how string, want observed) {
	t.Helper()
	for _, c := range []struct{ what, got, want string }{
		{"model", o.model, want.model},
		{"fact order", o.facts, want.facts},
		{"traces", o.trace, want.trace},
		{"stats", o.stats, want.stats},
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
