package datalog_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/datalog"
)

// The planner contract (docs/PLANNER.md): the cost-based planner is a
// pure physical optimization — for every program, every parallelism
// level and every incremental chain, the model, fact
// insertion order, traces, checkpoint bytes and the Stats ledger's
// Firings/Derived/Rounds/Components totals are byte-identical to the
// syntactic left-to-right plan. Probes (and Nanos) are exempt: a
// different join order legitimately probes different indexes — that is
// the point of planning.

// normPlanStats strips the two fields the planner contract exempts:
// wall-clock time and index-probe counts.
func normPlanStats(s datalog.Stats) datalog.Stats {
	n := normStats(s)
	n.Probes = 0
	for i := range n.Rules {
		n.Rules[i].Probes = 0
	}
	for i := range n.Comps {
		n.Comps[i].Probes = 0
	}
	return n
}

// solvePlanned loads one example with tracing and the given planner and
// worker count, and solves it.
func solvePlanned(t *testing.T, name string, pl datalog.Plan, par int) (*datalog.Program, *datalog.Model, datalog.Stats) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(exampleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	opts := exampleOptions(name)
	opts.Trace = true
	opts.Plan = pl
	opts.Parallelism = par
	p, err := datalog.Load(string(src), opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	m, stats, err := p.Solve()
	if err != nil {
		t.Fatalf("%s plan=%v parallelism=%d: %v", name, pl, par, err)
	}
	return p, m, stats
}

// TestPlannerDifferential solves every shipped example program
// (omega.mdl diverges by design and is covered separately) under the
// syntactic plan and under the cost plan at parallelism 1, 2 and
// GOMAXPROCS, asserting model, fact order, traces and the
// exempt-normalized stats agree exactly.
func TestPlannerDifferential(t *testing.T) {
	entries, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".mdl") || name == "omega.mdl" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			refP, refM, refStats := solvePlanned(t, name, datalog.PlanSyntactic, 1)
			refModel := refM.String()
			refFacts := factFingerprint(refM)
			refTrace := traceFingerprint(t, refP, refM)
			refNorm := fmt.Sprintf("%+v", normPlanStats(refStats))
			for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				costP, costM, costStats := solvePlanned(t, name, datalog.PlanCost, par)
				tag := fmt.Sprintf("cost parallelism=%d", par)
				if got := costM.String(); got != refModel {
					t.Fatalf("%s model differs:\n%s\nwant:\n%s", tag, got, refModel)
				}
				if got := factFingerprint(costM); got != refFacts {
					t.Fatalf("%s fact order differs:\n%s\nwant:\n%s", tag, got, refFacts)
				}
				if got := traceFingerprint(t, costP, costM); got != refTrace {
					t.Fatalf("%s traces differ:\n%s\nwant:\n%s", tag, got, refTrace)
				}
				if got := fmt.Sprintf("%+v", normPlanStats(costStats)); got != refNorm {
					t.Fatalf("%s stats differ:\n%s\nwant:\n%s", tag, got, refNorm)
				}
			}
		})
	}
}

// TestWithPlanOption: the per-solve override produces the same model as
// the Load-time option, from one loaded program.
func TestWithPlanOption(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(exampleDir, "shortestpath.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := datalog.Load(string(src), datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	syn, _, err := p.SolveContext(ctx, nil, datalog.WithPlan(datalog.PlanSyntactic))
	if err != nil {
		t.Fatal(err)
	}
	cost, _, err := p.SolveContext(ctx, nil, datalog.WithPlan(datalog.PlanCost))
	if err != nil {
		t.Fatal(err)
	}
	if cost.String() != syn.String() {
		t.Fatalf("WithPlan(cost) model differs:\n%s\nwant:\n%s", cost, syn)
	}
}

// TestPlannerDivergenceParity runs the intentionally divergent
// omega.mdl under both planners at parallelism 1, 2 and 4: the ω-limit
// detector must trip every time with identical structured errors
// (component, round, offending group, trajectory) and an identical
// partial model.
func TestPlannerDivergenceParity(t *testing.T) {
	run := func(pl datalog.Plan, par int) (string, string) {
		t.Helper()
		src, err := os.ReadFile(filepath.Join(exampleDir, "omega.mdl"))
		if err != nil {
			t.Fatal(err)
		}
		opts := exampleOptions("omega.mdl")
		opts.Plan = pl
		opts.Parallelism = par
		opts.DivergenceStreak = 50
		p, err := datalog.Load(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := p.Solve()
		if !errors.Is(err, datalog.ErrDiverged) {
			t.Fatalf("plan=%v parallelism=%d err = %v, want ErrDiverged", pl, par, err)
		}
		if m == nil {
			t.Fatalf("plan=%v parallelism=%d divergence must return the partial model", pl, par)
		}
		return err.Error(), m.String()
	}
	refErr, refModel := run(datalog.PlanSyntactic, 1)
	for _, pl := range []datalog.Plan{datalog.PlanSyntactic, datalog.PlanCost} {
		for _, par := range []int{1, 2, 4} {
			gotErr, gotModel := run(pl, par)
			if gotErr != refErr {
				t.Fatalf("plan=%v parallelism=%d divergence error differs:\n%s\nwant:\n%s", pl, par, gotErr, refErr)
			}
			if gotModel != refModel {
				t.Fatalf("plan=%v parallelism=%d partial model differs:\n%s\nwant:\n%s", pl, par, gotModel, refModel)
			}
		}
	}
}

// TestPlannerSolveMoreChain extends a model twice through the
// incremental path under each planner; the chained models and
// exempt-normalized cumulative stats must match exactly. Incremental
// seeds disable subplan sharing but keep cost ordering, so this
// exercises the planner's SolveMore entry point.
func TestPlannerSolveMoreChain(t *testing.T) {
	chain := func(pl datalog.Plan) (string, string, datalog.Stats) {
		t.Helper()
		p, m, _ := solvePlanned(t, "shortestpath.mdl", pl, 1)
		m2, _, err := p.SolveMore(m,
			datalog.NewFact("arc", datalog.Sym("f"), datalog.Sym("a"), datalog.Num(1)),
			datalog.NewFact("arc", datalog.Sym("e"), datalog.Sym("f"), datalog.Num(2)))
		if err != nil {
			t.Fatalf("plan=%v first SolveMore: %v", pl, err)
		}
		m3, stats, err := p.SolveMore(m2,
			datalog.NewFact("arc", datalog.Sym("f"), datalog.Sym("d"), datalog.Num(1)))
		if err != nil {
			t.Fatalf("plan=%v second SolveMore: %v", pl, err)
		}
		return m3.String(), factFingerprint(m3), stats
	}
	refModel, refFacts, refStats := chain(datalog.PlanSyntactic)
	costModel, costFacts, costStats := chain(datalog.PlanCost)
	if costModel != refModel {
		t.Fatalf("cost chained model differs:\n%s\nwant:\n%s", costModel, refModel)
	}
	if costFacts != refFacts {
		t.Fatalf("cost chained fact order differs:\n%s\nwant:\n%s", costFacts, refFacts)
	}
	if got, want := fmt.Sprintf("%+v", normPlanStats(costStats)), fmt.Sprintf("%+v", normPlanStats(refStats)); got != want {
		t.Fatalf("cost chained stats differ:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlannerCheckpointParity checkpoints a solve under each planner at
// every round boundary, at parallelism 1, 2 and 4; the final checkpoint
// bytes must be byte-identical (the durable format must leak neither
// the plan nor the worker count).
func TestPlannerCheckpointParity(t *testing.T) {
	snap := func(pl datalog.Plan, par int) []byte {
		t.Helper()
		src, err := os.ReadFile(filepath.Join(exampleDir, "shortestpath.mdl"))
		if err != nil {
			t.Fatal(err)
		}
		opts := exampleOptions("shortestpath.mdl")
		opts.Plan = pl
		opts.Parallelism = par
		p, err := datalog.Load(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.ckpt")
		if _, _, err := p.SolveContext(context.Background(), nil, datalog.WithCheckpoint(datalog.FileCheckpoint(path), 1)); err != nil {
			t.Fatalf("plan=%v parallelism=%d solve: %v", pl, par, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := snap(datalog.PlanSyntactic, 1)
	for _, pl := range []datalog.Plan{datalog.PlanSyntactic, datalog.PlanCost} {
		for _, par := range []int{1, 2, 4} {
			if got := snap(pl, par); string(got) != string(ref) {
				t.Fatalf("plan=%v parallelism=%d checkpoint bytes differ (%d vs %d bytes)", pl, par, len(got), len(ref))
			}
		}
	}
}

// TestPlannerResumeParity resumes a mid-solve checkpoint under the cost
// planner: a checkpoint written by the syntactic plan restores and
// finishes under the cost plan (and vice versa) with the same final
// model — resumability must not depend on the plan that wrote the
// snapshot.
func TestPlannerResumeParity(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(exampleDir, "shortestpath.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	final := func(writePl, resumePl datalog.Plan) string {
		t.Helper()
		opts := exampleOptions("shortestpath.mdl")
		opts.Plan = writePl
		p, err := datalog.Load(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.ckpt")
		ctx := context.Background()
		if _, _, err := p.SolveContext(ctx, nil, datalog.WithCheckpoint(datalog.FileCheckpoint(path), 1)); err != nil {
			t.Fatalf("plan=%v checkpointed solve: %v", writePl, err)
		}
		restored, err := p.RestoreFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := p.Resume(ctx, restored, datalog.WithPlan(resumePl))
		if err != nil {
			t.Fatalf("resume plan=%v: %v", resumePl, err)
		}
		return m.String()
	}
	ref := final(datalog.PlanSyntactic, datalog.PlanSyntactic)
	if got := final(datalog.PlanSyntactic, datalog.PlanCost); got != ref {
		t.Fatalf("syntactic→cost resume differs:\n%s\nwant:\n%s", got, ref)
	}
	if got := final(datalog.PlanCost, datalog.PlanSyntactic); got != ref {
		t.Fatalf("cost→syntactic resume differs:\n%s\nwant:\n%s", got, ref)
	}
	if got := final(datalog.PlanCost, datalog.PlanCost); got != ref {
		t.Fatalf("cost→cost resume differs:\n%s\nwant:\n%s", got, ref)
	}
}

// cseProgram has two same-component rules with an identical frozen
// two-scan prefix (knows ⋈ lives) — the shape the planner's
// common-subplan detection buffers once and replays into both rules.
// (Sharing is scoped to one component's planning pass, so the rules
// define the same predicate.)
const cseProgram = `
a(X, Z) :- knows(X, Y), lives(Y, Z), likes(Z).
a(X, Z) :- knows(X, Y), lives(Y, Z), single(Z).

knows(ann, bea).  knows(ann, cal).  knows(bea, cal).
knows(cal, dee).  knows(dee, ann).  knows(bea, dee).
lives(bea, oslo). lives(cal, rome). lives(dee, rome).
lives(ann, oslo). lives(cal, kyiv).
likes(rome). likes(kyiv).
single(oslo). single(rome).
`

// TestPlannerCSEDifferential proves the shared pipeline engages on the
// synthetic program (PlanShared in the profile) and that its model,
// fact order and traces are byte-identical to the syntactic plan's at
// every parallelism level.
func TestPlannerCSEDifferential(t *testing.T) {
	solve := func(pl datalog.Plan, par int) (*datalog.Program, *datalog.Model) {
		t.Helper()
		p, err := datalog.Load(cseProgram, datalog.Options{Trace: true, Plan: pl, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := p.Solve()
		if err != nil {
			t.Fatalf("plan=%v parallelism=%d: %v", pl, par, err)
		}
		return p, m
	}
	refP, refM := solve(datalog.PlanSyntactic, 1)
	refModel, refFacts := refM.String(), factFingerprint(refM)
	refTrace := traceFingerprint(t, refP, refM)
	shared := false
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		costP, costM := solve(datalog.PlanCost, par)
		if got := costM.String(); got != refModel {
			t.Fatalf("parallelism %d model differs:\n%s\nwant:\n%s", par, got, refModel)
		}
		if got := factFingerprint(costM); got != refFacts {
			t.Fatalf("parallelism %d fact order differs:\n%s\nwant:\n%s", par, got, refFacts)
		}
		if got := traceFingerprint(t, costP, costM); got != refTrace {
			t.Fatalf("parallelism %d traces differ:\n%s\nwant:\n%s", par, got, refTrace)
		}
		for _, rp := range costP.Profile().Rules {
			if rp.PlanShared > 0 {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatal("cost plan never shared the common knows⋈lives prefix (PlanShared == 0 everywhere)")
	}
}
