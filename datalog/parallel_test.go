package datalog_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/faults"
)

// The component scheduler's determinism contract (docs/ARCHITECTURE.md):
// for every program and every parallelism level, the model, the
// insertion order of facts, the recorded derivations, the Stats, the
// Profile row counts and the checkpoint bytes are identical to the
// sequential walk's. These tests enforce the contract differentially
// over every shipped example program; timing fields (Nanos) and the
// profile's probe counts are the only tolerated differences.

// normStats strips wall-clock time from a Stats, the one field the
// determinism contract exempts.
func normStats(s datalog.Stats) datalog.Stats {
	n := s.Clone()
	for i := range n.Rules {
		n.Rules[i].Nanos = 0
	}
	for i := range n.Comps {
		n.Comps[i].Nanos = 0
	}
	return n
}

// factFingerprint renders every predicate's facts in insertion order —
// the order Rows() reports — so reorderings invisible in the sorted
// model rendering still fail the comparison.
func factFingerprint(m *datalog.Model) string {
	var b strings.Builder
	for _, pred := range m.Preds() {
		fmt.Fprintf(&b, "%s:\n", pred)
		for _, row := range m.Facts(pred) {
			fmt.Fprintf(&b, "  %v\n", row)
		}
	}
	return b.String()
}

// traceFingerprint renders the recorded derivation (rule plus supports)
// of every fact in the model. Requires Trace to be on.
func traceFingerprint(t *testing.T, p *datalog.Program, m *datalog.Model) string {
	t.Helper()
	hasCost := map[string]bool{}
	for _, d := range p.Predicates() {
		hasCost[d.Name] = d.HasCost
	}
	var b strings.Builder
	for _, pred := range m.Preds() {
		for _, row := range m.Facts(pred) {
			args := row
			if hasCost[pred] {
				args = row[:len(row)-1]
			}
			rule, supports, ok := m.Explain(pred, args...)
			fmt.Fprintf(&b, "%s%v ok=%v rule=%q supports=%v\n", pred, args, ok, rule, supports)
		}
	}
	return b.String()
}

// profileFingerprint renders the operator row counts of a profile. Nanos
// and Probes are exempt from the determinism contract (time is time, and
// probes depend on which lazily built index a cursor finds), so they are
// left out.
func profileFingerprint(pr *datalog.Profile) string {
	var b strings.Builder
	for _, rp := range pr.Rules {
		fmt.Fprintf(&b, "rule %d %s\n", rp.Index, rp.Rule)
		for _, op := range rp.Ops {
			fmt.Fprintf(&b, "  %d %s in=%d out=%d delta=%d groups=%d\n", op.Step, op.Kind, op.In, op.Out, op.Delta, op.Groups)
		}
	}
	return b.String()
}

// solveParallel loads one example with tracing, profiling and the given
// worker count and solves it, checkpointing every round; it also
// returns the bytes of the final checkpoint. Along the way it pins where
// the solve ran: a program with at most one component to evaluate (most
// examples, now that their facts are data) is walked on the calling
// goroutine whatever the worker count, and only a program with several
// goes to the scheduler's workers.
func solveParallel(t *testing.T, name string, par int) (*datalog.Program, *datalog.Model, datalog.Stats, []byte) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(exampleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	opts := exampleOptions(name)
	opts.Trace = true
	opts.Profile = true
	opts.Parallelism = par
	evaluated, onWorkers := 0, 0
	opts.Sink = datalog.SinkFunc(func(e datalog.Event) {
		if e.Kind == datalog.EventComponentBegin {
			evaluated++
			if e.Workers > 0 {
				onWorkers++
			}
		}
	})
	defer func() {
		t.Helper()
		want := 0
		if par > 1 && evaluated > 1 {
			want = evaluated
		}
		if onWorkers != want {
			t.Fatalf("%s at parallelism %d: %d of %d components ran on scheduler workers, want %d",
				name, par, onWorkers, evaluated, want)
		}
	}()
	p, err := datalog.Load(string(src), opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	m, stats, err := p.SolveContext(context.Background(), nil, datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
	if err != nil {
		t.Fatalf("%s at parallelism %d: %v", name, par, err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return p, m, stats, snap
}

// TestParallelDeterminism solves every shipped example program
// (omega.mdl diverges by design and is excluded) sequentially and at
// parallelism 2, 4 and 8, asserting model, fact order, traces, stats,
// profile row counts and final checkpoint bytes agree exactly.
func TestParallelDeterminism(t *testing.T) {
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
			seqP, seqM, seqStats, seqSnap := solveParallel(t, name, 1)
			seqModel := seqM.String()
			seqFacts := factFingerprint(seqM)
			seqTrace := traceFingerprint(t, seqP, seqM)
			seqProfile := profileFingerprint(seqP.Profile())
			for _, par := range []int{2, 4, 8} {
				parP, parM, parStats, parSnap := solveParallel(t, name, par)
				if got := parM.String(); got != seqModel {
					t.Fatalf("parallelism %d model differs:\n%s\nwant:\n%s", par, got, seqModel)
				}
				if got := factFingerprint(parM); got != seqFacts {
					t.Fatalf("parallelism %d fact order differs:\n%s\nwant:\n%s", par, got, seqFacts)
				}
				if got := traceFingerprint(t, parP, parM); got != seqTrace {
					t.Fatalf("parallelism %d traces differ:\n%s\nwant:\n%s", par, got, seqTrace)
				}
				if got, want := fmt.Sprintf("%+v", normStats(parStats)), fmt.Sprintf("%+v", normStats(seqStats)); got != want {
					t.Fatalf("parallelism %d stats differ:\n%s\nwant:\n%s", par, got, want)
				}
				if got := profileFingerprint(parP.Profile()); got != seqProfile {
					t.Fatalf("parallelism %d profile row counts differ:\n%s\nwant:\n%s", par, got, seqProfile)
				}
				if !bytes.Equal(parSnap, seqSnap) {
					t.Fatalf("parallelism %d final checkpoint differs (%d vs %d bytes)", par, len(parSnap), len(seqSnap))
				}
			}
		})
	}
}

// TestParallelSolveMoreChain extends a model twice through the
// incremental path at each parallelism level; the chained models and
// cumulative stats must match the sequential chain exactly.
func TestParallelSolveMoreChain(t *testing.T) {
	chain := func(par int) (string, string, datalog.Stats) {
		t.Helper()
		p, m, _, _ := solveParallel(t, "shortestpath.mdl", par)
		m2, _, err := p.SolveMore(m,
			datalog.NewFact("arc", datalog.Sym("f"), datalog.Sym("a"), datalog.Num(1)),
			datalog.NewFact("arc", datalog.Sym("e"), datalog.Sym("f"), datalog.Num(2)))
		if err != nil {
			t.Fatalf("parallelism %d first SolveMore: %v", par, err)
		}
		m3, stats, err := p.SolveMore(m2,
			datalog.NewFact("arc", datalog.Sym("f"), datalog.Sym("d"), datalog.Num(1)))
		if err != nil {
			t.Fatalf("parallelism %d second SolveMore: %v", par, err)
		}
		return m3.String(), factFingerprint(m3), stats
	}
	seqModel, seqFacts, seqStats := chain(1)
	for _, par := range []int{2, 4, 8} {
		parModel, parFacts, parStats := chain(par)
		if parModel != seqModel {
			t.Fatalf("parallelism %d chained model differs:\n%s\nwant:\n%s", par, parModel, seqModel)
		}
		if parFacts != seqFacts {
			t.Fatalf("parallelism %d chained fact order differs:\n%s\nwant:\n%s", par, parFacts, seqFacts)
		}
		if got, want := fmt.Sprintf("%+v", normStats(parStats)), fmt.Sprintf("%+v", normStats(seqStats)); got != want {
			t.Fatalf("parallelism %d chained stats differ:\n%s\nwant:\n%s", par, got, want)
		}
	}
}

// TestParallelKillResume interrupts a parallel solve (injected panic at
// a fixpoint round boundary, simulating a crash) with checkpointing on,
// then restores the last durable checkpoint and resumes — still in
// parallel — asserting the final model matches an uninterrupted
// sequential solve. Component boundaries and round boundaries are the
// only checkpoint cut points, so every checkpoint a parallel run
// flushes must be a consistent state of the global database.
func TestParallelKillResume(t *testing.T) {
	for _, name := range []string{"shortestpath.mdl", "companycontrol.mdl"} {
		t.Run(name, func(t *testing.T) {
			_, full, _, _ := solveParallel(t, name, 1)

			src, err := os.ReadFile(filepath.Join(exampleDir, name))
			if err != nil {
				t.Fatal(err)
			}
			opts := exampleOptions(name)
			opts.Parallelism = 4
			p, err := datalog.Load(string(src), opts)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "model.ckpt")
			faults.Arm(faults.Fault{Point: faults.CoreRound, After: 2, Panic: true})
			defer faults.Reset()
			_, _, err = p.SolveContext(context.Background(), nil,
				datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
			if !errors.Is(err, datalog.ErrInternal) {
				t.Fatalf("injected crash: err = %v, want ErrInternal", err)
			}
			faults.Reset()

			restored, err := p.RestoreFile(ckpt)
			if err != nil {
				t.Fatalf("restore after crash: %v", err)
			}
			m, _, err := p.Resume(context.Background(), restored)
			if err != nil {
				t.Fatalf("resume after crash: %v", err)
			}
			if m.String() != full.String() {
				t.Fatalf("resumed parallel model differs from sequential solve:\n%s\nwant:\n%s", m, full)
			}
		})
	}
}

// TestParallelWorkerPanicContained arms the worker-entry fault point:
// a panic on a scheduler worker goroutine must surface as a structured
// ErrInternal from Solve — never crash the process and never hang the
// scheduler — and the engine must remain usable afterwards. The program
// needs two components with rules: with one, the solve walks it on the
// calling goroutine and never starts a worker.
func TestParallelWorkerPanicContained(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(exampleDir, "shortestpath.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := datalog.Load(string(src)+"\nreach(X, Y) :- s(X, Y, C).\n", datalog.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.CoreParallelWorker, Panic: true, Sticky: true})
	defer faults.Reset()
	_, _, err = p.Solve()
	if !errors.Is(err, datalog.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ee *datalog.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err %T is not a structured *EngineError", err)
	}
	if len(ee.Stack) == 0 {
		t.Fatal("contained panic must carry the worker stack")
	}
	// The engine must stay usable: disarm and the same Program solves.
	faults.Reset()
	if _, _, err := p.Solve(); err != nil {
		t.Fatalf("solve after contained crash: %v", err)
	}
}
