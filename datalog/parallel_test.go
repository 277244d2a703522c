package datalog_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/faults"
	"repro/internal/programs"
)

// The component walk's determinism contract (docs/ARCHITECTURE.md): for
// every program and every worker count (GOMAXPROCS), the model, the
// insertion order of facts, the explanations, the Stats — their
// per-operator counters (probes and build sizes included) and so every
// Profile view — and the checkpoint bytes are identical, for Solve,
// Resume and SolveMore alike. These tests enforce the contract
// differentially over every shipped example program; timing fields
// (Nanos) are the only tolerated difference.

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
	for i := range n.RoundLog {
		n.RoundLog[i].Start, n.RoundLog[i].Nanos = 0, 0
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

// traceFingerprint renders the explanation (rule plus supports) and the
// depth-2 explanation tree of every fact in the model.
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
			fmt.Fprintf(&b, "%s%v ok=%v rule=%q supports=%v\n%s", pred, args, ok, rule, supports, m.ExplainTree(pred, 2, args...))
		}
	}
	return b.String()
}

// withProcs sets GOMAXPROCS — and with it the component walk's worker
// count — to n for the rest of the test, restoring it when the test ends.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// solveParallel loads one example and solves it at GOMAXPROCS procs, checkpointing every round; it also returns the
// bytes of the final checkpoint.
func solveParallel(t *testing.T, name string, procs int) (*datalog.Program, *datalog.Model, datalog.Stats, []byte) {
	t.Helper()
	withProcs(t, procs)
	src, err := os.ReadFile(filepath.Join(exampleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := datalog.Load(string(src), exampleOptions(name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	m, stats, err := p.SolveContext(context.Background(), nil, datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
	if err != nil {
		t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return p, m, stats, snap
}

// TestParallelDeterminism solves every shipped example program
// (omega.mdl diverges by design and is excluded) at GOMAXPROCS 1, 2, 4
// and 8, asserting model, fact order, explanations, stats (operator
// counters and the RoundLog, timing aside, included) and final checkpoint
// bytes agree exactly, and that the model
// restored from that checkpoint explains every fact the same way.
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
			restored, err := seqP.Restore(seqSnap)
			if err != nil {
				t.Fatal(err)
			}
			if got := traceFingerprint(t, seqP, restored); got != seqTrace {
				t.Fatalf("restored model's explanations differ:\n%s\nwant:\n%s", got, seqTrace)
			}
			for _, par := range []int{2, 4, 8} {
				parP, parM, parStats, parSnap := solveParallel(t, name, par)
				if got := parM.String(); got != seqModel {
					t.Fatalf("GOMAXPROCS %d model differs:\n%s\nwant:\n%s", par, got, seqModel)
				}
				if got := factFingerprint(parM); got != seqFacts {
					t.Fatalf("GOMAXPROCS %d fact order differs:\n%s\nwant:\n%s", par, got, seqFacts)
				}
				if got := traceFingerprint(t, parP, parM); got != seqTrace {
					t.Fatalf("GOMAXPROCS %d traces differ:\n%s\nwant:\n%s", par, got, seqTrace)
				}
				if got, want := fmt.Sprintf("%+v", normStats(parStats)), fmt.Sprintf("%+v", normStats(seqStats)); got != want {
					t.Fatalf("GOMAXPROCS %d stats differ:\n%s\nwant:\n%s", par, got, want)
				}
				if !bytes.Equal(parSnap, seqSnap) {
					t.Fatalf("GOMAXPROCS %d final checkpoint differs (%d vs %d bytes)", par, len(parSnap), len(seqSnap))
				}
			}
		})
	}
}

// twoShortestPaths is two independent copies of Example 2.6 over their
// own arcs: two recursive components SolveMore can extend concurrently.
var twoShortestPaths = shortestPathCopy("0") + shortestPathCopy("1") + `
arc0(a, b, 1). arc0(b, c, 2).
arc1(x, y, 3). arc1(y, z, 1).
`

// shortestPathCopy is Example 2.6 with each predicate's name suffixed by n.
func shortestPathCopy(n string) string {
	return regexp.MustCompile(`\b(arc|path|s)\b`).ReplaceAllString(programs.ShortestPath, "${1}"+n)
}

// TestParallelSolveMoreChain extends a model twice through the
// incremental walk at GOMAXPROCS 1, 2 and 4. The chained model must equal
// a one-shot solve of all the facts and explain every fact as it does, and
// its fact order, explanations, Stats and snapshot bytes must be identical
// at every worker count. The cases are
// one recursive component (Example 2.6); Example 2.1, whose new courses
// reach one of its six components while the rest settle unevaluated (its
// record facts feed avg, so SolveMore refuses them); and two independent
// shortest-path chains that both get new arcs.
func TestParallelSolveMoreChain(t *testing.T) {
	arc := func(pred, from, to string, c float64) datalog.Fact {
		return datalog.NewFact(pred, datalog.Sym(from), datalog.Sym(to), datalog.Num(c))
	}
	course := func(c string) datalog.Fact { return datalog.NewFact("courses", datalog.Sym(c)) }
	shortestPath, err := os.ReadFile(filepath.Join(exampleDir, "shortestpath.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		src           string
		first, second []datalog.Fact
	}{
		{"shortestpath", string(shortestPath),
			[]datalog.Fact{arc("arc", "f", "a", 1), arc("arc", "e", "f", 2)},
			[]datalog.Fact{arc("arc", "f", "d", 1)}},
		{"averages", programs.Averages + `
record(ann, db, 3). record(bob, db, 4). record(ann, ai, 2). courses(db).`,
			[]datalog.Fact{course("ai")},
			[]datalog.Fact{course("os")}},
		{"two chains", twoShortestPaths,
			[]datalog.Fact{arc("arc0", "c", "a", 1), arc("arc1", "z", "x", 2)},
			[]datalog.Fact{arc("arc0", "c", "d", 1), arc("arc1", "x", "z", 9)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				model, facts, trace string
				stats               datalog.Stats
				snap                []byte
			}
			chain := func(procs int) result {
				t.Helper()
				withProcs(t, procs)
				p, err := datalog.Load(tc.src, datalog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				m, _, err := p.Solve()
				if err != nil {
					t.Fatal(err)
				}
				m2, _, err := p.SolveMore(m, tc.first...)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d first SolveMore: %v", procs, err)
				}
				m3, stats, err := p.SolveMore(m2, tc.second...)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d second SolveMore: %v", procs, err)
				}
				return result{m3.String(), factFingerprint(m3), traceFingerprint(t, p, m3), normStats(stats), m3.Snapshot()}
			}
			ref := chain(1)
			p, err := datalog.Load(tc.src, datalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			oneShot, _, err := p.Solve(append(append([]datalog.Fact{}, tc.first...), tc.second...)...)
			if err != nil {
				t.Fatal(err)
			}
			if ref.model != oneShot.String() {
				t.Fatalf("chained model differs from the one-shot solve:\n%s\nwant:\n%s", ref.model, oneShot)
			}
			if want := traceFingerprint(t, p, oneShot); ref.trace != want {
				t.Fatalf("chained explanations differ from the one-shot solve's:\n%s\nwant:\n%s", ref.trace, want)
			}
			for _, procs := range []int{2, 4} {
				got := chain(procs)
				for _, c := range []struct{ what, got, want string }{
					{"model", got.model, ref.model},
					{"fact order", got.facts, ref.facts},
					{"traces", got.trace, ref.trace},
					{"stats", fmt.Sprintf("%+v", got.stats), fmt.Sprintf("%+v", ref.stats)},
				} {
					if c.got != c.want {
						t.Fatalf("GOMAXPROCS %d chained %s differs:\n%s\nwant:\n%s", procs, c.what, c.got, c.want)
					}
				}
				if !bytes.Equal(got.snap, ref.snap) {
					t.Fatalf("GOMAXPROCS %d chained snapshot differs (%d vs %d bytes)", procs, len(got.snap), len(ref.snap))
				}
			}
		})
	}
}

// TestParallelKillResume interrupts a solve at GOMAXPROCS 4 (injected
// panic at a fixpoint round boundary, simulating a crash) with
// checkpointing on, then restores the last durable checkpoint and resumes
// — still on four workers — asserting the final model and its
// explanations match an uninterrupted one-worker solve. Component boundaries and round
// boundaries are the only checkpoint cut points, so every checkpoint a
// concurrent walk flushes must be a consistent state of the global
// database.
func TestParallelKillResume(t *testing.T) {
	for _, name := range []string{"shortestpath.mdl", "companycontrol.mdl"} {
		t.Run(name, func(t *testing.T) {
			fullP, full, _, _ := solveParallel(t, name, 1)

			src, err := os.ReadFile(filepath.Join(exampleDir, name))
			if err != nil {
				t.Fatal(err)
			}
			withProcs(t, 4)
			p, err := datalog.Load(string(src), exampleOptions(name))
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

			restored, _, err := p.RestoreFile(ckpt)
			if err != nil {
				t.Fatalf("restore after crash: %v", err)
			}
			m, _, err := p.Resume(context.Background(), restored, nil)
			if err != nil {
				t.Fatalf("resume after crash: %v", err)
			}
			if m.String() != full.String() {
				t.Fatalf("resumed model differs from the one-worker solve:\n%s\nwant:\n%s", m, full)
			}
			if got, want := traceFingerprint(t, p, m), traceFingerprint(t, fullP, full); got != want {
				t.Fatalf("resumed model's explanations differ from the one-worker solve's:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestParallelWorkerPanicContained arms the worker-entry fault point:
// a panic in a component's evaluation — on a worker goroutine at
// GOMAXPROCS 4, on the calling goroutine at 1 — must surface as a
// structured ErrInternal from Solve, never crash the process and never
// hang the walk, and the engine must remain usable afterwards. The
// program has two components with rules, so four workers start two
// goroutines besides the caller.
func TestParallelWorkerPanicContained(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(exampleDir, "shortestpath.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		p, err := datalog.Load(string(src)+"\nreach(X, Y) :- s(X, Y, C).\n", datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		faults.Arm(faults.Fault{Point: faults.CoreParallelWorker, Panic: true, Sticky: true})
		_, _, err = p.Solve()
		if !errors.Is(err, datalog.ErrInternal) {
			faults.Reset()
			t.Fatalf("GOMAXPROCS %d: err = %v, want ErrInternal", procs, err)
		}
		var ee *datalog.EngineError
		if !errors.As(err, &ee) || len(ee.Stack) == 0 {
			faults.Reset()
			t.Fatalf("GOMAXPROCS %d: err %v must be a structured *EngineError carrying the stack", procs, err)
		}
		// The engine must stay usable: disarm and the same Program solves.
		faults.Reset()
		if _, _, err := p.Solve(); err != nil {
			t.Fatalf("GOMAXPROCS %d: solve after contained crash: %v", procs, err)
		}
	}
}
