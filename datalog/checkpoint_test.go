package datalog_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/faults"
)

// exampleDir holds the shipped example programs used by the
// differential checkpoint/resume tests.
const exampleDir = "../examples/programs"

// exampleOptions returns the Options a program file needs (game.mdl
// recurses through negation and requires the §6.3 fallback).
func exampleOptions(name string) datalog.Options {
	if name == "game.mdl" {
		return datalog.Options{WFSFallback: true}
	}
	return datalog.Options{}
}

// sameTotals compares the scalar totals of two Stats (the breakdown
// slices make Stats incomparable with ==).
func sameTotals(a, b datalog.Stats) bool {
	return a.Components == b.Components && a.Rounds == b.Rounds &&
		a.Firings == b.Firings && a.Derived == b.Derived && a.Probes == b.Probes
}

func loadExample(t *testing.T, name string) (*datalog.Program, string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(exampleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := datalog.Load(string(src), exampleOptions(name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p, string(src)
}

// TestSnapshotRestoreRoundTrip: Snapshot/Restore is the identity on a
// solved model, including cumulative stats.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p, _ := loadExample(t, "shortestpath.mdl")
	m, stats, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	data := m.Snapshot()
	got, err := p.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != m.String() {
		t.Fatalf("restored model differs:\n%s\nwant:\n%s", got, m)
	}
	// A snapshot records the four core scalar totals only, so the
	// restored stats carry no probes and no per-rule/per-component
	// breakdowns.
	rs := got.Stats()
	if rs.Components != stats.Components || rs.Rounds != stats.Rounds ||
		rs.Firings != stats.Firings || rs.Derived != stats.Derived {
		t.Fatalf("restored stats %+v, want totals of %+v", rs, stats)
	}
	if string(got.Snapshot()) != string(data) {
		t.Fatal("re-encoding a restored model must be byte-identical")
	}
}

// TestRestoreFingerprintMismatch: a checkpoint from program A must be
// rejected by program B, even when the schemas are compatible.
func TestRestoreFingerprintMismatch(t *testing.T) {
	a, src := loadExample(t, "shortestpath.mdl")
	m, _, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Facts are data to the analyses and the compiler, but they are part
	// of the program's identity: the same rules with one extra fact, or
	// with one fact's cost changed, must refuse the checkpoint.
	for _, changed := range []string{
		src + "\narc(zz1, zz2, 9).\n",
		strings.Replace(src, "arc(a, b, 1).", "arc(a, b, 2).", 1),
	} {
		if changed == src {
			t.Fatal("the example no longer holds the fact this test edits")
		}
		b, err := datalog.Load(changed, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Restore(m.Snapshot()); !errors.Is(err, datalog.ErrFingerprintMismatch) {
			t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
		}
	}
}

// TestRestoreCorrupt: damaged bytes are rejected with
// ErrSnapshotCorrupt, never silently decoded.
func TestRestoreCorrupt(t *testing.T) {
	p, _ := loadExample(t, "shortestpath.mdl")
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	data := m.Snapshot()
	data[len(data)/2] ^= 0x40
	if _, err := p.Restore(data); !errors.Is(err, datalog.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestCheckpointResumeDifferential interrupts every shipped example
// program (omega.mdl diverges by design and is excluded) under a tiny
// derivation budget with file checkpointing on, then restores the last
// checkpoint and resumes — repeatedly if the budget keeps biting —
// asserting the final model renders identically to an uninterrupted
// solve. MaxFacts budgets rule derivations only (the program's facts are
// data), so the budget follows what each example derives: circuit.mdl
// derives four tuples, and game.mdl one (its win component runs under
// the well-founded fallback, which is not budgeted) — no budget can
// interrupt that, so it only has to checkpoint and agree.
func TestCheckpointResumeDifferential(t *testing.T) {
	budgets := map[string]int64{"circuit.mdl": 2, "game.mdl": 0}
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
			p, _ := loadExample(t, name)
			full, fullStats, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}

			budget, tuned := budgets[name]
			if !tuned {
				budget = 4
			}
			ckpt := filepath.Join(t.TempDir(), "model.ckpt")
			// p2 finishes the solve; budgeted, loaded with a MaxFacts
			// budget, interrupts it. The fingerprint ignores options, so
			// either restores the other's checkpoints.
			p2, src := loadExample(t, name)
			opts := exampleOptions(name)
			opts.MaxFacts = budget
			budgeted, err := datalog.Load(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			ck := datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1)
			m, _, err := budgeted.SolveContext(ctx, nil, ck)
			resumes := 0
			for errors.Is(err, datalog.ErrBudgetExceeded) {
				restored, _, rerr := p2.RestoreFile(ckpt)
				if rerr != nil {
					t.Fatalf("restore after interrupt %d: %v", resumes, rerr)
				}
				resumes++
				if resumes > 1000 {
					t.Fatal("resume loop does not converge")
				}
				// Keep the budget tight for a few resumes to exercise
				// repeated interruption, then let it finish.
				if resumes < 3 {
					m, _, err = budgeted.Resume(ctx, restored, nil, ck)
				} else {
					m, _, err = p2.Resume(ctx, restored, nil, ck)
				}
			}
			if err != nil {
				t.Fatalf("after %d resumes: %v", resumes, err)
			}
			if resumes == 0 && budget > 0 {
				t.Fatalf("budget never interrupted %s; tighten MaxFacts", name)
			}
			if m.String() != full.String() {
				t.Fatalf("resumed model differs from one-shot solve after %d resumes:\n%s\nwant:\n%s", resumes, m, full)
			}
			if s := m.Stats(); s.Rounds < fullStats.Rounds || s.Derived < fullStats.Derived {
				t.Fatalf("cumulative stats %+v fell below one-shot stats %+v", s, fullStats)
			}
		})
	}
}

// TestCrashRecovery simulates a crash mid-fixpoint with an injected
// panic at a round boundary: the atomic file sink must still hold a
// valid earlier checkpoint, and restore+resume must reach exactly the
// uninterrupted model. The crash hits the second round boundary, except
// on game.mdl: its win component runs under the well-founded fallback
// and its non-recursive wins component is one round, so the solve
// crosses a single round boundary.
func TestCrashRecovery(t *testing.T) {
	for _, name := range []string{"shortestpath.mdl", "party.mdl", "circuit.mdl", "companycontrol.mdl", "game.mdl"} {
		t.Run(name, func(t *testing.T) {
			p, _ := loadExample(t, name)
			full, _, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
			after := 2
			if name == "game.mdl" {
				after = 1
			}
			faults.Arm(faults.Fault{Point: faults.CoreRound, After: after, Panic: true})
			defer faults.Reset()
			p2, _ := loadExample(t, name)
			_, _, err = p2.SolveContext(context.Background(), nil,
				datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
			if !errors.Is(err, datalog.ErrInternal) {
				t.Fatalf("injected crash: err = %v, want ErrInternal", err)
			}
			faults.Reset()

			restored, _, err := p2.RestoreFile(ckpt)
			if err != nil {
				t.Fatalf("post-crash restore: %v", err)
			}
			m, _, err := p2.Resume(context.Background(), restored, nil)
			if err != nil {
				t.Fatalf("post-crash resume: %v", err)
			}
			if m.String() != full.String() {
				t.Fatalf("post-crash resumed model differs:\n%s\nwant:\n%s", m, full)
			}
		})
	}
}

// TestCheckpointSinkFailureFacade: a sink write error surfaces as
// ErrCheckpoint with the partial model attached.
func TestCheckpointSinkFailureFacade(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sink.ckpt")
	faults.Arm(faults.Fault{Point: faults.SnapshotSinkWrite, After: 2, Sticky: true})
	defer faults.Reset()
	p, _ := loadExample(t, "shortestpath.mdl")
	m, _, err := p.SolveContext(context.Background(), nil,
		datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
	if !errors.Is(err, datalog.ErrCheckpoint) {
		t.Fatalf("err = %v, want ErrCheckpoint", err)
	}
	if m == nil {
		t.Fatal("checkpoint failure must still return the partial model")
	}
	// The first write landed before the fault armed its After count, so
	// the file still restores.
	if _, _, err := p.RestoreFile(ckpt); err != nil {
		t.Fatalf("surviving checkpoint must restore: %v", err)
	}
}

// TestTornCheckpointFile: a truncated checkpoint file (torn write,
// simulated by the restore-read fault) is rejected as corrupt.
func TestTornCheckpointFile(t *testing.T) {
	p, _ := loadExample(t, "shortestpath.mdl")
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "torn.ckpt")
	if err := m.WriteSnapshot(ckpt, 0); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.SnapshotRestoreRead, Sticky: true})
	defer faults.Reset()
	if _, _, err := p.RestoreFile(ckpt); !errors.Is(err, datalog.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSolveMoreAccumulatesStats: extending a model reports cumulative
// stats, not per-extension counts.
func TestSolveMoreAccumulatesStats(t *testing.T) {
	p, err := datalog.Load(spChain, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m2, stats2, err := p.SolveMore(m, datalog.NewFact("arc",
		datalog.Sym("e"), datalog.Sym("f"), datalog.Num(1)))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rounds <= stats.Rounds || stats2.Derived <= stats.Derived {
		t.Fatalf("SolveMore stats %+v must extend %+v", stats2, stats)
	}
	if !sameTotals(m2.Stats(), stats2) {
		t.Fatalf("model stats %+v != returned stats %+v", m2.Stats(), stats2)
	}
}

func TestWatermarkRoundTrip(t *testing.T) {
	prog, _ := loadExample(t, "shortestpath.mdl")
	m, _, err := prog.Solve()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wm.snap")
	if err := m.WriteSnapshot(path, 42); err != nil {
		t.Fatal(err)
	}
	m2, seq, err := prog.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("watermark %d, want 42", seq)
	}
	if got, want := m2.Snapshot(), m.Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("restored model differs")
	}
	// Watermark 0 reads back as 0.
	if err := m.WriteSnapshot(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, seq, err = prog.RestoreFile(path); err != nil || seq != 0 {
		t.Fatalf("seq %d err %v, want 0 nil", seq, err)
	}
}

// TestNaNArgumentRefused: a fact with a NaN argument is refused at
// ingestion — by Solve, SolveMore and inside a set — so every model has
// a snapshot that restores.
func TestNaNArgumentRefused(t *testing.T) {
	p, err := datalog.Load(spChain, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nan := datalog.Num(math.NaN())
	if _, _, err := p.Solve(datalog.NewFact("arc", datalog.Sym("a"), nan, datalog.Num(1))); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Solve of a NaN argument: err = %v, want a NaN refusal", err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.SolveMore(m, datalog.NewFact("arc", datalog.SetOf(datalog.Sym("x"), nan), datalog.Sym("b"), datalog.Num(1))); err == nil {
		t.Fatal("SolveMore of a set holding NaN must be refused")
	}
	m, _, err = p.SolveMore(m, datalog.NewFact("arc", datalog.Sym("e"), datalog.Sym("f"), datalog.Num(math.Inf(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Restore(m.Snapshot()); err != nil {
		t.Fatalf("restoring the model after the refused facts: %v", err)
	}
}
