package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

// captureSink records every checkpoint the engine emits, cloning the
// database so later rounds cannot mutate earlier snapshots.
type captureSink struct {
	dbs   []*relation.DB
	stats []Stats
	fail  error // returned instead of recording when set
}

func (c *captureSink) fn() CheckpointFunc {
	return func(db *relation.DB, stats Stats) error {
		if c.fail != nil {
			return c.fail
		}
		c.dbs = append(c.dbs, db.Clone())
		c.stats = append(c.stats, stats)
		return nil
	}
}

// sameTotals compares the scalar totals of two Stats (the breakdown
// slices make Stats incomparable with ==).
func sameTotals(a, b Stats) bool {
	return a.Components == b.Components && a.Rounds == b.Rounds &&
		a.Firings == b.Firings && a.Derived == b.Derived && a.Probes == b.Probes
}

// TestCheckpointCadence: with CheckpointEvery=1 every round boundary
// checkpoints; the final snapshot equals the returned model, and the
// recorded stats are monotonically non-decreasing.
func TestCheckpointCadence(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		sink := &captureSink{}
		en := mustEngine(t, chainProgram(12), Options{Strategy: strat})
		lim := Limits{Checkpoint: sink.fn(), CheckpointEvery: 1}
		db, stats, err := en.Resume(context.Background(), nil, nil, lim, Stats{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.dbs) < 3 {
			t.Fatalf("strategy %v: expected several checkpoints, got %d", strat, len(sink.dbs))
		}
		last := sink.dbs[len(sink.dbs)-1]
		if !db.Equal(last, nil) {
			t.Fatalf("strategy %v: final checkpoint must equal returned model", strat)
		}
		if got := sink.stats[len(sink.stats)-1]; !sameTotals(got, stats) {
			t.Fatalf("strategy %v: final checkpoint stats %+v != solve stats %+v", strat, got, stats)
		}
		var prev Stats
		for i, s := range sink.stats {
			if s.Rounds < prev.Rounds || s.Firings < prev.Firings || s.Derived < prev.Derived {
				t.Fatalf("strategy %v: checkpoint %d stats went backwards: %+v after %+v", strat, i, s, prev)
			}
			prev = s
		}
	}
}

// TestCheckpointEveryZeroStillCheckpointsComponents: CheckpointEvery=0
// disables round-boundary checkpoints but component boundaries always
// flush, so the final model is still captured.
func TestCheckpointEveryZeroStillCheckpointsComponents(t *testing.T) {
	sink := &captureSink{}
	en := mustEngine(t, chainProgram(12), Options{})
	db, _, err := en.Resume(context.Background(), nil, nil, Limits{Checkpoint: sink.fn()}, Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.dbs) == 0 {
		t.Fatal("component boundaries must checkpoint even with CheckpointEvery=0")
	}
	if !db.Equal(sink.dbs[len(sink.dbs)-1], nil) {
		t.Fatal("last component checkpoint must equal the final model")
	}
}

// TestCheckpointSinkError: a failing sink stops evaluation with the
// ErrCheckpoint class wrapping the sink's error, and still returns the
// partial interpretation.
func TestCheckpointSinkError(t *testing.T) {
	boom := errors.New("disk full")
	sink := &captureSink{fail: boom}
	en := mustEngine(t, chainProgram(12), Options{})
	db, _, err := en.Resume(context.Background(), nil, nil, Limits{Checkpoint: sink.fn(), CheckpointEvery: 1}, Stats{})
	if !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("err = %v, want ErrCheckpoint", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, must wrap the sink error", err)
	}
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T, want *EngineError", err)
	}
	if db == nil {
		t.Fatal("checkpoint failure must still return the partial interpretation")
	}
}

// TestResumeFromCheckpoint: interrupt a solve with a tight MaxFacts
// budget, then Resume from the last checkpoint; the resumed model must
// equal an uninterrupted solve, with cumulative stats carried through.
func TestResumeFromCheckpoint(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		src := chainProgram(20)
		full := solve(t, src, Options{Strategy: strat})

		sink := &captureSink{}
		en := mustEngine(t, src, Options{Strategy: strat})
		_, midStats, err := en.Resume(context.Background(), nil, nil,
			Limits{MaxFacts: 60, Checkpoint: sink.fn(), CheckpointEvery: 1}, Stats{})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("strategy %v: err = %v, want ErrBudgetExceeded", strat, err)
		}
		if len(sink.dbs) == 0 {
			t.Fatalf("strategy %v: no checkpoint before the budget breach", strat)
		}

		last := sink.dbs[len(sink.dbs)-1]
		lastStats := sink.stats[len(sink.stats)-1]
		if last.Equal(full, nil) {
			t.Fatalf("strategy %v: checkpoint already complete; budget too loose for the test", strat)
		}
		// Resume on a fresh engine, as a crash-recovery caller would.
		en2 := mustEngine(t, src, Options{Strategy: strat})
		db, stats, err := en2.Resume(context.Background(), last, nil, Limits{}, lastStats)
		if err != nil {
			t.Fatalf("strategy %v: resume: %v", strat, err)
		}
		if !db.Equal(full, nil) {
			t.Fatalf("strategy %v: resumed model differs from uninterrupted solve", strat)
		}
		if stats.Rounds <= lastStats.Rounds || stats.Derived < lastStats.Derived {
			t.Fatalf("strategy %v: resumed stats %+v must extend checkpoint stats %+v", strat, stats, lastStats)
		}
		_ = midStats
	}
}

// TestResumeFromCompleteModel: resuming from an already-converged model
// is a no-op fixpoint that returns the same model.
func TestResumeFromCompleteModel(t *testing.T) {
	src := chainProgram(10)
	en := mustEngine(t, src, Options{})
	full, stats, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := en.Resume(context.Background(), full, nil, Limits{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(full, nil) {
		t.Fatal("resume from the least model must be a fixed point")
	}
}

// TestSolveMoreFromAccumulatesStats: chained incremental solves seeded
// with the prior cumulative stats report running totals.
func TestSolveMoreFromAccumulatesStats(t *testing.T) {
	src := programs.ShortestPath + "arc(a, b, 1).\n"
	en := mustEngine(t, src, Options{})
	db, stats, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	add := relation.NewDB(en.Schemas)
	add.AddFact("arc", []val.T{val.Symbol("b"), val.Symbol("c")}, val.Number(2))
	db2, stats2, err := en.SolveMore(context.Background(), db, add, stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rounds <= stats.Rounds || stats2.Derived <= stats.Derived {
		t.Fatalf("SolveMore stats %+v must extend base %+v", stats2, stats)
	}
	if c, _ := costOf(t, db2, "s", "a", "c"); c != 3 {
		t.Fatalf("s(a,c) = %v, want 3", c)
	}
}
