package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/programs"
	"repro/internal/val"
)

// chainProgram builds a shortest-path instance over an n-node chain:
// the path relation is quadratic in n, giving the fixpoint real work.
func chainProgram(n int) string {
	src := programs.ShortestPath
	for i := 0; i < n; i++ {
		src += "arc(n" + itoa(i) + ", n" + itoa(i+1) + ", 1).\n"
	}
	return src
}

// divergentProg is the ω-limit family of Example 5.1 with an unbounded
// limit: p(a) sums itself in, so its cost grows forever and no finite
// fixpoint exists.
const divergentProg = `
.cost p/2 : sumreal.
p(b, 1).
p(a, C) :- C ?= sum D : p(X, D).
`

func TestSolveContextCanceled(t *testing.T) {
	en := mustEngine(t, chainProgram(50), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, stats, err := en.Resume(ctx, nil, nil, en.opts.Limits, Stats{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also wrap context.Canceled", err)
	}
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T, want *EngineError", err)
	}
	if db == nil {
		t.Fatal("canceled solve must return the partial interpretation, got nil")
	}
	if stats.Components == 0 {
		t.Fatalf("stats must be usable after cancellation: %+v", stats)
	}
}

// TestSolveDeadlineMidFixpoint cancels via MaxDuration while the
// fixpoint is genuinely mid-flight; the partial interpretation keeps
// the work done so far.
func TestSolveDeadlineMidFixpoint(t *testing.T) {
	en := mustEngine(t, chainProgram(400), Options{Limits: Limits{MaxDuration: 5 * time.Millisecond}})
	db, stats, err := en.Solve(nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must wrap context.DeadlineExceeded", err)
	}
	if db == nil {
		t.Fatal("deadline breach must return the partial interpretation")
	}
	if stats.Derived == 0 {
		t.Fatalf("expected partial work before the deadline, stats %+v", stats)
	}
}

func TestMaxFactsBudget(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		en := mustEngine(t, chainProgram(40), Options{Strategy: strat, Limits: Limits{MaxFacts: 10}})
		db, stats, err := en.Solve(nil)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("strategy %v: err = %v, want ErrBudgetExceeded", strat, err)
		}
		var ee *EngineError
		if !errors.As(err, &ee) {
			t.Fatalf("strategy %v: err = %T, want *EngineError", strat, err)
		}
		if ee.Limit != 10 || ee.Derived <= 10 {
			t.Fatalf("strategy %v: breach snapshot limit=%d derived=%d", strat, ee.Limit, ee.Derived)
		}
		if db == nil || stats.Derived == 0 {
			t.Fatalf("strategy %v: partial interpretation and stats must survive", strat)
		}
	}
}

func TestDivergenceDiagnosis(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		en := mustEngine(t, divergentProg, Options{Strategy: strat})
		db, _, err := en.Solve(nil)
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("strategy %v: err = %v, want ErrDiverged", strat, err)
		}
		var ee *EngineError
		if !errors.As(err, &ee) || ee.Divergence == nil {
			t.Fatalf("strategy %v: missing divergence diagnosis in %v", strat, err)
		}
		d := ee.Divergence
		if d.Pred.Name() != "p" {
			t.Fatalf("strategy %v: offending predicate %s, want p", strat, d.Pred)
		}
		if len(d.Group) != 1 || !val.Equal(d.Group[0], val.Symbol("a")) {
			t.Fatalf("strategy %v: offending group %v, want [a]", strat, d.Group)
		}
		if len(d.Recent) < 2 || d.Recent[len(d.Recent)-1] <= d.Recent[0] {
			t.Fatalf("strategy %v: cost trajectory should be recorded and increasing: %v", strat, d.Recent)
		}
		for _, want := range []string{"p(a)", "Epsilon"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("strategy %v: diagnosis missing %q: %v", strat, want, err)
			}
		}
		// Partial model keeps the EDB-level truth.
		if db == nil || !hasTuple(db, "p", "b") {
			t.Fatalf("strategy %v: partial interpretation must keep p(b)", strat)
		}
	}
}

// TestDivergenceStreakDisabled: with the detector off, the round bound
// is the only backstop, preserving the pre-existing MaxRounds behavior.
func TestDivergenceStreakDisabled(t *testing.T) {
	en := mustEngine(t, divergentProg, Options{MaxRounds: 200, Limits: Limits{DivergenceStreak: -1}})
	_, _, err := en.Solve(nil)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged from the round bound", err)
	}
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T, want *EngineError", err)
	}
	if ee.Divergence != nil {
		t.Fatal("detector was disabled; diagnosis must come from the round bound alone")
	}
	if !strings.Contains(err.Error(), "fixpoint") || ee.Limit != 200 {
		t.Fatalf("round-bound diagnosis malformed: %v", err)
	}
}

// TestPanicContainment: an internal panic during component evaluation
// becomes a structured ErrInternal instead of crashing the process.
func TestPanicContainment(t *testing.T) {
	en := mustEngine(t, programs.ShortestPath+"arc(a, b, 1).\n", Options{})
	var stats Stats
	g := newGuard(context.Background(), Limits{}, &stats)
	g.comp = en.comps[len(en.comps)-1].Preds
	err := en.runComponent(g, func() error { panic("boom") })
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T, want *EngineError", err)
	}
	if !strings.Contains(ee.Error(), "boom") || len(ee.Stack) == 0 {
		t.Fatalf("panic context lost: %v (stack %d bytes)", ee, len(ee.Stack))
	}
}

// TestSolveMoreContextCanceled: incremental solves honor cancellation
// too, returning the partially extended model.
func TestSolveMoreContextCanceled(t *testing.T) {
	en := mustEngine(t, chainProgram(10), Options{})
	base, _, err := en.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	added := arcDB(en, [][3]any{{"n10", "x0", 1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, _, err := en.SolveMore(ctx, base, added, Stats{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if db == nil {
		t.Fatal("canceled SolveMore must return the partial model")
	}
}

// TestWFSFallbackCanceled: the §6.3 fallback threads the context into
// the well-founded engine.
func TestWFSFallbackCanceled(t *testing.T) {
	src := `
win(X) :- move(X, Y), not win(Y).
move(a, b). move(b, c). move(c, d).
`
	en := mustEngine(t, src, Options{WFSFallback: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := en.Resume(ctx, nil, nil, en.opts.Limits, Stats{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
