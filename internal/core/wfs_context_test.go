package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/enginerr"
	"repro/internal/programs"
)

func TestSolveWFSContextCanceled(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, b, 0).
`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.SolveWFSContext(ctx, mustParse(t, src), core.WFSOptions{})
	if !errors.Is(err, enginerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also wrap context.Canceled", err)
	}
}

func TestSolveWFSMaxAtomsBudget(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(c, d, 3).
`
	_, err := core.SolveWFS(mustParse(t, src), core.WFSOptions{MaxAtoms: 2})
	if !errors.Is(err, enginerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
