package wfs_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/enginerr"
	"repro/internal/programs"
	"repro/internal/wfs"
)

func TestSolveContextCanceled(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, b, 0).
`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := wfs.SolveContext(ctx, mustParse(t, src), wfs.Options{})
	if !errors.Is(err, enginerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also wrap context.Canceled", err)
	}
}

func TestSolveMaxAtomsBudget(t *testing.T) {
	src := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(c, d, 3).
`
	_, err := wfs.Solve(mustParse(t, src), wfs.Options{MaxAtoms: 2})
	if !errors.Is(err, enginerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
