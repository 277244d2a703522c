package stable

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/enginerr"
)

// TestEnumerateContextCanceled: the 2^k search over free atoms polls the
// context between candidate masks and stops with ErrCanceled.
func TestEnumerateContextCanceled(t *testing.T) {
	prog, m1, m2, _ := example31(t)
	candidates := core.FlattenCosts(m1)
	m2s := core.FlattenCosts(m2)
	for _, k := range m2s.Preds() {
		candidates.Rel(k).Join(m2s.Rel(k))
	}
	fixed := map[ast.PredKey]bool{"arc/3": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EnumerateContext(ctx, prog, candidates, fixed, 16, core.WFSOptions{})
	if !errors.Is(err, enginerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "candidates") {
		t.Fatalf("diagnosis must say how far the search got: %v", err)
	}
}
