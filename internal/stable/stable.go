// Package stable implements the stable-model notions discussed in §5.3
// and §5.5 of Ross & Sagiv (PODS 1992):
//
//   - Kemp–Stuckey stability, where aggregate subgoals are treated like
//     negative literals in the reduct. Incomparable stable models can
//     coexist (Example 3.1's M1 and M2 are both stable).
//   - The paper's alternative: reduce only negation and require the
//     candidate to be the unique minimal model of the (monotonic) reduced
//     program — under which only the paper's least model M1 survives.
package stable

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/enginerr"
	"repro/internal/relation"
	"repro/internal/val"
)

// IsStable checks Kemp–Stuckey stability of the total interpretation m:
// the least fixpoint of the program with negation and aggregates frozen
// at m must reproduce m exactly. m is cost-free, each cost an ordinary
// final argument (core.FlattenCosts).
func IsStable(prog *ast.Program, m *relation.DB, opts core.WFSOptions) (bool, error) {
	w, err := core.CompileWFS(prog, opts)
	if err != nil {
		return false, err
	}
	return isStable(w, m)
}

func isStable(w *core.WFSProgram, m *relation.DB) (bool, error) {
	lfp, err := w.ReductLfp(context.Background(), m)
	return err == nil && lfp.Equal(m, nil), err
}

// IsMonotonicStable checks the §5.5 alternative: the reduct removes only
// negation (none of the paper's aggregate examples has any, so the
// program is unchanged), the reduced program must be monotonic, and m
// must equal its least model. Under this definition the minimal model of
// a monotonic program is the unique stable model.
func IsMonotonicStable(prog *ast.Program, edb *relation.DB, m *relation.DB, opts core.Options) (bool, error) {
	for _, r := range prog.Rules {
		for _, sg := range r.Body {
			if l, ok := sg.(*ast.Lit); ok && l.Neg {
				return false, fmt.Errorf("stable: negation reduct not implemented for rule %q (the paper's examples are negation-free)", r)
			}
		}
	}
	en, err := core.New(prog, opts)
	if err != nil {
		return false, err
	}
	if adm := en.Report().Admissible; adm != nil {
		return false, fmt.Errorf("stable: reduced program is not monotonic: %w", adm)
	}
	least, _, err := en.Solve(edb)
	if err != nil {
		return false, err
	}
	return least.Equal(m, nil), nil
}

// Enumerate searches for Kemp–Stuckey stable models among subsets of the
// candidate atom set. Atoms of predicates in fixed are kept in every
// candidate (typically the EDB); the remaining atoms are toggled. The
// search is exponential and guarded by maxFree.
func Enumerate(prog *ast.Program, candidates *relation.DB, fixed map[ast.PredKey]bool, maxFree int, opts core.WFSOptions) ([]*relation.DB, error) {
	return EnumerateContext(context.Background(), prog, candidates, fixed, maxFree, opts)
}

// EnumerateContext is Enumerate with cooperative cancellation: the
// candidate loop polls ctx and, when it fires, returns the stable
// models found so far alongside an error wrapping core.ErrCanceled.
func EnumerateContext(ctx context.Context, prog *ast.Program, candidates *relation.DB, fixed map[ast.PredKey]bool, maxFree int, opts core.WFSOptions) (out []*relation.DB, err error) {
	base := relation.NewDB(ast.Schemas{})
	var free []ast.PredKey // free[i] is the predicate of atom i of rows
	var rows []relation.Row
	for _, k := range candidates.Preds() {
		if fixed[k] {
			base.Rel(k).Join(candidates.Rel(k))
			continue
		}
		for _, row := range candidates.Rel(k).Rows() {
			free, rows = append(free, k), append(rows, row)
		}
	}
	if len(free) > maxFree {
		return nil, fmt.Errorf("stable: %d free atoms exceed the enumeration bound %d", len(free), maxFree)
	}
	w, err := core.CompileWFS(prog, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		sort.Slice(out, func(i, j int) bool { return core.CountAtoms(out[i]) < core.CountAtoms(out[j]) })
	}()
	total := 1 << len(free)
	for mask := 0; mask < total; mask++ {
		if ctx.Err() != nil {
			return out, fmt.Errorf("stable: enumeration canceled after %d/%d candidates: %w (%v)", mask, total, enginerr.ErrCanceled, ctx.Err())
		}
		m := base.Clone()
		for i, k := range free {
			if mask&(1<<i) != 0 {
				m.Rel(k).InsertJoin(rows[i].Args, val.T{})
			}
		}
		ok, err := isStable(w, m)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, m)
		}
	}
	return out, nil
}
