package wfs

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/enginerr"
	"repro/internal/val"
)

// Options bounds the computation: the set-based treatment of cost
// arguments makes some inputs genuinely infinite (§5.3-5.4), so both the
// atom universe and the alternation depth are capped.
type Options struct {
	// MaxAtoms caps the size of any computed store (default 200000).
	MaxAtoms int
	// MaxIters caps both each inner lfp and the outer alternation
	// (default 10000).
	MaxIters int
}

func (o *Options) defaults() {
	if o.MaxAtoms == 0 {
		o.MaxAtoms = 200000
	}
	if o.MaxIters == 0 {
		o.MaxIters = 10000
	}
}

// Result is a partial (three-valued) model: True ⊆ Possible; atoms
// outside Possible are false; Possible \ True is undefined.
type Result struct {
	True     *Store
	Possible *Store
	// Iterations is the number of outer alternation rounds.
	Iterations int
}

// Truth is a three-valued status.
type Truth int

// The truth values.
const (
	False Truth = iota
	Undefined
	True
)

func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case Undefined:
		return "undefined"
	}
	return "false"
}

// Status classifies a ground atom in the partial model.
func (r *Result) Status(k ast.PredKey, args []val.T) Truth {
	if r.True.Has(k, args) {
		return True
	}
	if r.Possible.Has(k, args) {
		return Undefined
	}
	return False
}

// TwoValued reports whether no atom is undefined.
func (r *Result) TwoValued() bool { return r.True.Equal(r.Possible) }

// UndefinedCount returns the number of undefined atoms.
func (r *Result) UndefinedCount() int { return r.Possible.Len() - r.True.Len() }

// Solve computes the well-founded partial model of the program under the
// Kemp–Stuckey aggregate semantics via an alternating fixpoint:
//
//	U_0     = lfp(T) of the *relaxed* program: negation assumed true,
//	          aggregate subgoals dropped (with their dependent builtins;
//	          rules whose heads lose bindings are skipped)
//	K_{i+1} = lfp(T) with ¬p iff p ∉ U_i; aggregates definite per (K_i, U_i)
//	U_{i+1} = lfp(T) with ¬p iff p ∉ K_{i+1}; aggregates optimistic per
//	          (K_{i+1}, U_i)
//
// until both sequences stabilize. K underestimates truth; U tracks
// possible truth (it may grow in early rounds as aggregate witnesses
// appear, then shrinks); the limits are the well-founded truth and
// possibility sets. Normal programs (no aggregates) get the classic Van
// Gelder–Ross–Schlipf alternating fixpoint.
func Solve(prog *ast.Program, opts Options) (*Result, error) {
	return SolveContext(context.Background(), prog, opts)
}

// SolveContext is Solve with cooperative cancellation: the alternating
// fixpoint and every inner lfp poll ctx and stop with an error wrapping
// enginerr.ErrCanceled (core.ErrCanceled) when it fires.
func SolveContext(ctx context.Context, prog *ast.Program, opts Options) (*Result, error) {
	opts.defaults()
	prog = prog.AsRules()

	u, err := lfp(ctx, relaxedProgram(prog), &semantics{negFalseIn: NewStore(), mode: aggDefinite, low: NewStore(), high: NewStore()}, opts)
	if err != nil {
		return nil, err
	}
	k := NewStore()
	for iter := 1; ; iter++ {
		if iter > opts.MaxIters {
			return nil, fmt.Errorf("wfs: alternation did not converge within %d rounds: %w", opts.MaxIters, enginerr.ErrDiverged)
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		k2, err := lfp(ctx, prog, &semantics{negFalseIn: u, mode: aggDefinite, low: k, high: u}, opts)
		if err != nil {
			return nil, err
		}
		u2, err := lfp(ctx, prog, &semantics{negFalseIn: k2, mode: aggOptimistic, low: k2, high: u}, opts)
		if err != nil {
			return nil, err
		}
		if k2.Equal(k) && u2.Equal(u) {
			return &Result{True: k2, Possible: u2, Iterations: iter}, nil
		}
		k, u = k2, u2
	}
}

// ctxErr converts a fired context into the shared cancellation class.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("wfs: %w: %w", enginerr.ErrCanceled, ctx.Err())
	default:
		return nil
	}
}

// relaxedProgram over-approximates derivability structure for the U_0
// bootstrap: negative literals are dropped (assumed true), aggregate
// subgoals are dropped, builtins that lose bindings are dropped, and
// rules whose head variables become unbound are skipped entirely (their
// atoms enter U later, once aggregate witnesses exist).
func relaxedProgram(prog *ast.Program) *ast.Program {
	out := &ast.Program{}
	for _, r := range prog.Rules {
		available := map[ast.Var]bool{}
		for _, sg := range r.Body {
			if l, ok := sg.(*ast.Lit); ok && !l.Neg {
				for _, v := range l.Atom.Vars(nil) {
					available[v] = true
				}
			}
		}
		var body []ast.Subgoal
		for _, sg := range r.Body {
			switch sg := sg.(type) {
			case *ast.Lit:
				if !sg.Neg {
					body = append(body, sg)
				}
			case *ast.Builtin:
				ok := true
				for _, v := range sg.FreeVars(nil) {
					if !available[v] {
						ok = false
						break
					}
				}
				if ok {
					body = append(body, sg)
				}
			case *ast.Agg:
				// dropped
			}
		}
		headOK := true
		for _, v := range r.Head.Vars(nil) {
			if !available[v] {
				headOK = false
				break
			}
		}
		if headOK {
			out.Rules = append(out.Rules, &ast.Rule{Head: r.Head, Body: body})
		}
	}
	return out
}

// ReductLfp computes the least fixpoint of the program with negation and
// aggregate subgoals frozen against the total interpretation m — the
// Kemp–Stuckey generalization of the Gelfond–Lifschitz reduct (§5.5). A
// total model m is stable iff ReductLfp(prog, m) equals m.
func ReductLfp(prog *ast.Program, m *Store, opts Options) (*Store, error) {
	opts.defaults()
	return lfp(context.Background(), prog.AsRules(), &semantics{negFalseIn: m, mode: aggDefinite, low: m, high: m}, opts)
}

// lfp computes the least fixpoint of the immediate-consequence operator
// under the given (frozen) semantics: starting empty, rules fire against
// the growing store until nothing new is derivable.
func lfp(ctx context.Context, prog *ast.Program, sem *semantics, opts Options) (*Store, error) {
	grow := NewStore()
	sem.grow = grow
	for iter := 0; ; iter++ {
		if iter > opts.MaxIters {
			return nil, fmt.Errorf("wfs: inner fixpoint did not converge within %d rounds: %w", opts.MaxIters, enginerr.ErrDiverged)
		}
		changed := false
		for _, r := range prog.Rules {
			r := r
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			err := evalRule(r, sem, func(sb subst) error {
				args, err := groundArgs(&r.Head, sb)
				if err != nil {
					return err
				}
				if grow.Add(r.Head.Key(), args) {
					changed = true
				}
				if grow.Len() > opts.MaxAtoms {
					return fmt.Errorf("wfs: atom universe exceeded %d (diverging input — the set-based treatment of costs is infinite here, §5.3): %w", opts.MaxAtoms, enginerr.ErrBudgetExceeded)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if !changed {
			return grow, nil
		}
	}
}
