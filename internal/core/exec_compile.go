package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/val"
)

// This file lowers compiled rule plans (plan.go) to the streaming
// relational-algebra pipelines of internal/exec, the engine's one rule
// executor (Engine.runPass drives them).
//
// The lowering is 1:1 — exec step index i is step i of the arrangement
// lowered — so the semi-naive restriction keys (Config.RestrictStep,
// Config.AggGroups) index the same steps. Binding patterns are static:
// each step binds a fixed variable set whenever it succeeds, so the
// aggregate conjunction orders the reference interpreter derives at
// runtime (agg.go) are computed once here, for both the grouped and the
// point mode.

// compileStream lowers one step arrangement of a plan to a streaming
// pipeline: the canonical order (planSteps == p.steps, canon the
// identity) or a Δ-driver order; canon maps each position to its
// canonical step.
func compileStream(p *plan, planSteps []step, canon []int) *exec.Rule {
	steps := make([]exec.Step, len(planSteps))
	// bound simulates the binding pattern along the pipeline: every step
	// binds its variables unconditionally on success and the step order
	// is fixed, so the set is exact, not an approximation.
	bound := make([]bool, p.nvars)
	for i, s := range planSteps {
		switch s := s.(type) {
		case *scanStep:
			steps[i] = exec.Step{Kind: exec.ScanKind, Atom: execAtom(&s.atomSpec)}
		case *negStep:
			steps[i] = exec.Step{Kind: exec.NegKind, Atom: execAtom(&s.atomSpec)}
		case *builtinStep:
			steps[i] = exec.Step{Kind: exec.BuiltinKind, Builtin: &exec.BuiltinStep{Assign: s.assign}}
		case *aggStep:
			steps[i] = exec.Step{Kind: exec.AggKind, Agg: compileAgg(s, bound)}
		}
		bindStep(s, bound)
	}
	return exec.NewRule(p.nvars, steps, streamHooks(planSteps))
}

// compileAgg lowers a γ step, fixing the conjunction orders the reference
// interpreter computes per invocation: OrderFull for the grouped mode
// (bound set as of this step, restricted to variables the conjunction
// mentions — exactly agg.go's noteBound) and OrderPoint for the point
// mode (the same set plus the grouping variables, which the Δ-grouped
// recursion binds before re-entering).
func compileAgg(s *aggStep, bound []bool) *exec.AggStep {
	a := &exec.AggStep{
		G:          s.g,
		Restricted: s.restricted,
		Result:     s.result,
		GroupVars:  s.groupVars,
		MsVar:      s.msVar,
		Apply:      s.f.Apply,
		Range:      s.f.Range(),
	}
	for ci := range s.conj {
		a.Conj = append(a.Conj, execAtom(&s.conj[ci]))
	}
	group := make(map[int]bool, len(s.groupVars))
	for _, v := range s.groupVars {
		group[v] = true
	}
	full := map[int]bool{}
	point := map[int]bool{}
	note := func(v int) {
		if v < 0 {
			return
		}
		if bound[v] {
			full[v] = true
			point[v] = true
		} else if group[v] {
			point[v] = true
		}
	}
	for ci := range s.conj {
		sp := &s.conj[ci]
		for _, v := range sp.argVar {
			note(v)
		}
		note(sp.costVar)
	}
	a.OrderFull, a.OrderFullErr = orderConj(s.conj, full)
	a.OrderPoint, a.OrderPointErr = orderConj(s.conj, point)
	return a
}

func execAtom(sp *atomSpec) exec.Atom {
	return exec.Atom{
		Pred:    sp.pred,
		Info:    sp.pi,
		ArgVar:  sp.argVar,
		ArgVal:  sp.argVal,
		CostVar: sp.costVar,
		CostVal: sp.costVal,
		Wide:    len(sp.argVar) > 64,
	}
}

// streamAux is the host state cached on each exec.Machine: an env
// aliasing the machine's register file (so head projection reads
// bindings in place) and per-step builtin evaluators prebuilt against
// that env.
type streamAux struct {
	env      *env
	builtins []func() (ok, didBind bool, err error)
}

// streamHooks adapts the host-side piece of pipeline evaluation —
// builtin expressions — to the given step arrangement (hooks index by
// pipeline position), with the reference interpreter's semantics and
// error text.
func streamHooks(planSteps []step) exec.Hooks {
	return exec.Hooks{
		Init: func(m *exec.Machine) {
			aux := &streamAux{env: &env{vals: m.Vals, bound: m.Bound}}
			aux.builtins = make([]func() (bool, bool, error), len(planSteps))
			for i, s := range planSteps {
				if bs, ok := s.(*builtinStep); ok {
					aux.builtins[i] = makeBuiltinEval(bs, aux.env)
				}
			}
			m.Aux = aux
		},
		Builtin: func(m *exec.Machine, i int) (bool, bool, error) {
			return m.Aux.(*streamAux).builtins[i]()
		},
	}
}

// makeBuiltinEval prebuilds one builtin step's evaluator against e,
// mirroring evaluator.builtin (mode selection, error text) without the
// per-invocation closure allocations.
func makeBuiltinEval(s *builtinStep, e *env) func() (bool, bool, error) {
	get := func(name ast.Var) (val.T, bool) {
		idx, ok := s.varIndex(name)
		if !ok || !e.bound[idx] {
			return val.T{}, false
		}
		return e.vals[idx], true
	}
	return func() (bool, bool, error) {
		if s.assign >= 0 && !e.bound[s.assign] {
			v, err := ast.EvalExpr(s.expr, get)
			if err != nil {
				return false, false, fmt.Errorf("core: builtin %s: %v", s.b, err)
			}
			e.vals[s.assign] = v
			e.bound[s.assign] = true
			return true, true, nil
		}
		l, err := ast.EvalExpr(s.b.L, get)
		if err != nil {
			return false, false, fmt.Errorf("core: builtin %s: %v", s.b, err)
		}
		r, err := ast.EvalExpr(s.b.R, get)
		if err != nil {
			return false, false, fmt.Errorf("core: builtin %s: %v", s.b, err)
		}
		res, err := ast.Compare(s.b.Op, l, r)
		if err != nil {
			return false, false, fmt.Errorf("core: builtin %s: %v", s.b, err)
		}
		return res, false, nil
	}
}
