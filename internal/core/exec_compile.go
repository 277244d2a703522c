package core

import (
	"repro/internal/exec"
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

// streamHooks adapts the host-side pieces of pipeline evaluation to the
// given step arrangement (hooks index by pipeline position): an env
// aliasing each machine's register file, cached in Machine.Aux so head
// projection reads bindings in place, and the builtins, which evaluate
// exactly as in the reference interpreter (builtinStep.eval).
func streamHooks(planSteps []step) exec.Hooks {
	builtins := make([]*builtinStep, len(planSteps))
	for i, s := range planSteps {
		builtins[i], _ = s.(*builtinStep)
	}
	return exec.Hooks{
		Init: func(m *exec.Machine) {
			m.Aux = &env{vals: m.Vals, bound: m.Bound}
		},
		Builtin: func(m *exec.Machine, i int) (bool, bool, error) {
			return builtins[i].eval(m.Vals, m.Bound)
		},
	}
}
