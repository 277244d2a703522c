package core

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Support is one body element of a recorded derivation: a ground atom
// (recursable via Explain) or an annotation for builtins and aggregate
// subgoals.
type Support struct {
	// Pred is the predicate name; empty for non-atom annotations.
	Pred    string
	Args    []val.T
	Cost    lattice.Elem
	HasCost bool
	Neg     bool
	// Note renders builtins ("C = 1 + 2 [3]") and aggregate subgoals.
	Note string
}

// String renders the support in rule-language style.
func (s Support) String() string {
	if s.Pred == "" {
		return s.Note
	}
	parts := make([]string, 0, len(s.Args)+1)
	for _, a := range s.Args {
		parts = append(parts, a.String())
	}
	if s.HasCost {
		parts = append(parts, s.Cost.String())
	}
	atom := s.Pred
	if len(parts) > 0 {
		atom += "(" + strings.Join(parts, ", ") + ")"
	}
	if s.Neg {
		return "not " + atom
	}
	return atom
}

// Derivation records how a tuple last improved: the rule and the ground
// body that fired it.
type Derivation struct {
	Rule     string
	Supports []Support
}

// traceKey identifies a traced tuple.
func traceKey(k ast.PredKey, args []val.T) string {
	return string(k) + "\x00" + val.KeyOf(args)
}

// recordTrace stores the firing environment as the head tuple's latest
// derivation in the guard's trace store (see guard.trace).
func (g *guard) recordTrace(p *plan, e *env, args []val.T) {
	if d := buildDerivation(p, e); d != nil {
		g.trace[traceKey(p.head.pred, args)] = d
	}
}

// buildDerivation snapshots the firing environment as a Derivation (nil
// for fact rules, which are their own explanation). The snapshot owns
// all of its data — nothing aliases the (reused) env.
func buildDerivation(p *plan, e *env) *Derivation {
	if p.rule.IsFact() {
		return nil
	}
	d := &Derivation{Rule: p.rule.String()}
	for _, st := range p.steps {
		switch st := st.(type) {
		case *scanStep:
			d.Supports = append(d.Supports, supportOfAtom(&st.atomSpec, e, false))
		case *negStep:
			d.Supports = append(d.Supports, supportOfAtom(&st.atomSpec, e, true))
		case *builtinStep:
			d.Supports = append(d.Supports, Support{Note: renderBuiltin(st, e)})
		case *aggStep:
			d.Supports = append(d.Supports, Support{Note: renderAgg(st, e, p)})
		}
	}
	// Attach the contributing atoms of each aggregate group. The env's
	// aggSupports are keyed by canonical step position whichever order
	// fired (streamHooks), so the derivation renders in canonical order.
	for i, st := range p.steps {
		if _, ok := st.(*aggStep); ok {
			d.Supports = append(d.Supports, e.aggSupports[i]...)
		}
	}
	return d
}

func supportOfAtom(sp *atomSpec, e *env, neg bool) Support {
	s := Support{Pred: sp.pred.Name(), Neg: neg, HasCost: sp.pi.HasCost}
	for j, v := range sp.argVar {
		if v >= 0 {
			s.Args = append(s.Args, e.vals[v])
		} else {
			s.Args = append(s.Args, sp.argVal[j])
		}
	}
	if sp.pi.HasCost {
		if sp.costVar >= 0 {
			s.Cost = e.vals[sp.costVar]
		} else {
			s.Cost = sp.costVal
		}
	}
	return s
}

// replaceVars substitutes variable names by values, longest names first
// so that C1 is never corrupted by a C substitution.
func replaceVars(text string, pairs map[string]string) string {
	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if len(names[j]) > len(names[i]) {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		text = strings.ReplaceAll(text, n, pairs[n])
	}
	return text
}

func renderBuiltin(st *builtinStep, e *env) string {
	pairs := map[string]string{}
	for _, v := range append(st.b.L.Vars(nil), st.b.R.Vars(nil)...) {
		if idx, ok := st.varIndex(v); ok && e.bound[idx] {
			pairs[string(v)] = e.vals[idx].String()
		}
	}
	return replaceVars(fmt.Sprintf("%s %s %s", st.b.L, st.b.Op, st.b.R), pairs)
}

func renderAgg(st *aggStep, e *env, p *plan) string {
	pairs := map[string]string{}
	note := func(idx int) {
		if idx >= 0 && idx < len(p.names) && idx < len(e.bound) && e.bound[idx] {
			pairs[string(p.names[idx])] = e.vals[idx].String()
		}
	}
	note(st.result)
	for _, v := range st.groupVars {
		note(v)
	}
	return replaceVars(st.g.String(), pairs)
}

// Explain returns how the tuple with the given non-cost arguments was
// last derived during the most recent Solve with tracing enabled.
func (en *Engine) Explain(pred string, args []val.T) (*Derivation, bool) {
	if en.trace == nil {
		return nil, false
	}
	for arity := len(args); arity <= len(args)+1; arity++ {
		key := traceKey(ast.MakePredKey(pred, arity), args)
		for _, t := range en.trace {
			if d, ok := t[key]; ok {
				return d, true
			}
		}
	}
	return nil, false
}

// ExplainTree renders a derivation tree to the given depth, following
// atom supports that have their own derivations.
func (en *Engine) ExplainTree(db *relation.DB, pred string, args []val.T, depth int) string {
	var b strings.Builder
	en.explainInto(&b, db, pred, args, depth, "")
	return b.String()
}

func (en *Engine) explainInto(b *strings.Builder, db *relation.DB, pred string, args []val.T, depth int, indent string) {
	d, ok := en.Explain(pred, args)
	head := Support{Pred: pred, Args: args}
	// Fetch the cost for display when available.
	for arity := len(args); arity <= len(args)+1; arity++ {
		k := ast.MakePredKey(pred, arity)
		if db.Has(k) {
			if row, found := db.Rel(k).Get(args); found {
				head.Cost, head.HasCost = row.Cost, row.HasCost
			}
		}
	}
	fmt.Fprintf(b, "%s%s", indent, head)
	if !ok {
		fmt.Fprintf(b, "  [fact]\n")
		return
	}
	fmt.Fprintf(b, "  [%s]\n", d.Rule)
	if depth <= 0 {
		return
	}
	for _, s := range d.Supports {
		if s.Pred == "" || s.Neg {
			fmt.Fprintf(b, "%s  %s\n", indent, s)
			continue
		}
		if _, derived := en.Explain(s.Pred, s.Args); derived {
			en.explainInto(b, db, s.Pred, s.Args, depth-1, indent+"  ")
		} else {
			fmt.Fprintf(b, "%s  %s  [fact]\n", indent, s)
		}
	}
}
