package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/exec"
	"repro/internal/val"
)

// EXPLAIN ANALYZE: the compiled operator trees annotated with the
// per-operator counters a model's Stats carry (RuleStats.Ops). Profile
// is a view of one Stats; Sub produces the delta between two, and
// Render prints the human tree. The JSON encoding of Profile is the
// machine-readable form.

// OpStats is one operator of a rule's pipeline with its counters (see
// exec.OpCounts; the last operator's Out is the rule's firings when the
// rule has no Δ-driver orders).
type OpStats struct {
	// Step is the pipeline position; Kind is the operator class (scan,
	// negation, builtin, aggregate); Op is the operator rendered with
	// the rule's variable names.
	Step int    `json:"step"`
	Kind string `json:"kind"`
	Op   string `json:"op"`
	exec.OpCounts
}

// RuleProfile is one rule's operator pipeline.
type RuleProfile struct {
	Index     int    `json:"index"`
	Component int    `json:"component"`
	Rule      string `json:"rule"`
	// Firings/Nanos/Rounds are the rule's totals from the same Stats.
	Firings int64 `json:"firings,omitempty"`
	Nanos   int64 `json:"nanos,omitempty"`
	Rounds  int   `json:"rounds,omitempty"`
	// Drivers lists the rule's Δ-driver orders (docs/ARCHITECTURE.md),
	// each as canonical step positions with the driving scan first;
	// absent when every Δ pass runs the canonical order. Ops always
	// lists operators in canonical order and every pass's counters fold
	// into them, whichever order it ran.
	Drivers [][]int   `json:"drivers,omitempty"`
	Ops     []OpStats `json:"ops"`
}

// Profile is the operator-level evaluation profile behind one Stats.
//
// Counter semantics: the operator counters measure the rows the rule
// pipelines moved for the model the Stats belong to, cumulatively over
// its SolveMore/Resume chain. Every pass that runs is a pass the
// fixpoint required — nothing is evaluated and discarded — so the
// counters are identical at every worker count. An operator's Out is
// the rows it passed downstream at whatever position its pass ran it,
// so a rule's firings are the Out of the last operator of each order
// that ran: the last canonical operator's Out for a rule without
// Δ-driver orders.
type Profile struct {
	Rules []RuleProfile `json:"rules"`
}

// Profile returns the compiled operator trees in engine-global rule
// order (Rules[i].Index == i), annotated with the counters and per-rule
// totals st carries. A zero Stats — or one whose breakdown is not this
// engine's, such as a restored snapshot's — gives plain EXPLAIN: the
// structure with zero counters.
func (en *Engine) Profile(st Stats) *Profile {
	pr := &Profile{Rules: make([]RuleProfile, en.nrules)}
	for ci, ps := range en.plans {
		for _, p := range ps {
			rp := &pr.Rules[p.idx]
			*rp = RuleProfile{Index: p.idx, Component: ci, Rule: p.text, Ops: append([]OpStats(nil), p.ops...)}
			for _, d := range p.drivers {
				if d != nil {
					rp.Drivers = append(rp.Drivers, append([]int(nil), d.canon...))
				}
			}
			if len(st.Rules) != en.nrules || len(st.Rules[p.idx].Ops) != len(p.ops) {
				continue
			}
			rs := &st.Rules[p.idx]
			rp.Firings, rp.Nanos, rp.Rounds = rs.Firings, rs.Nanos, rs.Rounds
			for i, c := range rs.Ops {
				rp.Ops[i].OpCounts = c
			}
		}
	}
	return pr
}

// Sub returns this profile minus prev (per-rule, per-operator): the
// work between the two Stats they view. Build, a high-water mark, keeps
// the current value. Rules present only in p are kept as-is.
func (p *Profile) Sub(prev *Profile) *Profile {
	if prev == nil {
		return p
	}
	byIdx := make(map[int]*RuleProfile, len(prev.Rules))
	for i := range prev.Rules {
		byIdx[prev.Rules[i].Index] = &prev.Rules[i]
	}
	out := &Profile{Rules: make([]RuleProfile, len(p.Rules))}
	for i, rp := range p.Rules {
		ops := make([]OpStats, len(rp.Ops))
		copy(ops, rp.Ops)
		if old := byIdx[rp.Index]; old != nil && len(old.Ops) == len(ops) {
			for j := range ops {
				ops[j].In -= old.Ops[j].In
				ops[j].Out -= old.Ops[j].Out
				ops[j].Probes -= old.Ops[j].Probes
				ops[j].Delta -= old.Ops[j].Delta
				ops[j].Groups -= old.Ops[j].Groups
			}
			rp.Firings -= old.Firings
			rp.Nanos -= old.Nanos
			rp.Rounds -= old.Rounds
		}
		rp.Ops = ops
		out.Rules[i] = rp
	}
	return out
}

// Render prints the profile as a human-readable operator tree, one rule
// per block, operators indented under it in pipeline order.
func (p *Profile) Render(w io.Writer) {
	fmt.Fprintln(w, "EXPLAIN ANALYZE")
	for _, rp := range p.Rules {
		fmt.Fprintf(w, "rule %d [component %d]: %s\n", rp.Index, rp.Component, rp.Rule)
		if rp.Firings > 0 || rp.Nanos > 0 {
			fmt.Fprintf(w, "  %d firings over %d rounds in %s\n", rp.Firings, rp.Rounds, formatProfNanos(rp.Nanos))
		}
		for _, d := range rp.Drivers {
			fmt.Fprintf(w, "  Δ-driver order=%v\n", d)
		}
		for i, op := range rp.Ops {
			branch := "├─"
			if i == len(rp.Ops)-1 {
				branch = "└─"
			}
			fmt.Fprintf(w, "  %s %-9s %s\n", branch, op.Kind, op.Op)
			pad := "  │ "
			if i == len(rp.Ops)-1 {
				pad = "    "
			}
			line := fmt.Sprintf("%sin=%d out=%d probes=%d build=%d", pad, op.In, op.Out, op.Probes, op.Build)
			if op.Delta > 0 {
				line += fmt.Sprintf(" Δ=%d", op.Delta)
			}
			if op.Groups > 0 {
				line += fmt.Sprintf(" groups=%d", op.Groups)
			}
			fmt.Fprintln(w, line)
		}
	}
}

func formatProfNanos(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(n)/1e3)
	}
	return fmt.Sprintf("%dns", n)
}

// describeOps renders p's canonical steps as operator labels, counters
// zero.
func describeOps(p *plan) []OpStats {
	ops := make([]OpStats, len(p.steps))
	for si, s := range p.steps {
		kind, op := describeStep(p, s)
		ops[si] = OpStats{Step: si, Kind: kind, Op: op}
	}
	return ops
}

// describeStep renders one plan step as an operator label using the
// rule's variable names.
func describeStep(p *plan, s step) (kind, op string) {
	switch s := s.(type) {
	case *scanStep:
		return "scan", atomText(p, &s.atomSpec)
	case *negStep:
		return "negation", "not " + atomText(p, &s.atomSpec)
	case *builtinStep:
		return "builtin", s.b.String()
	case *aggStep:
		var b strings.Builder
		b.WriteString(s.g.String())
		if s.restricted {
			b.WriteString(" [restricted]")
		}
		return "aggregate", b.String()
	}
	return "op", "?"
}

// atomText renders a compiled atom with variable names and constants,
// cost argument last.
func atomText(p *plan, sp *atomSpec) string {
	var b strings.Builder
	b.WriteString(sp.pred.Name())
	b.WriteByte('(')
	for j := range sp.argVar {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(argText(p, sp.argVar[j], sp.argVal, j))
	}
	if sp.pi != nil && sp.pi.HasCost {
		if len(sp.argVar) > 0 {
			b.WriteString("; ")
		}
		if sp.costVar >= 0 {
			b.WriteString(string(p.names[sp.costVar]))
		} else {
			b.WriteString(sp.costVal.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

func argText(p *plan, v int, vals []val.T, j int) string {
	if v >= 0 {
		return string(p.names[v])
	}
	return vals[j].String()
}
