package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/val"
)

// EXPLAIN ANALYZE: the compiled operator trees annotated with the
// measured per-operator counters of Options.Profile. A Profile is a
// point-in-time snapshot of the engine's cumulative accumulators;
// Sub produces per-solve deltas, Annotate grafts the per-rule timing
// and firing totals from Stats, and Render prints the human tree. The
// JSON encoding of Profile is the machine-readable form.

// OpStats is one operator of a rule's pipeline with its measured
// counters. Counters are zero when profiling is off.
type OpStats struct {
	// Step is the pipeline position; Kind is the operator class (scan,
	// negation, builtin, aggregate); Op is the operator rendered with
	// the rule's variable names.
	Step int    `json:"step"`
	Kind string `json:"kind"`
	Op   string `json:"op"`
	// In counts rows entering the operator, Out rows it passed
	// downstream (the last operator's Out is the rule's firings when the
	// rule has no Δ-driver orders; see Profile).
	In  int64 `json:"in"`
	Out int64 `json:"out"`
	// Probes counts index probes (rows offered by the operator's
	// cursor); Build is the largest indexed relation it consulted — the
	// build side of the hash join it probes.
	Probes int64 `json:"probes"`
	Build  int64 `json:"build"`
	// Delta counts Δ rows offered when the operator drove a semi-naive
	// pass; Groups counts aggregate groups a γ operator emitted.
	Delta  int64 `json:"delta,omitempty"`
	Groups int64 `json:"groups,omitempty"`
}

// RuleProfile is one rule's operator pipeline.
type RuleProfile struct {
	Index     int    `json:"index"`
	Component int    `json:"component"`
	Rule      string `json:"rule"`
	// Firings/Nanos/Rounds are filled by Annotate from Stats (zero
	// until then — the operator counters and the stats ledger are
	// separate books; see the "work performed" note on Profile).
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

// Profile is the operator-level evaluation profile of one engine.
//
// Counter semantics: the operator counters measure the rows the rule
// pipelines moved, cumulatively over the engine's lifetime. Every pass
// that runs is a pass the fixpoint required — nothing is evaluated and
// discarded — so the row counts (In, Out, Delta, Groups) are identical
// at every worker count. An operator's Out is the rows it passed
// downstream at whatever position its pass ran it, so a rule's Stats
// firings are the Out of the last operator of each order that ran: the
// last canonical operator's Out for a rule without Δ-driver orders.
type Profile struct {
	Rules []RuleProfile `json:"rules"`
}

// Profile snapshots the engine's operator counters (with the compiled
// operator trees), or structure-only with zero counters when
// Options.Profile is off. Safe to call concurrently with a solve: the
// counters are atomic, so a snapshot taken mid-solve is simply a
// consistent-enough point in time.
func (en *Engine) Profile() *Profile {
	pr := &Profile{}
	for ci, ps := range en.plans {
		for _, p := range ps {
			rp := RuleProfile{Index: p.idx, Component: ci, Rule: p.text, Ops: make([]OpStats, len(p.steps))}
			for si, s := range p.steps {
				kind, op := describeStep(p, s)
				rp.Ops[si] = OpStats{Step: si, Kind: kind, Op: op}
				if en.prof != nil {
					c := en.prof[p.idx][si].Snapshot()
					rp.Ops[si].In = c.In
					rp.Ops[si].Out = c.Out
					rp.Ops[si].Probes = c.Probes
					rp.Ops[si].Build = c.Build
					rp.Ops[si].Delta = c.Delta
					rp.Ops[si].Groups = c.Groups
				}
			}
			for _, d := range p.drivers {
				if d != nil {
					rp.Drivers = append(rp.Drivers, append([]int(nil), d.canon...))
				}
			}
			pr.Rules = append(pr.Rules, rp)
		}
	}
	// Engine-global rule order, so Rules[i].Index == i.
	for i := 1; i < len(pr.Rules); i++ {
		for j := i; j > 0 && pr.Rules[j].Index < pr.Rules[j-1].Index; j-- {
			pr.Rules[j], pr.Rules[j-1] = pr.Rules[j-1], pr.Rules[j]
		}
	}
	return pr
}

// Profiling reports whether Options.Profile was set.
func (en *Engine) Profiling() bool { return en.prof != nil }

// Sub returns this profile minus prev (per-rule, per-operator), the
// per-solve delta of two cumulative snapshots. Build, a high-water
// mark, keeps the current value. Rules present only in p are kept
// as-is.
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

// Annotate fills the per-rule firing/timing totals from a stats ledger
// (matched by engine-global rule index).
func (p *Profile) Annotate(st Stats) {
	byIdx := make(map[int]*RuleStats, len(st.Rules))
	for i := range st.Rules {
		byIdx[st.Rules[i].Index] = &st.Rules[i]
	}
	for i := range p.Rules {
		if rs := byIdx[p.Rules[i].Index]; rs != nil {
			p.Rules[i].Firings = rs.Firings
			p.Rules[i].Nanos = rs.Nanos
			p.Rules[i].Rounds = rs.Rounds
		}
	}
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
