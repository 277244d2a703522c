package core

import "repro/internal/obs"

// Stats reports work done by Solve. Besides the cumulative totals it
// carries per-rule and per-component breakdowns (indexed by the
// engine's compile-time rule and component order), maintained by every
// strategy and accumulated across Resume/SolveMore chains.
//
// The breakdown invariant: for any model produced by Solve or by a
// chain of in-memory SolveMore/Resume calls, the per-rule Firings,
// Derived and Probes sum to the scalar totals (WFS-fallback components
// contribute rounds but no rule firings). A solve resumed from a
// durable snapshot re-seeds only the scalar totals — the snapshot
// format records no breakdowns — so there the per-rule sums cover the
// work since the restore.
type Stats struct {
	Components int
	// Rounds counts fixpoint rounds, summed over the components a solve
	// evaluated. Rounds counts one per non-recursive component (no rule
	// scans or aggregates a predicate of its own component): it runs
	// every rule once and is done.
	Rounds  int
	Firings int64
	Derived int64
	// Probes counts join probes: rows offered to the evaluator by
	// relation scans and point lookups (before binding filters).
	Probes int64
	// Rules holds the per-rule breakdown, indexed by the engine's
	// global rule index.
	Rules []RuleStats
	// Comps holds the per-component breakdown, indexed by bottom-up
	// component order (including EDB-only components, which stay zero).
	Comps []ComponentStats
}

// RuleStats is the work attributed to one rule.
type RuleStats struct {
	// Index is the engine-global rule index; Rule is the rule text.
	Index int
	Rule  string
	// Component is the bottom-up index of the rule's component.
	Component int
	// Rounds counts fixpoint rounds in which the rule was evaluated.
	Rounds int
	// Firings, Derived and Probes mirror the scalar totals, restricted
	// to this rule's evaluation passes.
	Firings int64
	Derived int64
	Probes  int64
	// Nanos is the wall time spent evaluating the rule.
	Nanos int64
}

// ComponentStats is the work attributed to one program component.
type ComponentStats struct {
	// Index is the bottom-up component order; Preds lists the
	// component's predicates ("a/2,b/3").
	Index int
	Preds string
	// WFS marks well-founded-fallback evaluation; Admissible is the
	// static verdict of Definition 4.5.
	WFS        bool
	Admissible bool
	Rounds     int
	Firings    int64
	Derived    int64
	Probes     int64
	Nanos      int64
}

// Clone deep-copies the stats. Seeding a solve from a prior model's
// stats must not share backing arrays: the engine accumulates into its
// working copy in place, and the prior model keeps reporting its own
// totals.
func (s Stats) Clone() Stats {
	if s.Rules != nil {
		s.Rules = append([]RuleStats(nil), s.Rules...)
	}
	if s.Comps != nil {
		s.Comps = append([]ComponentStats(nil), s.Comps...)
	}
	return s
}

// ensureStats sizes the breakdown slices for this engine, preserving
// entries carried over from a compatible base (an in-memory
// Resume/SolveMore chain on the same engine). A base with a different
// shape — typically the scalar-only stats restored from a durable
// snapshot — gets fresh zeroed breakdowns while its scalar totals are
// kept.
func (en *Engine) ensureStats(stats *Stats) {
	if len(stats.Rules) != en.nrules {
		stats.Rules = make([]RuleStats, en.nrules)
		for ci, ps := range en.plans {
			for _, p := range ps {
				stats.Rules[p.idx] = RuleStats{Index: p.idx, Rule: p.text, Component: ci}
			}
		}
	}
	if len(stats.Comps) != len(en.comps) {
		stats.Comps = make([]ComponentStats, len(en.comps))
		for ci := range en.comps {
			stats.Comps[ci] = ComponentStats{
				Index: ci, Preds: en.compPreds[ci],
				WFS: en.wfsComp[ci], Admissible: en.compAdm[ci] == nil,
			}
		}
	}
}

// noteRule attributes one round's evaluation passes of one rule to its
// breakdown entry and, with a sink attached, emits the RuleFired event.
func (en *Engine) noteRule(rs *RuleStats, ci, round int, firings, derived, probes, nanos int64) {
	rs.Rounds++
	rs.Firings += firings
	rs.Derived += derived
	rs.Probes += probes
	rs.Nanos += nanos
	if en.sink != nil {
		en.sink.Event(obs.Event{
			Kind: obs.RuleFired, Component: ci, Round: round,
			Rule: rs.Rule, RuleIndex: rs.Index,
			Firings: firings, Derived: derived, Probes: probes, Nanos: rs.Nanos,
		})
	}
}
