package obs

import (
	"strconv"
	"time"
)

// SpanSink converts one solve's engine event stream into spans on a
// Trace, nesting component -> round -> rule under a caller-provided
// parent span (normally the commit path's "solve" span). The engine hot
// paths stay untouched: spans are synthesized entirely from the events
// PR 4 already emits, so the nil-sink zero-cost contract holds.
//
// Timing model: events are emitted synchronously from the fixpoint
// loops, so the wall-clock interval between consecutive events of one
// component is the time the engine spent producing the later event.
// Rule spans therefore cover [previous event of the component, now] —
// exact on one worker; with several, each component's events come from
// its one worker, in order, so spans remain
// self-consistent per trace even when components interleave. RuleFired
// events additionally carry the rule's cumulative wall time, attached
// as the nanos_total attribute.
//
// SpanSink is not safe for concurrent use on its own; wrap it with
// Locked when handing it to a parallel solve (the engine does this for
// its own sink chain).
type SpanSink struct {
	tr     *Trace
	parent SpanID

	comp      map[int]SpanID    // open component span per component index
	last      map[int]time.Time // last event time per component
	round     map[int]SpanID    // open round span per component (lazy)
	roundNum  map[int]int       // round number of the open round span
	ruleSpan  map[int]SpanID    // rule index -> last completed rule span
	ruleNanos map[int]int64     // rule index -> last seen cumulative nanos
}

// NewSpanSink builds spans on tr, parenting top-level component spans
// under parent.
func NewSpanSink(tr *Trace, parent SpanID) *SpanSink {
	return &SpanSink{
		tr:        tr,
		parent:    parent,
		comp:      map[int]SpanID{},
		last:      map[int]time.Time{},
		round:     map[int]SpanID{},
		roundNum:  map[int]int{},
		ruleSpan:  map[int]SpanID{},
		ruleNanos: map[int]int64{},
	}
}

// RuleSpan returns the last completed span of a rule (by rule index),
// so per-operator profile spans can be parented under it after the
// solve.
func (s *SpanSink) RuleSpan(idx int) (SpanID, bool) {
	id, ok := s.ruleSpan[idx]
	return id, ok
}

// ensureRound opens the current round's span for a component lazily —
// rounds have no begin event, so the span starts at the component's
// last event time, which is exactly when the round began.
func (s *SpanSink) ensureRound(comp, num int) SpanID {
	if id, ok := s.round[comp]; ok {
		return id
	}
	id := s.tr.StartSpanAt("round "+strconv.Itoa(num), s.comp[comp], s.last[comp])
	s.round[comp] = id
	s.roundNum[comp] = num
	return id
}

// Event implements Sink.
func (s *SpanSink) Event(e Event) {
	now := time.Now()
	switch e.Kind {
	case ComponentBegin:
		attrs := []Attr{StringAttr("preds", e.Preds)}
		if e.WFS {
			attrs = append(attrs, StringAttr("strategy", "wfs"))
		}
		id := s.tr.StartSpanAt("component "+strconv.Itoa(e.Component), s.parent, now)
		s.tr.Annotate(id, attrs...)
		s.comp[e.Component] = id
		s.last[e.Component] = now
	case RuleFired:
		round := s.ensureRound(e.Component, e.Round)
		start := s.last[e.Component]
		id := s.tr.RecordSpan("rule "+strconv.Itoa(e.RuleIndex), round, start, now,
			StringAttr("rule", e.Rule),
			IntAttr("firings", e.Firings),
			IntAttr("derived", e.Derived),
			IntAttr("probes", e.Probes),
			IntAttr("nanos_total", e.Nanos))
		if prev, ok := s.ruleNanos[e.RuleIndex]; ok && e.Nanos >= prev {
			s.tr.Annotate(id, IntAttr("nanos_pass", e.Nanos-prev))
		}
		s.ruleNanos[e.RuleIndex] = e.Nanos
		s.ruleSpan[e.RuleIndex] = id
		s.last[e.Component] = now
	case RoundEnd:
		id := s.ensureRound(e.Component, e.Round)
		s.tr.EndSpanAt(id, now,
			IntAttr("firings", e.Firings),
			IntAttr("derived", e.Derived),
			IntAttr("probes", e.Probes))
		delete(s.round, e.Component)
		s.last[e.Component] = now
	case ComponentEnd:
		if id, ok := s.comp[e.Component]; ok {
			s.tr.EndSpanAt(id, now,
				IntAttr("rounds", int64(e.Round)),
				IntAttr("firings", e.Firings),
				IntAttr("derived", e.Derived))
			delete(s.comp, e.Component)
		}
		delete(s.round, e.Component)
		s.last[e.Component] = now
	case SolveEnd:
		s.tr.Annotate(s.parent,
			IntAttr("rounds", int64(e.Round)),
			IntAttr("firings", e.Firings),
			IntAttr("derived", e.Derived),
			IntAttr("probes", e.Probes))
	}
}
