// Package obs is the engine-deep observability layer: a low-overhead
// typed event stream emitted by the fixpoint engine, and a small
// stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms) rendered in the Prometheus text exposition format.
//
// The event stream is allocation-conscious by construction: Event is a
// flat value struct (no pointers into engine state), every string it
// carries is precomputed once at engine-compile time (rule text,
// component predicate lists), and the engine emits events only behind a
// nil-sink check, so the un-instrumented path pays nothing beyond that
// branch.
package obs

import "sync"

// Kind identifies an event type.
type Kind uint8

// The event taxonomy of one solve, in rough emission order. A solve
// emits SolveBegin, then per component ComponentBegin / (RuleFired* /
// RoundEnd)* / ComponentEnd, and finally SolveEnd. CheckpointFlushed,
// DivergenceWarning and BudgetBreach are interleaved where they occur.
const (
	// SolveBegin opens one Solve/Resume/SolveMore call.
	SolveBegin Kind = iota
	// SolveEnd closes it, carrying cumulative totals and, on failure,
	// the error text in Err.
	SolveEnd
	// ComponentBegin opens one component's fixpoint; Preds lists its
	// predicates, WFS marks the well-founded fallback and Admissible
	// carries the static admissibility verdict (Definition 4.5).
	ComponentBegin
	// ComponentEnd closes it with the component's cumulative counters.
	ComponentEnd
	// RoundEnd reports one completed fixpoint round: facts derived,
	// rule firings and join probes performed during that round.
	RoundEnd
	// RuleFired reports one rule's evaluation passes within a round:
	// the per-round firing/derivation/probe deltas and the rule's wall
	// time so far in the current component evaluation in Nanos.
	RuleFired
	// CheckpointFlushed reports a successful durable checkpoint.
	CheckpointFlushed
	// DivergenceWarning reports the ω-limit detector (or the MaxRounds
	// bound) firing; evaluation stops with ErrDiverged.
	DivergenceWarning
	// BudgetBreach reports a breached MaxFacts derivation budget.
	BudgetBreach
)

// String names the kind for logs and metric labels.
func (k Kind) String() string {
	switch k {
	case SolveBegin:
		return "solve_begin"
	case SolveEnd:
		return "solve_end"
	case ComponentBegin:
		return "component_begin"
	case ComponentEnd:
		return "component_end"
	case RoundEnd:
		return "round_end"
	case RuleFired:
		return "rule_fired"
	case CheckpointFlushed:
		return "checkpoint_flushed"
	case DivergenceWarning:
		return "divergence_warning"
	case BudgetBreach:
		return "budget_breach"
	}
	return "unknown"
}

// Event is one engine event. It is passed by value and shares no
// mutable state with the engine; fields irrelevant to a Kind are zero.
type Event struct {
	Kind Kind
	// Component is the bottom-up component index, -1 for solve-scoped
	// events.
	Component int
	// Preds is the component's predicate list ("a/2,b/3"), precomputed
	// at compile time (ComponentBegin/ComponentEnd).
	Preds string
	// WFS and Admissible are the component verdicts
	// (ComponentBegin/ComponentEnd).
	WFS        bool
	Admissible bool
	// Round is the fixpoint round within the component (RoundEnd,
	// RuleFired), or the cumulative round counter for checkpoint and
	// limit events.
	Round int
	// Rule and RuleIndex identify the rule of a RuleFired event; Rule
	// is the compile-time-cached rule text.
	Rule      string
	RuleIndex int
	// Firings, Derived and Probes are deltas for RoundEnd/RuleFired
	// and cumulative totals for ComponentEnd/SolveEnd.
	Firings int64
	Derived int64
	Probes  int64
	// Nanos is wall time: per rule within the current component
	// evaluation on RuleFired, per component on ComponentEnd, per solve
	// on SolveEnd.
	Nanos int64
	// Parallelism is the solve's worker count (SolveBegin/SolveEnd):
	// GOMAXPROCS, capped at the program's evaluable components.
	Parallelism int
	// Workers is the number of component workers running at emission
	// time, including the emitter (ComponentBegin/ComponentEnd): the
	// component walk's live concurrency gauge (always 1 on one worker).
	Workers int
	// Err is the failure text for SolveEnd on error, DivergenceWarning
	// and BudgetBreach.
	Err string
}

// Sink receives engine events. Implementations must be fast and
// non-blocking — events are emitted synchronously from the fixpoint
// loops. The engine serializes its own emissions (parallel solves wrap
// the sink in Locked), so a sink sees one event at a time per engine;
// two solves of two different engines may still share a sink, so shared
// state inside a sink needs its own synchronization.
type Sink interface {
	Event(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Event implements Sink.
func (f SinkFunc) Event(e Event) { f(e) }

// multiSink fans one event out to several sinks in order.
type multiSink []Sink

func (m multiSink) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// lockedSink serializes events from concurrently emitting goroutines.
type lockedSink struct {
	mu sync.Mutex
	s  Sink
}

func (l *lockedSink) Event(e Event) {
	l.mu.Lock()
	l.s.Event(e)
	l.mu.Unlock()
}

// Locked wraps s so concurrent emitters serialize on a mutex, letting
// single-goroutine sinks survive the concurrent component walk
// unchanged. A nil sink stays nil, preserving the engine's fast path.
// Event order within one component is preserved; events of concurrently
// evaluating components interleave.
func Locked(s Sink) Sink {
	if s == nil {
		return nil
	}
	return &lockedSink{s: s}
}

// Multi composes sinks: nil sinks are dropped, and the result is nil
// when none remain (so the engine's nil-check keeps the fast path).
func Multi(sinks ...Sink) Sink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
