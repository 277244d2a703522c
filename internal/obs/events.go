// Package obs is the engine-deep observability layer: a low-overhead
// typed event stream emitted by the fixpoint engine, and a small
// stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms) rendered in the Prometheus text exposition format.
//
// The event stream is allocation-free by construction: Event is a flat
// value struct of integers (no pointers into engine state, no strings),
// and the engine emits events only behind a nil-sink check, so the
// un-instrumented path pays nothing beyond that branch.
package obs

import "sync"

// Kind identifies an event type.
type Kind uint8

// The event taxonomy of one solve: live notice of the component walk's
// boundaries. Per evaluated component the engine emits ComponentBegin,
// a RoundEnd per fixpoint round, and ComponentEnd. Everything else a
// solve reports — its totals, breakdowns and any limit breach — is in
// the Stats and error it returns.
const (
	// ComponentBegin opens one component's fixpoint.
	ComponentBegin Kind = iota
	// ComponentEnd closes it with the component's cumulative counters,
	// also when its evaluation failed.
	ComponentEnd
	// RoundEnd reports one fixpoint round: the round's record in the
	// solve's Stats.RoundLog (Δ rows, firings, derivations, improved
	// costs, join probes and wall time).
	RoundEnd
)

// String names the kind for logs and metric labels.
func (k Kind) String() string {
	switch k {
	case ComponentBegin:
		return "component_begin"
	case ComponentEnd:
		return "component_end"
	case RoundEnd:
		return "round_end"
	}
	return "unknown"
}

// Event is one engine event. It is passed by value and shares no
// mutable state with the engine; fields irrelevant to a Kind are zero.
// The component's predicates and verdicts are its Stats.Comps entry.
type Event struct {
	Kind Kind
	// Component is the bottom-up component index.
	Component int
	// Round is the fixpoint round within the component (RoundEnd), or
	// the component's cumulative round count (ComponentEnd).
	Round int
	// Delta is the number of Δ rows that drove the round and Improved
	// the round's derivations that raised an existing tuple's cost
	// (RoundEnd).
	Delta    int64
	Improved int64
	// Firings, Derived and Probes are per-round for RoundEnd and the
	// component's cumulative counters for ComponentEnd.
	Firings int64
	Derived int64
	Probes  int64
	// Nanos is wall time: per round on RoundEnd, per component on
	// ComponentEnd.
	Nanos int64
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
