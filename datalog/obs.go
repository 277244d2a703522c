package datalog

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Event is one engine observation: a component or round boundary of the
// component walk, live while the solve runs. What a solve reports as a
// whole — totals, breakdowns, a limit breach — is its returned Stats and
// error. Events are emitted synchronously from the evaluation loop, so a
// Sink must be fast and must not block; a nil Options.Sink keeps the
// engine at full speed (the emission sites compile to a single nil
// check).
type Event = obs.Event

// EventKind discriminates Event payloads.
type EventKind = obs.Kind

// EventSink receives engine events. Implementations are called from the
// solving goroutine; they must not call back into the Program or Model
// being solved.
type EventSink = obs.Sink

// SinkFunc adapts a function to the EventSink interface.
type SinkFunc = obs.SinkFunc

// The event kinds, in the order a component emits them.
const (
	// EventComponentBegin/End bracket one dependency-graph component's
	// evaluation; the end event carries the component's counters (its
	// predicates and verdicts are its Stats.Comps entry).
	EventComponentBegin = obs.ComponentBegin
	EventComponentEnd   = obs.ComponentEnd
	// EventRoundEnd reports one fixpoint round: its Stats.RoundLog
	// record.
	EventRoundEnd = obs.RoundEnd
)

// RuleStats is the per-rule slice of Stats: how many rounds evaluated
// the rule, its firings, derivations, join probes, and cumulative wall
// time.
type RuleStats = core.RuleStats

// ComponentStats is the per-component slice of Stats, including the
// component's predicates, admissibility verdict and WFS-fallback flag.
type ComponentStats = core.ComponentStats

// RoundStats is one fixpoint round of one solve (Stats.RoundLog): the Δ
// rows that drove it, its firings, derivations, improved costs, probes
// and wall-clock window.
type RoundStats = core.RoundStats
