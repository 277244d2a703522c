package datalog

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Event is one engine observation: a solve, component or round boundary,
// a rule pass, a checkpoint flush, or a resource warning. Events are
// emitted synchronously from the evaluation loop, so a Sink must be
// fast and must not block; a nil Options.Sink keeps the engine at full
// speed (the emission sites compile to a single nil check).
type Event = obs.Event

// EventKind discriminates Event payloads.
type EventKind = obs.Kind

// EventSink receives engine events. Implementations are called from the
// solving goroutine; they must not call back into the Program or Model
// being solved.
type EventSink = obs.Sink

// SinkFunc adapts a function to the EventSink interface.
type SinkFunc = obs.SinkFunc

// The event kinds, in roughly the order a solve emits them.
const (
	// EventSolveBegin/End bracket one Solve/SolveMore/Resume call;
	// the end event carries the cumulative totals and any error.
	EventSolveBegin = obs.SolveBegin
	EventSolveEnd   = obs.SolveEnd
	// EventComponentBegin/End bracket one dependency-graph component,
	// with its predicates, admissibility verdict and WFS-fallback flag.
	EventComponentBegin = obs.ComponentBegin
	EventComponentEnd   = obs.ComponentEnd
	// EventRoundEnd reports one completed fixpoint round with the
	// facts derived and join probes performed in that round.
	EventRoundEnd = obs.RoundEnd
	// EventRuleFired reports one rule pass within a round: firings,
	// derivations and the rule's evaluation nanoseconds so far in the
	// current component evaluation (not across a SolveMore chain).
	EventRuleFired = obs.RuleFired
	// EventCheckpointFlushed reports a successful checkpoint write.
	EventCheckpointFlushed = obs.CheckpointFlushed
	// EventDivergenceWarning precedes an ErrDiverged failure.
	EventDivergenceWarning = obs.DivergenceWarning
	// EventBudgetBreach precedes an ErrBudgetExceeded failure.
	EventBudgetBreach = obs.BudgetBreach
)

// MultiSink fans events out to several sinks (nils are skipped).
func MultiSink(sinks ...EventSink) EventSink { return obs.Multi(sinks...) }

// RuleStats is the per-rule slice of Stats: how many rounds evaluated
// the rule, its firings, derivations, join probes, and cumulative wall
// time.
type RuleStats = core.RuleStats

// ComponentStats is the per-component slice of Stats, including the
// component's predicates, admissibility verdict and WFS-fallback flag.
type ComponentStats = core.ComponentStats
