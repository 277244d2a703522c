package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/enginerr"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Sentinel error classes, testable with errors.Is against any error
// returned by Solve, Resume or SolveMore. They alias the shared internal
// set so the WFS fallback and the stable-model enumerator report the
// same classes without an import cycle.
var (
	ErrCanceled       = enginerr.ErrCanceled
	ErrBudgetExceeded = enginerr.ErrBudgetExceeded
	ErrDiverged       = enginerr.ErrDiverged
	ErrInternal       = enginerr.ErrInternal
	ErrCheckpoint     = enginerr.ErrCheckpoint
)

// CheckpointFunc receives the current interpretation and cumulative
// stats at a consistent fixpoint boundary (end of a round, or end of a
// component). Monotonicity of T_P makes every such interpretation a
// sound restart point: it lies between the EDB and the least model, so
// the fixpoint resumed from it converges to the same least model. The
// callback must finish with db before returning (typically by
// serializing it) and must not retain it; db.Clone makes a copy to keep
// (Relation.Clone would take over storage the solve still writes).
type CheckpointFunc func(db *relation.DB, stats Stats) error

// Limits bounds one Solve call. The zero value means "no limits" (the
// divergence detector still runs at its default threshold; set
// DivergenceStreak < 0 to disable it).
type Limits struct {
	// MaxFacts caps the number of tuple derivations performed by one
	// solve call; 0 means unlimited. A resumed solve whose stats are
	// seeded from a checkpoint gets a fresh budget (the cap bounds the
	// increment of stats.Derived, not its cumulative value). Under the
	// naive strategy every round re-derives the interpretation, so the
	// budget counts derivation work, not distinct tuples.
	MaxFacts int64
	// MaxDuration is a per-solve wall-clock deadline; 0 means none.
	MaxDuration time.Duration
	// DivergenceStreak is the ω-limit detector threshold: evaluation
	// fails with ErrDiverged once the same atom improves this many
	// consecutive times with no other atom improving in between — the
	// signature of a fixpoint at ω (Example 5.1). 0 means the default
	// (1000); negative disables the detector.
	DivergenceStreak int
	// Checkpoint, when set, is invoked at consistent fixpoint
	// boundaries with the current interpretation and cumulative stats,
	// so the solve can be resumed after a crash (see Engine.Resume). A
	// checkpoint failure stops evaluation with ErrCheckpoint.
	Checkpoint CheckpointFunc
	// CheckpointEvery emits a checkpoint every N fixpoint rounds
	// (0 disables round-boundary checkpoints; component boundaries
	// always checkpoint while Checkpoint is set).
	CheckpointEvery int
}

const (
	// checkEvery is the cancellation-poll granularity in rule firings;
	// every round boundary polls too.
	checkEvery              = 4096
	defaultDivergenceStreak = 1000
	divergenceTrajectoryLen = 8
)

// Divergence describes an ω-limit signature: one aggregate group whose
// cost kept improving round after round without the rest of the
// interpretation changing.
type Divergence struct {
	// Pred and Group identify the offending atom (the group key of the
	// aggregate that keeps improving).
	Pred  ast.PredKey
	Group []val.T
	// Streak is the number of consecutive improvements observed.
	Streak int
	// Recent is the recent cost trajectory (oldest first), recorded
	// for numeric lattices only.
	Recent []float64
}

// Atom renders the diverging group as pred(args).
func (d *Divergence) Atom() string {
	parts := make([]string, len(d.Group))
	for i, a := range d.Group {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", d.Pred.Name(), strings.Join(parts, ", "))
}

// EngineError is the structured failure of a bounded evaluation. It
// wraps one of the sentinel classes (ErrCanceled, ErrBudgetExceeded,
// ErrDiverged, ErrInternal) and carries enough context to diagnose the
// failure: the component being evaluated, how far the fixpoint got, and
// the last atom that improved. Solve returns the partial interpretation
// alongside it, so no work is lost.
type EngineError struct {
	// Err is the sentinel class; errors.Is(e, core.ErrCanceled) etc.
	// see through it.
	Err error
	// Component lists the predicates of the component being evaluated.
	Component []ast.PredKey
	// Rule is the rule being fired when the failure surfaced, when
	// known (always set for contained panics).
	Rule string
	// Round, Firings and Derived are the Rounds, Firings and Derived of
	// the Stats the failed solve returns beside the error: cumulative
	// over a SolveMore/Resume chain, like those Stats.
	Round   int
	Firings int64
	Derived int64
	// Limit is the breached bound (MaxFacts or MaxRounds), when any.
	Limit int64
	// LastImproved is the most recently improved atom, rendered as
	// pred(args) = cost.
	LastImproved string
	// Divergence is set when the ω-limit detector fired.
	Divergence *Divergence
	// Cause is the underlying error: ctx.Err() for cancellations, the
	// recovered panic for ErrInternal, or a lower engine's error.
	Cause error
	// Stack is the goroutine stack of a contained panic.
	Stack []byte
}

func (e *EngineError) Error() string {
	var b strings.Builder
	switch {
	case errors.Is(e.Err, ErrCanceled):
		fmt.Fprintf(&b, "core: evaluation canceled on component %v after %d rounds (%d firings, %d derived)",
			e.Component, e.Round, e.Firings, e.Derived)
	case errors.Is(e.Err, ErrBudgetExceeded):
		fmt.Fprintf(&b, "core: derivation budget exceeded on component %v: more than %d derivations in this call (solve totals: %d rounds, %d firings, %d derived)",
			e.Component, e.Limit, e.Round, e.Firings, e.Derived)
	case errors.Is(e.Err, ErrDiverged):
		if d := e.Divergence; d != nil {
			fmt.Fprintf(&b, "core: component %v appears to diverge: %s improved %d consecutive times with nothing else changing",
				e.Component, d.Atom(), d.Streak)
			if len(d.Recent) > 0 {
				fmt.Fprintf(&b, " (recent costs %v)", d.Recent)
			}
			b.WriteString("; its least fixpoint may lie at ω (Example 5.1) — set Epsilon (§6.2)")
		} else {
			fmt.Fprintf(&b, "core: component %v did not reach a fixpoint within %d rounds (ω-limit program? set Epsilon, §6.2)",
				e.Component, e.Limit)
		}
	case errors.Is(e.Err, ErrInternal):
		fmt.Fprintf(&b, "core: internal panic contained in component %v (round %d)", e.Component, e.Round)
	case errors.Is(e.Err, ErrCheckpoint):
		fmt.Fprintf(&b, "core: checkpoint write failed on component %v (round %d); stopping rather than outrun the last recoverable state",
			e.Component, e.Round)
	default:
		fmt.Fprintf(&b, "core: evaluation failed on component %v (round %d)", e.Component, e.Round)
	}
	if e.Rule != "" {
		fmt.Fprintf(&b, "; rule %q", e.Rule)
	}
	if e.LastImproved != "" {
		fmt.Fprintf(&b, "; last improved %s", e.LastImproved)
	}
	if e.Cause != nil {
		fmt.Fprintf(&b, ": %v", e.Cause)
	}
	return b.String()
}

// Unwrap exposes both the sentinel class and the underlying cause to
// errors.Is/errors.As.
func (e *EngineError) Unwrap() []error {
	out := []error{e.Err}
	if e.Cause != nil {
		out = append(out, e.Cause)
	}
	return out
}

// guard enforces one solve's limits: cooperative cancellation, the
// derivation budget, and the ω-limit divergence detector. The fixpoint
// loops poll it at round boundaries and (through exec.Config.Check)
// every checkEvery firings, and report every derivation to it. A solve
// has one guard, and every component the walk evaluates has its own.
type guard struct {
	ctx context.Context
	// budget, when non-nil, is the solve's MaxFacts accounting: one
	// atomic derivation counter every component's guard spends, so
	// MaxFacts bounds the derivations of the call however they spread
	// over workers (a resumed solve gets a fresh budget).
	budget *sharedBudget
	stats  *Stats
	// start is when the solve began: the origin of its RoundLog windows.
	start time.Time
	// det is the ω-limit detector; the atom it holds is the latest
	// improved one, rendered lazily in fail() so the happy path never
	// formats it.
	det divergeDetector
	// comp and rule track the engine's current position for error
	// reporting.
	comp  []ast.PredKey
	rule  *ast.Rule
	polls int
	// ckpt is the durable checkpoint callback; sinceCkpt counts rounds
	// since the component's last round-boundary checkpoint (the cadence
	// lives in sched.checkpointCut).
	ckpt      CheckpointFunc
	sinceCkpt int
	// cut is a component guard's round-boundary checkpoint: the walk
	// snapshots a consistent cut of the global database overlaid with
	// the component's private view (nil on the solve's own guard, which
	// never reaches a round boundary).
	cut func(db *relation.DB) error
}

func newGuard(ctx context.Context, lim Limits, stats *Stats) *guard {
	g := &guard{ctx: ctx, stats: stats, ckpt: lim.Checkpoint}
	g.det.threshold = lim.DivergenceStreak
	if g.det.threshold == 0 {
		g.det.threshold = defaultDivergenceStreak
	}
	return g
}

// roundBoundary runs at the end of every fixpoint round of a component,
// when db is a consistent intermediate interpretation: it gives the
// fault-injection point a chance to kill the evaluation (crash-recovery
// tests) and hands db to the component's periodic checkpoint cut.
func (g *guard) roundBoundary(db *relation.DB) error {
	if err := faults.Check(faults.CoreRound); err != nil {
		return g.fail(ErrInternal, err)
	}
	return g.cut(db)
}

// checkpoint invokes the configured checkpoint callback at a solve's
// start and at every component boundary. A failed checkpoint is a
// first-class evaluation failure: continuing would outrun the last
// durable state.
func (g *guard) checkpoint(db *relation.DB) error {
	if g.ckpt == nil {
		return nil
	}
	// Clone: the callback may retain the stats value, and the engine
	// keeps accumulating into the breakdown slices after it returns.
	if err := g.ckpt(db, g.stats.Clone()); err != nil {
		return g.fail(ErrCheckpoint, err)
	}
	return nil
}

// fail builds an EngineError at the guard's position. Its counters are
// left to the solve frame, which fills them from the Stats it returns.
func (g *guard) fail(class, cause error) *EngineError {
	e := &EngineError{Err: class, Component: g.comp, Cause: cause}
	if d := &g.det; d.rel != nil {
		row := d.rel.At(d.id)
		e.LastImproved = renderAtom(d.rel.Info.Key, row.Args, row.Cost, row.HasCost)
		if class == ErrDiverged && d.tripped() {
			e.Divergence = &Divergence{
				Pred:   d.rel.Info.Key,
				Group:  append([]val.T{}, row.Args...),
				Streak: d.streak,
				Recent: append([]float64{}, d.recent...),
			}
		}
	}
	if g.rule != nil {
		e.Rule = g.rule.String()
	}
	return e
}

// poll checks for cancellation (context cancel, SIGINT via the caller's
// context, or the MaxDuration deadline — the solve frame folds
// MaxDuration into the context).
func (g *guard) poll() error {
	select {
	case <-g.ctx.Done():
		return g.fail(ErrCanceled, g.ctx.Err())
	default:
		return nil
	}
}

// check is handed to the rule pipelines and polls every checkEvery
// firings, so cancellation is noticed even inside one long round.
func (g *guard) check() error {
	g.polls++
	if g.polls%checkEvery != 0 {
		return nil
	}
	return g.poll()
}

// derived is called after every counted derivation, which wrote row id
// of rel, with the derived cost (only a numeric one is read, for the
// trajectory: a numeric join picks one of its operands, so it is the
// stored cost). improved reports whether the tuple's lattice value
// actually changed relative to the current interpretation (always true
// in the semi-naive strategy, where only changes are counted).
func (g *guard) derived(rel *relation.Relation, id int, cost lattice.Elem, improved bool) error {
	tripped := improved && g.det.observe(rel, id, cost)
	if g.budget != nil {
		if err := g.budget.spend(g); err != nil {
			return err
		}
	}
	if tripped {
		return g.fail(ErrDiverged, nil)
	}
	return nil
}

// maxRounds builds the round-bound breach error.
func (g *guard) maxRounds(limit int) *EngineError {
	e := g.fail(ErrDiverged, nil)
	e.Limit = int64(limit)
	return e
}

func renderAtom(pred ast.PredKey, args []val.T, cost lattice.Elem, hasCost bool) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	s := fmt.Sprintf("%s(%s)", pred.Name(), strings.Join(parts, ", "))
	if hasCost {
		s += " = " + cost.String()
	}
	return s
}

// divergeDetector watches for the ω-limit signature of §5/§6.2: the
// same atom (aggregate group) improving over and over while nothing
// else changes. Legitimate convergent programs interleave improvements
// across atoms, resetting the streak; the halfsum program of Example
// 5.1 improves a single group forever and trips the threshold. It
// holds the latest improved atom as its relation and row id whether or
// not the streak check is enabled, and reads its arguments only to
// render an error (this runs on every improvement).
type divergeDetector struct {
	threshold int
	streak    int
	rel       *relation.Relation // nil until the first improvement
	id        int
	recent    []float64
}

// sameAtom reports whether row id of rel is the retained atom. The
// naive strategy derives each round into fresh relations, so across
// relations an atom is its predicate and arguments.
func (d *divergeDetector) sameAtom(rel *relation.Relation, id int) bool {
	switch {
	case d.rel == nil:
		return false
	case rel == d.rel:
		return id == d.id
	}
	return rel.Info.Key == d.rel.Info.Key && slices.Equal(rel.At(id).Args, d.rel.At(d.id).Args)
}

// observe records that row id of rel improved to cost and reports
// whether the streak reached the threshold.
func (d *divergeDetector) observe(rel *relation.Relation, id int, cost lattice.Elem) bool {
	if !d.sameAtom(rel, id) {
		d.streak = 0
		d.rel, d.id = rel, id
		d.recent = d.recent[:0]
	}
	d.streak++
	if rel.Info.HasCost && cost.Kind() == val.Num {
		if len(d.recent) == divergenceTrajectoryLen {
			copy(d.recent, d.recent[1:])
			d.recent = d.recent[:divergenceTrajectoryLen-1]
		}
		d.recent = append(d.recent, cost.Num())
	}
	return d.tripped()
}

// tripped reports whether the streak has reached an enabled threshold.
func (d *divergeDetector) tripped() bool { return d.threshold > 0 && d.streak >= d.threshold }
