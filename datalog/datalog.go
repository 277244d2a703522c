// Package datalog is the public API of the library: a deductive-database
// engine implementing the monotonic aggregation semantics of Ross &
// Sagiv, "Monotonic Aggregation in Deductive Databases" (PODS 1992).
//
// Programs are written in a Datalog dialect with aggregate subgoals over
// complete-lattice cost domains:
//
//	src := `
//	.cost arc/3 : minreal.
//	.cost path/4 : minreal.
//	.cost s/3 : minreal.
//	.ic :- arc(direct, Z, C).
//	path(X, direct, Y, C) :- arc(X, Y, C).
//	path(X, Z, Y, C)      :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
//	s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).
//	`
//	p, err := datalog.Load(src, datalog.Options{})
//	m, _, err := p.Solve(
//	    datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("b"), datalog.Num(1)),
//	    datalog.NewFact("arc", datalog.Sym("b"), datalog.Sym("c"), datalog.Num(2)),
//	)
//	cost, ok := m.Cost("s", datalog.Sym("a"), datalog.Sym("c")) // 3
//
// Load statically verifies the program: range restriction (safety),
// conflict-freedom (cost consistency) and admissibility (monotonicity),
// so that Solve is guaranteed to compute the unique minimal model.
package datalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/val"
)

// Error classes, testable with errors.Is. ErrParse and ErrStatic
// classify Load failures; the rest classify Solve failures, which also
// carry a full *EngineError (use errors.As) with the component, round,
// last-improved atom, and — for ErrDiverged — the offending aggregate
// group and its recent cost trajectory.
var (
	// ErrParse marks a syntax error in the program text.
	ErrParse = errors.New("datalog: parse error")
	// ErrStatic marks a failed static analysis (schema, safety,
	// conflict-freedom, admissibility).
	ErrStatic = errors.New("datalog: static check failed")
	// ErrCanceled marks a canceled or timed-out solve.
	ErrCanceled = core.ErrCanceled
	// ErrBudgetExceeded marks a breached derivation budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrDiverged marks non-convergent recursion (a fixpoint at ω,
	// Example 5.1, or an exhausted round bound).
	ErrDiverged = core.ErrDiverged
	// ErrInternal marks an engine panic contained by the recover
	// boundary instead of crashing the process.
	ErrInternal = core.ErrInternal
)

// EngineError is the structured evaluation failure (see core.EngineError).
type EngineError = core.EngineError

// Divergence describes a detected ω-limit signature (see core.Divergence).
type Divergence = core.Divergence

// Strategy selects the fixpoint algorithm.
type Strategy = core.Strategy

// The fixpoint strategies: SemiNaive (default) refires only rule
// instances touching changed atoms; Naive recomputes T_P per round.
const (
	SemiNaive = core.SemiNaive
	Naive     = core.Naive
)

// Options configures evaluation; the zero value is a good default.
type Options struct {
	Strategy Strategy
	// MaxRounds bounds fixpoint iteration per program component
	// (default 1<<20).
	MaxRounds int
	// Epsilon treats numeric cost improvements below it as convergence;
	// required for programs whose fixpoint lies at ω (Example 5.1).
	Epsilon float64
	// SkipChecks disables static verification. The minimal model is then
	// no longer guaranteed to exist or be unique; intended for studying
	// non-monotonic programs.
	SkipChecks bool
	// WFSFallback enables the full iterated construction of §6.3 of the
	// paper: components that recurse through negation (and are therefore
	// not admissible) are evaluated under the well-founded semantics;
	// their well-founded model must be two-valued, and feeds the
	// monotonic components above.
	WFSFallback bool
	// Trace is ignored: Model.Explain and ExplainTree re-derive
	// provenance from the model on demand, so there is nothing to
	// record. The field remains only because the benchmark harness
	// still sets it; the next change to the benchmark deletes it.
	Trace bool
	// MaxFacts caps tuple derivations per solve (0 = unlimited); on
	// breach Solve returns ErrBudgetExceeded with the partial model.
	MaxFacts int64
	// MaxDuration is a per-solve wall-clock deadline (0 = none); on
	// expiry Solve returns ErrCanceled with the partial model.
	MaxDuration time.Duration
	// CheckEvery is the cancellation-poll granularity in rule firings
	// (default 4096).
	CheckEvery int
	// DivergenceStreak configures the ω-limit detector: fail with
	// ErrDiverged once one aggregate group improves this many
	// consecutive times with nothing else changing (0 = default 1000,
	// negative disables).
	DivergenceStreak int
	// Sink, when non-nil, receives the engine's typed event stream —
	// solve/component/round boundaries, rule passes, checkpoint
	// flushes and resource warnings. Events are emitted synchronously
	// from the evaluation loop; nil keeps the engine at full speed.
	Sink EventSink
	// Profile is ignored: every solve counts the per-operator work into
	// its model's Stats, and Program.Profile renders any Stats as
	// EXPLAIN ANALYZE. The field remains only because the benchmark
	// harness still sets it; the next change to the benchmark deletes it.
	Profile bool
}

// Stats reports evaluation work.
type Stats = core.Stats

// Program is a loaded, checked, compiled program.
type Program struct {
	prog *ast.Program
	en   *core.Engine
	lim  core.Limits
	fp   [32]byte // snapshot fingerprint of prog (source + declarations)
}

// Fingerprint returns the program's canonical fingerprint — the hash
// that tags its checkpoints and write-ahead log segments, so neither
// can ever be resumed against a different program.
func (p *Program) Fingerprint() [32]byte { return p.fp }

// Load parses, checks and compiles a program. Failures are classified:
// errors.Is(err, ErrParse) for syntax errors, errors.Is(err, ErrStatic)
// for failed static analyses.
func Load(src string, opts Options) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	lim := core.Limits{
		MaxFacts:         opts.MaxFacts,
		MaxDuration:      opts.MaxDuration,
		CheckEvery:       opts.CheckEvery,
		DivergenceStreak: opts.DivergenceStreak,
	}
	en, err := core.New(prog, core.Options{
		Strategy:    opts.Strategy,
		MaxRounds:   opts.MaxRounds,
		Epsilon:     opts.Epsilon,
		SkipChecks:  opts.SkipChecks,
		WFSFallback: opts.WFSFallback,
		Sink:        opts.Sink,
		Limits:      lim,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStatic, err)
	}
	return &Program{prog: prog, en: en, lim: lim, fp: snapshot.Fingerprint(prog)}, nil
}

// Classification reports where the program sits on the paper's §5 ladder.
type Classification struct {
	// Admissible programs (Definition 4.5) are monotonic: the least
	// fixpoint exists and Solve computes it. Reason is non-empty when
	// the check fails.
	Admissible bool
	Reason     string
	// RMonotonic: the restricted monotonicity of Mumick et al. (§5.2).
	RMonotonic bool
	// AggregateStratified: no recursion through aggregation (§5.1).
	AggregateStratified bool
	// NegationStratified: no recursion through negation.
	NegationStratified bool
}

// Classify returns the static classification.
func (p *Program) Classify() Classification {
	rep := p.en.Report
	c := Classification{
		Admissible:          rep.Admissible == nil,
		RMonotonic:          rep.RMonotonic == nil,
		AggregateStratified: rep.AggregateStratified,
		NegationStratified:  rep.NegationStratified,
	}
	if rep.Admissible != nil {
		c.Reason = rep.Admissible.Error()
	}
	return c
}

// Value is a constant of the rule language (or the Any wildcard, which
// is meaningful only as a Model.Match argument).
type Value struct {
	v    val.T
	wild bool
}

// Sym returns a symbol constant.
func Sym(s string) Value { return Value{v: val.Symbol(s)} }

// Num returns a numeric constant.
func Num(n float64) Value { return Value{v: val.Number(n)} }

// Bool returns a boolean constant (written 0/1 in rule text).
func Bool(b bool) Value { return Value{v: val.Boolean(b)} }

// Str returns a string constant.
func Str(s string) Value { return Value{v: val.String(s)} }

// SetOf returns a set constant.
func SetOf(elems ...Value) Value {
	raw := make([]val.T, len(elems))
	for i, e := range elems {
		raw[i] = e.v
	}
	return Value{v: val.T{Kind: val.SetKind, Set: val.NewSet(raw)}}
}

// String renders the value in rule-language syntax ("_" for Any).
func (v Value) String() string {
	if v.wild {
		return "_"
	}
	return v.v.String()
}

// Float returns the numeric value of a Num (or NaN-free zero otherwise).
func (v Value) Float() (float64, bool) {
	if v.v.Kind == val.Num {
		return v.v.N, true
	}
	return 0, false
}

// Truth returns the boolean value of a Bool.
func (v Value) Truth() (bool, bool) {
	if v.v.Kind == val.Bool {
		return v.v.B, true
	}
	return false, false
}

// Equal reports value equality (Any equals nothing, not even Any).
func (v Value) Equal(o Value) bool { return !v.wild && !o.wild && val.Equal(v.v, o.v) }

// Fact is a ground input fact. For a cost predicate the final value is
// the cost.
type Fact struct {
	Pred string
	Args []Value
}

// NewFact builds a fact.
func NewFact(pred string, args ...Value) Fact {
	return Fact{Pred: pred, Args: args}
}

// Model is a computed minimal model (or a partial interpretation, for
// interrupted solves and restored checkpoints). It carries the
// cumulative Stats of the work that produced it, so checkpoint/resume
// chains report running totals.
type Model struct {
	db      *relation.DB
	schemas ast.Schemas
	en      *core.Engine
	stats   Stats
	fp      [32]byte // the computing program's fingerprint, tagging snapshots
	// prov explains the model's tuples, built on the first Explain.
	provOnce sync.Once
	prov     *core.Provenance
}

// provenance returns the model's explainer, which caches what it derives.
func (m *Model) provenance() *core.Provenance {
	m.provOnce.Do(func() { m.prov = m.en.Provenance(m.db) })
	return m.prov
}

// model wraps an interpretation computed (or restored) by p; nil stays
// nil, for solves that failed before producing one.
func (p *Program) model(db *relation.DB, stats Stats) *Model {
	if db == nil {
		return nil
	}
	return &Model{db: db, schemas: p.en.Schemas, en: p.en, stats: stats, fp: p.fp}
}

// solveConfig collects per-call overrides; options mutate it rather
// than core.Limits directly so that checkpointing options can be bound
// to the program fingerprint at solve time.
type solveConfig struct {
	lim   core.Limits
	sink  CheckpointSink
	every int
}

// SolveOption tunes a single SolveContext call, overriding the
// program-wide limits set at Load.
type SolveOption func(*solveConfig)

// WithTimeout bounds the solve's wall clock; on expiry the solve stops
// with ErrCanceled and the partial model.
func WithTimeout(d time.Duration) SolveOption {
	return func(c *solveConfig) { c.lim.MaxDuration = d }
}

// WithMaxFacts caps tuple derivations for the solve (ErrBudgetExceeded
// on breach).
func WithMaxFacts(n int64) SolveOption {
	return func(c *solveConfig) { c.lim.MaxFacts = n }
}

// WithCheckEvery sets the cancellation-poll granularity in rule firings.
func WithCheckEvery(n int) SolveOption {
	return func(c *solveConfig) { c.lim.CheckEvery = n }
}

// WithDivergenceStreak sets the ω-limit detector threshold (negative
// disables it).
func WithDivergenceStreak(n int) SolveOption {
	return func(c *solveConfig) { c.lim.DivergenceStreak = n }
}

// Solve evaluates the program over the given extensional facts and
// returns its minimal model (Corollary 3.5).
func (p *Program) Solve(facts ...Fact) (*Model, Stats, error) {
	return p.SolveContext(context.Background(), facts)
}

// SolveContext is Solve with cooperative cancellation and per-call
// limit overrides. On cancellation, budget breach or detected
// divergence the error wraps the matching sentinel (ErrCanceled,
// ErrBudgetExceeded, ErrDiverged — test with errors.Is; extract the
// *EngineError with errors.As) and the returned model is non-nil,
// holding the partial interpretation computed so far.
func (p *Program) SolveContext(ctx context.Context, facts []Fact, opts ...SolveOption) (*Model, Stats, error) {
	edb, err := p.edb(facts)
	if err != nil {
		return nil, Stats{}, err
	}
	cfg := solveConfig{lim: p.lim}
	for _, o := range opts {
		o(&cfg)
	}
	db, stats, err := p.en.SolveLimits(ctx, edb, p.limitsFor(cfg))
	return p.model(db, stats), stats, err
}

// edb stores caller-supplied facts as an extensional database over the
// program's schemas — what the engine joins with the program's own facts
// into a solve's starting interpretation.
func (p *Program) edb(facts []Fact) (*relation.DB, error) {
	edb := relation.NewDB(p.en.Schemas)
	for _, f := range facts {
		if err := addFact(edb, p.en.Schemas, f); err != nil {
			return nil, err
		}
	}
	return edb, nil
}

func addFact(edb *relation.DB, schemas ast.Schemas, f Fact) error {
	key := ast.MakePredKey(f.Pred, len(f.Args))
	pi := schemas.Info(key)
	if pi != nil && pi.HasCost {
		if len(f.Args) == 0 {
			return fmt.Errorf("datalog: fact %s lacks its cost argument", f.Pred)
		}
		cost, err := pi.L.Parse(f.Args[len(f.Args)-1].v)
		if err != nil {
			return fmt.Errorf("datalog: fact %s: %v", f.Pred, err)
		}
		args := make([]val.T, len(f.Args)-1)
		for i := range args {
			args[i] = f.Args[i].v
		}
		edb.Rel(key).InsertJoin(args, cost)
		return nil
	}
	args := make([]val.T, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.v
	}
	edb.Rel(key).InsertJoin(args, lattice.Elem{})
	return nil
}

// SolveMore extends a previously computed model with additional
// extensional facts, reusing the old model instead of re-solving from
// scratch — sound because monotonic programs only ever grow under fact
// insertion. It fails if any added predicate is defined by rules, or is
// used non-monotonically — under negation, or inside a pseudo-monotonic
// aggregate — directly or through the predicates that depend on it. The
// original model is unchanged.
func (p *Program) SolveMore(m *Model, facts ...Fact) (*Model, Stats, error) {
	return p.SolveMoreContext(context.Background(), m, facts)
}

// SolveMoreContext is SolveMore with cooperative cancellation; like
// SolveContext it returns the partially extended model alongside any
// limit-breach error.
func (p *Program) SolveMoreContext(ctx context.Context, m *Model, facts []Fact) (*Model, Stats, error) {
	added, err := p.edb(facts)
	if err != nil {
		return nil, Stats{}, err
	}
	db, stats, err := p.en.SolveMoreFrom(ctx, m.db, added, m.stats)
	return p.model(db, stats), stats, err
}

// SolveMoreObserved is SolveMoreContext with an additional event sink
// observing just this solve, layered on top of Options.Sink — how the
// serve tier attaches a per-request trace to one commit without
// re-configuring the program.
func (p *Program) SolveMoreObserved(ctx context.Context, m *Model, facts []Fact, sink EventSink) (*Model, Stats, error) {
	added, err := p.edb(facts)
	if err != nil {
		return nil, Stats{}, err
	}
	db, stats, err := p.en.SolveMoreObserved(ctx, m.db, added, m.stats, sink)
	return p.model(db, stats), stats, err
}

// Profile is the operator-level execution profile of the program's
// compiled rules: the operator trees annotated with the counters of one
// model's Stats. Profile.Sub of two views is the work between them.
type Profile = core.Profile

// RuleProfile is one rule's operator pipeline within a Profile.
type RuleProfile = core.RuleProfile

// OpStats is one operator's measured counters within a RuleProfile.
type OpStats = core.OpStats

// Profile returns the program's operator trees annotated with the
// per-operator counters st carries — EXPLAIN ANALYZE of the model st
// belongs to, cumulative over its SolveMore chain. A zero Stats gives
// plain EXPLAIN.
func (p *Program) Profile(st Stats) *Profile { return p.en.Profile(st) }

// Has reports whether the ground atom (without cost) is in the model.
func (m *Model) Has(pred string, args ...Value) bool {
	_, ok := m.lookup(pred, args)
	return ok
}

// Cost returns the cost value of the tuple identified by the non-cost
// arguments of a cost predicate.
func (m *Model) Cost(pred string, args ...Value) (Value, bool) {
	row, ok := m.lookup(pred, args)
	if !ok || !row.HasCost {
		return Value{}, false
	}
	return Value{v: row.Cost}, true
}

func (m *Model) lookup(pred string, args []Value) (relation.Row, bool) {
	ks := m.predKeys(pred, len(args))
	if len(ks) == 0 {
		return relation.Row{}, false
	}
	raw := make([]val.T, len(args))
	for i, a := range args {
		raw[i] = a.v
	}
	return m.db.Rel(ks[0]).GetOrDefault(raw)
}

// predKeys returns, in key order, the model's predicates named pred that
// take n non-cost arguments. Only two keys can: pred/n (no cost) and
// pred/n+1 (a cost predicate), so they are resolved directly rather than
// by scanning the model's predicates.
func (m *Model) predKeys(pred string, n int) []ast.PredKey {
	ks := [2]ast.PredKey{ast.MakePredKey(pred, n), ast.MakePredKey(pred, n+1)}
	if ks[1] < ks[0] {
		ks[0], ks[1] = ks[1], ks[0]
	}
	out := ks[:0]
	for _, k := range ks {
		if pi := m.schemas.Info(k); pi != nil && pi.NonCost() == n && m.db.Has(k) {
			out = append(out, k)
		}
	}
	return out
}

// Facts returns every tuple of the predicate (cost appended last for
// cost predicates) in deterministic sorted order: ascending tuple-wise
// over the non-cost arguments, by kind and then by each kind's natural
// order (numbers numerically, symbols and strings lexicographically).
// The order depends only on the tuples present — never on insertion or
// derivation history — so output is stable across runs, resumed
// checkpoints and incremental extensions, and safe to use in golden
// tests and JSON responses.
func (m *Model) Facts(pred string) [][]Value {
	var out [][]Value
	for _, k := range m.db.Named(pred) {
		for _, row := range m.db.Rel(k).Rows() {
			out = append(out, rowValues(row))
		}
	}
	return out
}

// rowValues renders a row as Facts does: its arguments, then its cost.
func rowValues(row relation.Row) []Value {
	vs := make([]Value, 0, len(row.Args)+1)
	for _, a := range row.Args {
		vs = append(vs, Value{v: a})
	}
	if row.HasCost {
		vs = append(vs, Value{v: row.Cost})
	}
	return vs
}

// Len returns the number of stored tuples of the predicate.
func (m *Model) Len(pred string) int {
	n := 0
	for _, k := range m.db.Named(pred) {
		n += m.db.Rel(k).Len()
	}
	return n
}

// String renders the whole model as sorted ground facts.
func (m *Model) String() string { return m.db.String() }

// Explain returns a rule and a ground instance of it, satisfied in the
// model, that derive the tuple identified by the non-cost arguments at
// its stored cost (see core.Provenance.Explain). It is a function of the
// model alone: the same tuples give the same answer however they were
// computed — at any worker count, split across SolveMore calls, resumed
// or restored. ok is false for a tuple the model lacks or no rule
// derives (an EDB fact).
func (m *Model) Explain(pred string, args ...Value) (rule string, supports []string, ok bool) {
	raw := make([]val.T, len(args))
	for i, a := range args {
		raw[i] = a.v
	}
	d, ok := m.provenance().Explain(pred, raw)
	if !ok {
		return "", nil, false
	}
	out := make([]string, len(d.Supports))
	for i, s := range d.Supports {
		out[i] = s.String()
	}
	return d.Rule, out, true
}

// ExplainTree renders a derivation tree for the tuple down to the given
// depth, expanding each support Explain can explain in turn. Every path
// ends in facts without repeating a tuple (see core.Provenance.Tree).
// The model caches each explanation it derives, for Explain and
// ExplainTree alike.
func (m *Model) ExplainTree(pred string, depth int, args ...Value) string {
	raw := make([]val.T, len(args))
	for i, a := range args {
		raw[i] = a.v
	}
	return m.provenance().Tree(pred, raw, depth)
}
