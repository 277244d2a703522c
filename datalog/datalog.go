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
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
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
	// (0 selects the default, 1<<20; Load refuses a negative bound).
	MaxRounds int
	// Epsilon treats numeric cost improvements below it as convergence;
	// required for programs whose fixpoint lies at ω (Example 5.1). Load
	// refuses a value that is not a finite number ≥ 0.
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
	// DivergenceStreak configures the ω-limit detector: fail with
	// ErrDiverged once one aggregate group improves this many
	// consecutive times with nothing else changing (0 = default 1000,
	// negative disables).
	DivergenceStreak int
	// Sink, when non-nil, receives the engine's typed event stream: the
	// component and round boundaries of every solve. Events are emitted
	// synchronously from the evaluation loop; nil keeps the engine at
	// full speed.
	Sink EventSink
	// Profile is ignored: every solve counts the per-operator work into
	// its model's Stats, and Program.Profile renders any Stats as
	// EXPLAIN ANALYZE. The field remains only because the benchmark
	// harness still sets it; the next change to the benchmark deletes it.
	Profile bool
}

// Stats reports evaluation work.
type Stats = core.Stats

// Program is a loaded, checked, compiled program. One Program runs one
// Solve, SolveContext, SolveMore, SolveMoreContext or Resume at a time
// (a solve's components evaluate concurrently inside it); the Models it
// returns may be read from many goroutines at once, also while the
// Program solves a successor.
type Program struct {
	prog *ast.Program
	en   *core.Engine
	lim  core.Limits
	// fp is the snapshot fingerprint of prog (source + declarations),
	// hashed on first use: a solve that writes no checkpoint never
	// renders the program text.
	fpOnce sync.Once
	fp     [32]byte
}

// Fingerprint returns the program's canonical fingerprint — the hash
// that tags its checkpoints and write-ahead log segments, so neither
// can ever be resumed against a different program. It is computed on
// the first call.
func (p *Program) Fingerprint() [32]byte {
	p.fpOnce.Do(func() { p.fp = snapshot.Fingerprint(p.prog) })
	return p.fp
}

// Load parses, checks and compiles a program. Failures are classified:
// errors.Is(err, ErrParse) for syntax errors, errors.Is(err, ErrStatic)
// for failed static analyses. Options are checked first, before the
// text is read: an Epsilon that is not a finite number ≥ 0 or a negative
// MaxRounds fails Load with an error that is neither ErrParse nor
// ErrStatic.
func Load(src string, opts Options) (*Program, error) {
	lim := core.Limits{
		MaxFacts:         opts.MaxFacts,
		MaxDuration:      opts.MaxDuration,
		DivergenceStreak: opts.DivergenceStreak,
	}
	copts := core.Options{
		Strategy:    opts.Strategy,
		MaxRounds:   opts.MaxRounds,
		Epsilon:     opts.Epsilon,
		SkipChecks:  opts.SkipChecks,
		WFSFallback: opts.WFSFallback,
		Sink:        opts.Sink,
		Limits:      lim,
	}
	if err := copts.Validate(); err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	en, err := core.New(prog, copts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStatic, err)
	}
	return &Program{prog: prog, en: en, lim: lim}, nil
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
	rep := p.en.Report()
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
//
// Symbols, strings and sets are interned process-wide by the engine. A
// Value built by Sym, Str or SetOf keeps its text (or elements) and is
// resolved when used: facts intern it, while the read paths — Has, Cost,
// Match, Explain — only look it up, so a query naming constants no model
// holds matches nothing and leaves the intern table as it was. Values
// read out of a model carry the engine value itself.
type Value struct {
	v     val.T
	text  string  // Sym, Str built by Sym/Str: the text, unresolved
	elems []Value // SetKind built by SetOf: the elements, unresolved
	wild  bool
}

// Sym returns a symbol constant.
func Sym(s string) Value { return Value{v: val.Zero(val.Sym), text: s} }

// Num returns a numeric constant.
func Num(n float64) Value { return Value{v: val.Number(n)} }

// Bool returns a boolean constant (written 0/1 in rule text).
func Bool(b bool) Value { return Value{v: val.Boolean(b)} }

// Str returns a string constant.
func Str(s string) Value { return Value{v: val.Zero(val.Str), text: s} }

// SetOf returns a set constant.
func SetOf(elems ...Value) Value {
	if len(elems) == 0 {
		return Value{v: val.EmptySet.Value()}
	}
	return Value{v: val.Zero(val.SetKind), elems: append([]Value(nil), elems...)}
}

// resolve returns v's engine value. With intern set, constants new to the
// process are interned (facts); otherwise ok is false for them (reads).
func (v Value) resolve(intern bool) (_ val.T, ok bool) {
	switch {
	case v.text != "" && intern && v.v.Kind() == val.Str:
		return val.String(v.text), true
	case v.text != "" && intern:
		return val.Symbol(v.text), true
	case v.text != "":
		return val.Lookup(v.v.Kind(), v.text)
	case v.elems != nil:
		raw := make([]val.T, len(v.elems))
		for i, e := range v.elems {
			if raw[i], ok = e.resolve(intern); !ok {
				return val.T{}, false
			}
		}
		if intern {
			return val.SetOf(raw...), true
		}
		return val.LookupSet(raw)
	}
	return v.v, true
}

// resolveAll resolves vs for a read (see resolve); ok is false when some
// value names a constant the process has never interned.
func resolveAll(vs []Value) ([]val.T, bool) {
	raw := make([]val.T, len(vs))
	for i, v := range vs {
		var ok bool
		if raw[i], ok = v.resolve(false); !ok {
			return nil, false
		}
	}
	return raw, true
}

// key returns v's display key (val.T.Key) without resolving v.
func (v Value) key() string {
	switch {
	case v.text != "" && v.v.Kind() == val.Str:
		return "q:" + v.text
	case v.text != "":
		return "s:" + v.text
	case v.elems != nil:
		elems := v.canonicalElems()
		keys := make([]string, len(elems))
		for i, e := range elems {
			keys[i] = e.key()
		}
		return "S:{" + strings.Join(keys, ";") + "}"
	}
	return v.v.Key()
}

// canonicalElems returns a built set's elements in canonical order
// (compare's, duplicates dropped), the order val.Set keeps.
func (v Value) canonicalElems() []Value {
	out := append([]Value(nil), v.elems...)
	slices.SortStableFunc(out, Value.compare)
	return slices.CompactFunc(out, func(a, b Value) bool { return a.compare(b) == 0 })
}

// compare orders values, resolved or not, as a val.Set orders its
// elements: by display key, then structurally — by kind, text and
// elements — so distinct values sharing a key, such as {"a;q:b"} and
// {"a", "b"}, stay apart. The key only orders; it never decides identity.
func (v Value) compare(o Value) int {
	if c := strings.Compare(v.key(), o.key()); c != 0 {
		return c
	}
	if c := int(v.v.Kind()) - int(o.v.Kind()); c != 0 {
		return c
	}
	switch v.v.Kind() {
	case val.Sym, val.Str:
		return strings.Compare(v.textOf(), o.textOf())
	case val.SetKind:
		a, b := v.members(), o.members()
		for i := range min(len(a), len(b)) {
			if c := a[i].compare(b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	}
	return val.Compare(v.v, o.v)
}

// textOf returns a symbol's or string's text, resolved or not.
func (v Value) textOf() string {
	if v.text != "" {
		return v.text
	}
	return v.v.Text()
}

// members returns a set's elements in canonical order, resolved or not.
func (v Value) members() []Value {
	if v.elems != nil {
		return v.canonicalElems()
	}
	elems := v.v.Set().Elems()
	out := make([]Value, len(elems))
	for i, e := range elems {
		out[i] = Value{v: e}
	}
	return out
}

// String renders the value in rule-language syntax ("_" for Any).
func (v Value) String() string {
	switch {
	case v.wild:
		return "_"
	case v.text != "" && v.v.Kind() == val.Str:
		return strconv.Quote(v.text)
	case v.text != "":
		return v.text
	case v.elems != nil:
		elems := v.canonicalElems()
		parts := make([]string, len(elems))
		for i, e := range elems {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return v.v.String()
}

// Float returns the numeric value of a Num (or NaN-free zero otherwise).
func (v Value) Float() (float64, bool) {
	if v.v.Kind() == val.Num {
		return v.v.Num(), true
	}
	return 0, false
}

// Truth returns the boolean value of a Bool.
func (v Value) Truth() (bool, bool) {
	if v.v.Kind() == val.Bool {
		return v.v.Bool(), true
	}
	return false, false
}

// Equal reports value equality (Any equals nothing, not even Any).
func (v Value) Equal(o Value) bool {
	if v.wild || o.wild {
		return false
	}
	if v.text == "" && v.elems == nil && o.text == "" && o.elems == nil {
		return val.Equal(v.v, o.v)
	}
	return v.compare(o) == 0
}

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
	prog    *Program // the computing program, whose fingerprint tags snapshots
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
	return &Model{db: db, schemas: p.en.Schemas, en: p.en, stats: stats, prog: p}
}

// solveConfig collects per-call options: the checkpoint sink, bound to
// the program fingerprint at solve time, and its round cadence. Limits
// come from the Options the program was loaded with.
type solveConfig struct {
	sink  CheckpointSink
	every int
}

// SolveOption tunes a single SolveContext or Resume call.
type SolveOption func(*solveConfig)

// Solve evaluates the program over the given extensional facts and
// returns its minimal model (Corollary 3.5).
func (p *Program) Solve(facts ...Fact) (*Model, Stats, error) {
	return p.SolveContext(context.Background(), facts)
}

// SolveContext is Solve with cooperative cancellation (the caller's
// ctx, on top of Options.MaxDuration) and per-call options. On
// cancellation, budget breach or detected divergence the error wraps
// the matching sentinel (ErrCanceled, ErrBudgetExceeded, ErrDiverged —
// test with errors.Is; extract the *EngineError with errors.As) and the
// returned model is non-nil, holding the partial interpretation
// computed so far. The facts are checked as Batch.Add checks them.
func (p *Program) SolveContext(ctx context.Context, facts []Fact, opts ...SolveOption) (*Model, Stats, error) {
	b := p.NewBatch()
	if err := b.Add(facts...); err != nil {
		return nil, Stats{}, err
	}
	return p.Resume(ctx, nil, b, opts...)
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
	b := p.NewBatch()
	if err := b.Add(facts...); err != nil {
		return nil, Stats{}, err
	}
	added, _ := b.take(p) // a fresh batch of p: take cannot fail
	db, stats, err := p.en.SolveMore(ctx, m.db, added, m.stats)
	return p.model(db, stats), stats, err
}

// Profile is the operator-level execution profile of the program's
// compiled rules: the operator trees annotated with the counters of one
// model's Stats.
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
// A name declared at two arities that take as many arguments (p/n, and
// the cost predicate p/n+1) holds the atom when either predicate does.
func (m *Model) Has(pred string, args ...Value) bool {
	_, ok := m.lookup(pred, args, false)
	return ok
}

// Cost returns the cost value of the tuple identified by the non-cost
// arguments of a cost predicate.
func (m *Model) Cost(pred string, args ...Value) (Value, bool) {
	row, ok := m.lookup(pred, args, true)
	if !ok {
		return Value{}, false
	}
	return Value{v: row.Cost}, true
}

// lookup finds the model's tuple of a predicate named pred with the
// non-cost arguments args (see relation.DB.TupleKeys) — of the cost
// predicate alone when cost is set — a default predicate's virtual rows
// included.
func (m *Model) lookup(pred string, args []Value, cost bool) (relation.Row, bool) {
	raw, ok := resolveAll(args)
	if !ok {
		return relation.Row{}, false
	}
	ks, n := m.db.TupleKeys(pred, len(args))
	for _, k := range ks[:n] {
		if cost && !m.db.Schemas.Info(k).HasCost {
			continue
		}
		if row, ok := m.db.Rel(k).GetOrDefault(raw); ok {
			return row, true
		}
	}
	return relation.Row{}, false
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
	raw, ok := resolveAll(args)
	if !ok {
		return "", nil, false
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
	raw, ok := resolveAll(args)
	if !ok {
		// A constant never interned is in no model: the tuple is a leaf,
		// rendered as Tree renders one.
		atom := pred
		if len(args) > 0 {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.String()
			}
			atom += "(" + strings.Join(parts, ", ") + ")"
		}
		return atom + "  [fact]\n"
	}
	return m.provenance().Tree(pred, raw, depth)
}
