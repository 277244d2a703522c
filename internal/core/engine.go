package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/consistency"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/monotone"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/safety"
	"repro/internal/val"
)

// Strategy selects the fixpoint algorithm of §6.2.
type Strategy int

// SemiNaive accumulates the interpretation and refires only rule
// instances touching changed CDB atoms; Naive recomputes T_P from scratch
// each round (the literal Definition 3.7 iteration).
const (
	SemiNaive Strategy = iota
	Naive
)

// Options configures an Engine.
type Options struct {
	Strategy Strategy
	// MaxRounds bounds the fixpoint iteration per component; 0 means the
	// default (1 << 20). Programs whose least fixpoint lies at ω
	// (Example 5.1) exhaust any bound unless Epsilon is set.
	MaxRounds int
	// Epsilon treats numeric cost improvements smaller than it as
	// convergence — the practical device for ω-limit programs (§6.2).
	Epsilon float64
	// SkipChecks disables the static analyses (safety, conflict-freedom,
	// admissibility). Experiments on deliberately non-monotonic programs
	// (e.g. the two-minimal-model example of §3) use this.
	SkipChecks bool
	// StrictConflicts uses InsertStrict during each T_P application,
	// surfacing runtime cost-consistency violations (only meaningful with
	// Strategy == Naive, where each application is computed fresh).
	StrictConflicts bool
	// WFSFallback enables the full iterated construction of §6.3: a
	// component that is not admissible (e.g. it recurses through
	// negation) is evaluated under the Kemp–Stuckey well-founded
	// semantics instead; its well-founded model must be two-valued, and
	// becomes the base interpretation for the components above it.
	WFSFallback bool
	// Sink, when non-nil, receives the typed event stream of every
	// solve (see package obs). The engine emits behind a nil check, so
	// leaving it nil keeps the evaluation path at full speed.
	Sink obs.Sink
	// Limits bounds every Solve: derivation budget, wall-clock
	// deadline, cancellation-poll granularity and the ω-limit
	// divergence threshold. SolveLimits can override them per call.
	Limits
}

// Engine evaluates a program bottom-up, one component at a time (§6.3).
type Engine struct {
	Prog    *ast.Program
	Schemas ast.Schemas
	// Report is the static classification (set even when checks pass).
	Report monotone.Report
	opts   Options
	// base is the program's own EDB: its pure-EDB ground facts, validated
	// and stored once at New (loadBase). Every solve joins it into its
	// starting interpretation; it is never written after New.
	base  *relation.DB
	comps []*deps.Component
	// compRules and plans hold, per component, its rules (pure-EDB facts
	// excluded) and their compiled plans.
	compRules [][]*ast.Rule
	plans     [][]*plan
	// compAdm holds the per-component admissibility verdict; wfsComp
	// marks components evaluated by the well-founded fallback (§6.3).
	compAdm []error
	wfsComp []bool
	// compPreds renders each component's predicate list once at compile
	// time, so events and stats never format in the fixpoint loops.
	compPreds []string
	// nrules is the number of compiled plans across all components;
	// plans carry engine-global indices into Stats.Rules. nops counts
	// their steps (the per-operator counters of Stats.Rules). nEvaluable
	// is the number of components with something to evaluate.
	nrules     int
	nops       int
	nEvaluable int
	// compDeps and compLDB drive the component walk: per component,
	// the (sorted) indices of the lower components it depends on, and
	// the (sorted) lower-defined predicates its rules read.
	compDeps [][]int
	compLDB  [][]ast.PredKey
	// compRecursive marks the components where some rule scans or
	// aggregates one of the component's own predicates; the others are
	// done after one round (semiNaiveLoop).
	compRecursive []bool
	// sink is Options.Sink (nil = no event emission).
	sink obs.Sink
	// insertBlocked maps each predicate SolveMore must not add facts for
	// to the reason (see noteInsertMonotone).
	insertBlocked map[ast.PredKey]string
}

// loadBase validates the program's pure-EDB facts and stores them as the
// engine's base EDB. A fact is data, so what can be wrong with it is
// what can be wrong with data: a cost outside the predicate's lattice,
// or two costs for one tuple (the cost functional dependency of §2.3.1;
// joined instead of refused under SkipChecks, as conflicting rule
// derivations are).
func (en *Engine) loadBase(sp ast.FactSplit) error {
	en.base = relation.NewDB(en.Schemas)
	for i, k := range sp.FactPreds {
		en.base.Rel(k).Reserve(sp.FactCounts[i])
	}
	facts := sp.Facts
	var (
		memo ast.KeyMemo
		key  ast.PredKey
		rel  *relation.Relation
		args []val.T
	)
	for i, r := range facts {
		if k := memo.Of(&r.Head); k != key {
			key, rel = k, en.base.Rel(k)
		}
		var cost lattice.Elem
		var err error
		if args, cost, err = ast.FactValue(args[:0], &r.Head, rel.Info); err != nil {
			return err
		}
		if !en.opts.SkipChecks && rel.Info.HasCost {
			if old, dup := rel.Get(args); dup && !lattice.Eq(rel.Info.L, old.Cost, cost) {
				return consistency.FactConflict(firstFactOf(facts[:i], r), r)
			}
		}
		rel.InsertJoin(args, cost)
	}
	return nil
}

// firstFactOf finds, among earlier, the first fact for the same tuple as
// r (same predicate and non-cost arguments) — the other half of a
// conflict report.
func firstFactOf(earlier []*ast.Rule, r *ast.Rule) *ast.Rule {
	n := len(r.Head.Args) - 1
	for _, e := range earlier {
		if e.Head.Pred != r.Head.Pred || len(e.Head.Args) != n+1 {
			continue
		}
		same := true
		for j := 0; j < n && same; j++ {
			same = val.Equal(e.Head.Args[j].(ast.Const).V, r.Head.Args[j].(ast.Const).V)
		}
		if same {
			return e
		}
	}
	return r
}

// New compiles and (unless opts.SkipChecks) statically validates a
// program: range restriction (Definition 2.5), conflict-freedom
// (Definition 2.10) and componentwise admissibility (Definition 4.5).
//
// The program's pure-EDB ground facts are data, not rules: they are the
// fixed input I of T_P(J, I) (§3, §6.3). New splits them off in one pass
// (ast.Program.SplitFacts), validates them as data — ground, cost in its
// lattice, one cost per tuple — and loads them into the engine's base
// EDB, which every solve starts from; the analyses, the compiler and
// Stats.Rules see the remaining rules only, so New's cost is a function
// of the rules, not of the number of facts.
func New(prog *ast.Program, opts Options) (*Engine, error) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1 << 20
	}
	schemas, err := ast.BuildSchemas(prog)
	if err != nil {
		return nil, err
	}
	sp := prog.SplitFacts()
	rp := *prog // the program as the analyses see it: same declarations, rules only
	rp.Rules = sp.Rules
	if err := ast.ValidateProgram(&rp, schemas); err != nil {
		return nil, err
	}
	// The sink is mutex-wrapped once at construction: scheduled solves
	// emit from several goroutines, and the wrapper keeps plain sinks
	// correct there at the cost of one uncontended lock per event.
	en := &Engine{Prog: prog, Schemas: schemas, opts: opts, sink: obs.Locked(opts.Sink)}
	if err := en.loadBase(sp); err != nil {
		return nil, err
	}
	if !opts.SkipChecks {
		if err := safety.CheckProgram(&rp, schemas); err != nil {
			return nil, err
		}
		if err := consistency.ConflictFree(&rp, schemas); err != nil {
			return nil, err
		}
	}
	// The dependency graph is the full program's: a pure-EDB predicate is
	// a component of its own, with no rules to run.
	g := deps.Build(prog)
	en.noteInsertMonotone(sp.Rules, g)
	en.comps = g.SCCs()
	en.compRules = deps.RulesByComponent(sp.Rules, en.comps)
	en.Report, en.compAdm = monotone.Classify(en.comps, sp.Rules, schemas)
	for ci, c := range en.comps {
		parts := make([]string, len(c.Preds))
		for i, k := range c.Preds {
			parts[i] = string(k)
		}
		en.compPreds = append(en.compPreds, strings.Join(parts, ","))
		rules := en.compRules[ci]
		cdb, ldb := deps.SplitRules(c, rules)
		lk := make([]ast.PredKey, 0, len(ldb))
		for k := range ldb {
			lk = append(lk, k)
		}
		sort.Slice(lk, func(i, j int) bool { return lk[i] < lk[j] })
		en.compLDB = append(en.compLDB, lk)
		admErr := en.compAdm[ci]
		useWFS := admErr != nil && opts.WFSFallback
		en.wfsComp = append(en.wfsComp, useWFS)
		if admErr != nil && !useWFS && !opts.SkipChecks {
			return nil, fmt.Errorf("core: program is not admissible (its least fixpoint may not exist): %w", admErr)
		}
		if useWFS {
			en.plans = append(en.plans, nil)
			en.compRecursive = append(en.compRecursive, false)
			continue
		}
		comp := &compiler{schemas: schemas, cdb: cdb}
		var ps []*plan
		recursive := false
		for _, r := range rules {
			p, err := comp.compileRule(r)
			if err != nil {
				return nil, err
			}
			// Engine-global rule index and cached text and operator
			// labels: the hot loops attribute per-rule stats and emit
			// events, and profiles render, without formatting the rule.
			p.idx = en.nrules
			p.text = r.String()
			p.ops = describeOps(p)
			p.work.Ops = make([]exec.OpCounts, len(p.steps))
			en.nrules++
			en.nops += len(p.steps)
			ps = append(ps, p)
			recursive = recursive || len(p.cdbScanSteps) > 0 || p.hasCDBAgg
		}
		en.plans = append(en.plans, ps)
		en.compRecursive = append(en.compRecursive, recursive)
	}
	for ci := range en.comps {
		if en.evaluable(ci) {
			en.nEvaluable++
		}
	}
	// Component dependency edges (for the component walk): ci
	// depends on every distinct lower component defining a predicate
	// its predicates reach. SCCs returns bottom-up order, so every
	// dependency has a smaller index and the DAG is acyclic by
	// construction.
	cidx := deps.ComponentIndex(en.comps)
	en.compDeps = make([][]int, len(en.comps))
	for ci, c := range en.comps {
		seen := map[int]bool{}
		for _, p := range c.Preds {
			for q := range g.Edges[p] {
				if qi, ok := cidx[q]; ok && qi != ci && !seen[qi] {
					seen[qi] = true
					en.compDeps[ci] = append(en.compDeps[ci], qi)
				}
			}
		}
		sort.Ints(en.compDeps[ci])
	}
	return en, nil
}

// Solve computes the iterated minimal model: the least fixpoint of T_P
// for each component in bottom-up order, starting from the EDB.
func (en *Engine) Solve(edb *relation.DB) (*relation.DB, Stats, error) {
	return en.SolveContext(context.Background(), edb)
}

// SolveContext is Solve with cooperative cancellation: the fixpoint
// loops poll ctx (and the Options limits) and stop with an *EngineError
// wrapping ErrCanceled, ErrBudgetExceeded or ErrDiverged. On any such
// failure the partial interpretation computed so far is returned
// alongside the error and the Stats, so no work is discarded.
func (en *Engine) SolveContext(ctx context.Context, edb *relation.DB) (*relation.DB, Stats, error) {
	return en.SolveLimits(ctx, edb, en.opts.Limits)
}

// SolveLimits is SolveContext with per-call limit overrides.
func (en *Engine) SolveLimits(ctx context.Context, edb *relation.DB, lim Limits) (*relation.DB, Stats, error) {
	return en.fixpoint(ctx, en.startFrom(edb), lim, Stats{})
}

// startFrom builds a solve's starting interpretation: the caller's rows
// (an EDB, or a checkpointed interpretation being resumed) joined with
// the engine's base EDB. Join re-homes the rows onto this engine's
// schemas, so a DB decoded with foreign schema objects cannot leak them
// into the evaluation.
func (en *Engine) startFrom(rows *relation.DB) *relation.DB {
	db := relation.NewDB(en.Schemas)
	if rows != nil {
		db.Join(rows)
	}
	db.Join(en.base)
	return db
}

// Resume continues a fixpoint from a previously checkpointed
// interpretation (see Limits.Checkpoint): the components are re-run
// bottom-up starting from prev instead of from the bare EDB. Because
// T_P is monotone, every checkpoint lies between the EDB and the least
// model, so the resumed fixpoint converges to exactly the model an
// uninterrupted solve would have produced. base seeds the returned
// Stats so rounds/firings/derivations stay cumulative across resumes
// (pass the stats recorded in the checkpoint).
//
// The caller is responsible for resuming against the same program the
// checkpoint came from; the snapshot layer's fingerprint enforces this
// for durable checkpoints.
func (en *Engine) Resume(ctx context.Context, prev *relation.DB, lim Limits, base Stats) (*relation.DB, Stats, error) {
	return en.fixpoint(ctx, en.startFrom(prev), lim, base)
}

// solve is the frame every solve entry point runs in: it folds
// MaxDuration into the context, seeds the stats from base, builds the
// guard and brackets body with the SolveBegin/SolveEnd events, which
// report the walk's worker count.
func (en *Engine) solve(ctx context.Context, lim Limits, base Stats, body func(g *guard) (*relation.DB, error)) (_ *relation.DB, _ Stats, err error) {
	if lim.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.MaxDuration)
		defer cancel()
	}
	stats := base.Clone()
	en.ensureStats(&stats)
	g := newGuard(ctx, lim, &stats)
	g.sink = en.sink
	if en.sink != nil {
		start, par := time.Now(), en.workers()
		en.sink.Event(obs.Event{Kind: obs.SolveBegin, Component: -1, Parallelism: par})
		defer func() {
			e := obs.Event{Kind: obs.SolveEnd, Component: -1, Round: stats.Rounds,
				Firings: stats.Firings, Derived: stats.Derived, Probes: stats.Probes,
				Nanos: time.Since(start).Nanoseconds(), Parallelism: par}
			if err != nil {
				e.Err = err.Error()
			}
			en.sink.Event(e)
		}()
	}
	db, err := body(g)
	return db, stats, err
}

// fixpoint runs the iterated fixpoint of §6.3 over db in place, starting
// the stats from base, through the component walk (parallel.go).
func (en *Engine) fixpoint(ctx context.Context, db *relation.DB, lim Limits, base Stats) (*relation.DB, Stats, error) {
	return en.solve(ctx, lim, base, func(g *guard) (*relation.DB, error) {
		// Checkpoint the starting interpretation before any evaluation,
		// so the sink holds a recoverable state even if the very first
		// round is interrupted.
		if err := g.checkpoint(db, true); err != nil {
			return db, err
		}
		return db, en.runScheduled(g, db, lim, nil)
	})
}

// evaluable reports whether component ci has anything to evaluate
// (EDB-only components carry no rules).
func (en *Engine) evaluable(ci int) bool {
	return en.wfsComp[ci] || len(en.plans[ci]) > 0
}

// solveComponent computes component ci's fixpoint over db (a walk
// worker's private view) in place. A nil seed evaluates it from scratch;
// otherwise the Δ-driven loop resumes from the seed (SolveMore), and
// record, when non-nil, collects every row the component changes.
func (en *Engine) solveComponent(g *guard, db *relation.DB, ci int, stats *Stats, seed, record *deltaSet) error {
	switch {
	case en.wfsComp[ci]:
		return en.solveWFSComponent(g, db, ci, stats)
	case seed == nil && en.opts.Strategy == Naive:
		return en.solveNaive(g, db, ci, stats)
	}
	return en.semiNaiveLoop(g, db, ci, stats, seed, record)
}

// runComponent wraps one component's evaluation in a recover boundary:
// an internal panic (an engine bug, or a pathological program tripping
// one) becomes an *EngineError wrapping ErrInternal with rule/round
// context instead of crashing the host process.
func (en *Engine) runComponent(g *guard, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e := g.fail(ErrInternal, fmt.Errorf("panic: %v", r))
			e.Stack = debug.Stack()
			err = e
		}
	}()
	return fn()
}

// headTupleInto projects the head instantiation of a completed
// environment into args (len(p.head.argVar) long).
func headTupleInto(p *plan, e *env, args []val.T) (_ []val.T, cost lattice.Elem, err error) {
	hs := &p.head
	for j, v := range hs.argVar {
		if v >= 0 {
			args[j] = e.vals[v]
		} else {
			args[j] = hs.argVal[j]
		}
	}
	if hs.pi.HasCost {
		if hs.costVar >= 0 {
			cost = e.vals[hs.costVar]
		} else {
			cost = hs.costVal
		}
		if !hs.pi.L.Contains(cost) {
			return nil, lattice.Elem{}, fmt.Errorf("core: rule %q derived cost %s outside lattice %s",
				p.rule, cost, hs.pi.L.Name())
		}
	}
	return args, cost, nil
}

// headTuple is headTupleInto with freshly allocated args, for callers
// that retain them.
func headTuple(p *plan, e *env) ([]val.T, lattice.Elem, error) {
	return headTupleInto(p, e, make([]val.T, len(p.head.argVar)))
}

// passConfig is the part of a pass's configuration every pass of one
// component loop shares; the loops copy it and set the Δ restriction.
func (en *Engine) passConfig(g *guard, db *relation.DB) exec.Config {
	return exec.Config{DB: db, Check: g.check}
}

// runPass evaluates one pass of one of p's pipelines under cfg — every
// satisfying assignment of the body, or the Δ-restricted subset cfg
// selects — handing each completed environment to emit. It adds the
// pass's firings and probes to stats and its per-operator counters to
// p.work.Ops, keyed by canonical step position so an operator keeps one
// set of counters whichever order ran it; the pass's probes are its
// operators' probes.
func (en *Engine) runPass(p *plan, pipe *pipeline, cfg exec.Config, stats *Stats, emit func(*plan, *env) error) error {
	m := pipe.stream.Acquire(cfg)
	aux := m.Aux.(*streamAux)
	err := m.Run(func(*exec.Machine) error { return emit(p, aux.env) })
	stats.Firings += m.Firings
	for i, c := range pipe.canon {
		n := m.Counts(i)
		stats.Probes += n.Probes
		p.work.Ops[c].Add(n)
	}
	pipe.stream.Release(m)
	return err
}

// solveNaive iterates J ← T_P(J, I) until lattice equality (within
// Epsilon) over the component's predicates.
func (en *Engine) solveNaive(g *guard, db *relation.DB, ci int, stats *Stats) error {
	c, ps := en.comps[ci], en.plans[ci]
	// EDB rows supplied for component predicates behave as part of I and
	// must survive the per-round relation replacement.
	seed := map[ast.PredKey]*relation.Relation{}
	for _, k := range c.Preds {
		if db.Has(k) && db.Rel(k).Len() > 0 {
			seed[k] = db.Rel(k).Clone()
		}
	}
	var out *relation.DB
	insert := func(p *plan, e *env) error {
		args, cost, err := headTuple(p, e)
		if err != nil {
			return err
		}
		rel := out.Rel(p.head.pred)
		if en.opts.StrictConflicts {
			return rel.InsertStrict(args, cost)
		}
		if rel.InsertJoin(args, cost) {
			stats.Derived++
			// Improvement relative to the previous round's
			// interpretation (a plain re-derivation of a known tuple is
			// budget work but not progress).
			cur, _ := rel.Get(args)
			old, had := db.Rel(p.head.pred).Get(args)
			improved := !had || (rel.Info.HasCost && !lattice.Eq(rel.Info.L, old.Cost, cur.Cost))
			if err := g.derived(p.head.pred, args, cur.Cost, rel.Info.HasCost, improved); err != nil {
				return err
			}
		}
		return nil
	}
	cfg := en.passConfig(g, db)
	for round := 0; ; round++ {
		if round >= en.opts.MaxRounds {
			return g.maxRounds(en.opts.MaxRounds)
		}
		if err := g.poll(); err != nil {
			return err
		}
		stats.Rounds++
		roundF, roundD, roundP := stats.Firings, stats.Derived, stats.Probes
		out = relation.NewDB(db.Schemas)
		for _, p := range ps {
			g.rule = p.rule
			f0, d0, p0 := stats.Firings, stats.Derived, stats.Probes
			t0 := time.Now()
			err := en.runPass(p, &p.pipe, cfg, stats, insert)
			en.noteRule(&p.work, ci, round,
				stats.Firings-f0, stats.Derived-d0, stats.Probes-p0, time.Since(t0).Nanoseconds())
			if err != nil {
				return err
			}
		}
		if en.sink != nil {
			en.sink.Event(obs.Event{Kind: obs.RoundEnd, Component: ci, Round: round,
				Firings: stats.Firings - roundF, Derived: stats.Derived - roundD, Probes: stats.Probes - roundP})
		}
		for k, r := range seed {
			out.Rel(k).Join(r)
		}
		// Compare the new component relations against the current ones.
		same := true
		for _, k := range c.Preds {
			if !relEqualEps(out.Rel(k), db.Rel(k), en.opts.Epsilon) {
				same = false
				break
			}
		}
		for _, k := range c.Preds {
			db.SetRel(k, out.Rel(k))
		}
		if same {
			return nil
		}
		// db holds the completed round's interpretation: a consistent
		// checkpoint boundary.
		if err := g.roundBoundary(db); err != nil {
			return err
		}
	}
}

// deltaSet records the rows a round (or a component) changed: per
// predicate, the ids of the changed rows of its relation in the order
// they first changed, deduplicated by a bitset over row ids. Row ids stay
// valid as the relation grows and always read the row's current cost, so
// a Δ set holds no row copies and no keys.
type deltaSet struct {
	preds map[ast.PredKey]*predDelta
	// free holds the per-predicate storage reset recycled, handed back
	// out as the same predicate reappears in later rounds (keyed by
	// predicate so the largest predicate keeps its large slices).
	free map[ast.PredKey]*predDelta
	// lastK/last cache the most recent add's predicate: a rule's
	// derivations all land in its head predicate.
	lastK ast.PredKey
	last  *predDelta
}

// predDelta is one predicate's changed row ids and their membership
// bitset.
type predDelta struct {
	ids  []int32
	seen []uint64
}

func newDeltaSet() *deltaSet {
	return &deltaSet{preds: map[ast.PredKey]*predDelta{}}
}

// ids returns the changed row ids of predicate k (nil when none).
func (d *deltaSet) ids(k ast.PredKey) []int32 {
	if pd := d.preds[k]; pd != nil {
		return pd.ids
	}
	return nil
}

// add records row id of predicate k's relation unless d already holds it.
func (d *deltaSet) add(k ast.PredKey, id int) {
	pd := d.last
	if pd == nil || k != d.lastK {
		if pd = d.preds[k]; pd == nil {
			if pd = d.free[k]; pd != nil {
				delete(d.free, k)
			} else {
				pd = &predDelta{}
			}
			d.preds[k] = pd
		}
		d.lastK, d.last = k, pd
	}
	w, bit := id>>6, uint64(1)<<(id&63)
	if w >= len(pd.seen) {
		pd.seen = append(pd.seen, make([]uint64, max(w+1, 2*len(pd.seen))-len(pd.seen))...)
	}
	if pd.seen[w]&bit != 0 {
		return
	}
	pd.seen[w] |= bit
	pd.ids = append(pd.ids, int32(id))
}

// reset clears d for reuse by a later round while retaining allocated
// capacity on the free list; clearing a bitset touches only the words
// its ids set, so a reset costs O(Δ). Only a set no evaluator still
// references may be reset — i.e. the previous round's Δ after its round
// completed.
func (d *deltaSet) reset() {
	if d.free == nil {
		d.free = map[ast.PredKey]*predDelta{}
	}
	for k, pd := range d.preds {
		for _, id := range pd.ids {
			pd.seen[id>>6] = 0
		}
		pd.ids = pd.ids[:0]
		d.free[k] = pd
		delete(d.preds, k)
	}
	d.last = nil
}

func (d *deltaSet) empty() bool { return len(d.preds) == 0 }

// predKeys returns the changed predicates in deterministic order.
func (d *deltaSet) predKeys() []ast.PredKey {
	out := make([]ast.PredKey, 0, len(d.preds))
	for k := range d.preds {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// semiNaiveLoop runs the Δ-driven fixpoint of component ci: the
// interpretation accumulates in db and a round refires only rules whose
// inputs changed — rules with positive scans of a changed predicate run
// once per changed-scan seed, each on that scan's Δ-driver order when it
// has one (plan.deltaPipe); rules referencing a changed predicate inside
// an aggregate re-run (group-restricted where possible).
//
// When init is nil, round 0 fires every rule (the fresh-solve case);
// otherwise init seeds the Δ set (the incremental SolveMore case, where
// init holds newly added EDB rows and derivations recorded by lower
// components). record, when non-nil, collects every derived change (the
// walk's seeds for the components above).
//
// A non-recursive component — no rule scans or aggregates one of its
// own predicates — is done after its first round: nothing it derives
// can fire its rules again, so it keeps no Δ set and its loop ends
// there, one round per evaluation.
func (en *Engine) semiNaiveLoop(g *guard, db *relation.DB, ci int, stats *Stats, init, record *deltaSet) error {
	ps, recursive := en.plans[ci], en.compRecursive[ci]
	delta := newDeltaSet()
	// insert derives through the plan's head buffer (hbuf). Everything
	// retained beyond this call — Δ and record entries — is the stored
	// row's id, and the relation copied the arguments into its arena on
	// first insert.
	insert := func(p *plan, e *env) error {
		args, cost, err := headTupleInto(p, e, p.hbuf)
		if err != nil {
			return err
		}
		rel := db.Rel(p.head.pred)
		if id, changed := insertEps(rel, args, cost, en.opts.Epsilon); changed {
			stats.Derived++
			row := rel.At(id)
			if recursive {
				delta.add(p.head.pred, id)
			}
			if record != nil {
				record.add(p.head.pred, id)
			}
			if err := g.derived(p.head.pred, row.Args, row.Cost, rel.Info.HasCost, true); err != nil {
				return err
			}
		}
		return nil
	}
	cfg := en.passConfig(g, db)
	// endRound closes one round: the RoundEnd event and the
	// round-boundary hook (fault point and periodic checkpoint).
	endRound := func(round int, f0, d0, p0 int64) error {
		if en.sink != nil {
			en.sink.Event(obs.Event{Kind: obs.RoundEnd, Component: ci, Round: round,
				Firings: stats.Firings - f0, Derived: stats.Derived - d0, Probes: stats.Probes - p0})
		}
		return g.roundBoundary(db)
	}

	if init == nil {
		// Round 0: fire everything.
		if err := g.poll(); err != nil {
			return err
		}
		stats.Rounds++
		roundF, roundD, roundP := stats.Firings, stats.Derived, stats.Probes
		for _, p := range ps {
			g.rule = p.rule
			f0, d0, p0 := stats.Firings, stats.Derived, stats.Probes
			t0 := time.Now()
			err := en.runPass(p, &p.pipe, cfg, stats, insert)
			en.noteRule(&p.work, ci, 0,
				stats.Firings-f0, stats.Derived-d0, stats.Probes-p0, time.Since(t0).Nanoseconds())
			if err != nil {
				return err
			}
		}
		if err := endRound(0, roundF, roundD, roundP); err != nil {
			return err
		}
	} else {
		delta = init
	}

	// Rounds ping-pong between two Δ sets: the previous round's set is
	// reset (retaining capacity) and becomes the next round's, so the
	// fixpoint stops regrowing Δ storage every round. The caller-owned
	// init set is never recycled.
	var spare *deltaSet
	for round := 1; !delta.empty(); round++ {
		if round >= en.opts.MaxRounds {
			return g.maxRounds(en.opts.MaxRounds)
		}
		if err := g.poll(); err != nil {
			return err
		}
		stats.Rounds++
		roundF, roundD, roundP := stats.Firings, stats.Derived, stats.Probes
		prev := delta
		if spare != nil {
			delta, spare = spare, nil
		} else {
			delta = newDeltaSet()
		}
		changedPreds := prev.predKeys()
		for _, p := range ps {
			g.rule = p.rule
			// Decide up front which passes this rule needs so a rule
			// untouched by the Δ set costs nothing (not even a clock
			// read).
			runAgg := aggPredChanged(p, prev)
			hasScan := false
			for _, k := range changedPreds {
				if len(p.scanSteps[k]) > 0 {
					hasScan = true
					break
				}
			}
			if !runAgg && !hasScan {
				continue
			}
			f0, d0, p0 := stats.Firings, stats.Derived, stats.Probes
			t0 := time.Now()
			var perr error
			ranFull := false
			if runAgg {
				// Aggregate-driven re-run when an aggregated predicate
				// changed: restricted to the changed groups when every
				// grouping variable can be recovered from the changed
				// rows, otherwise a full re-run (which then also covers
				// the scan deltas below).
				groups, restricted := changedGroups(p.steps, prev, db)
				pass := cfg
				pass.AggGroups = groups
				perr = en.runPass(p, &p.pipe, pass, stats, insert)
				ranFull = !restricted
			}
			if perr == nil && !ranFull && hasScan {
				// Scan-driven delta runs: one pass per changed scanned
				// predicate (CDB during a fresh solve; possibly EDB when
				// seeded incrementally).
			scans:
				for _, k := range changedPreds {
					pass := cfg
					pass.RestrictIDs = prev.ids(k)
					for _, si := range p.scanSteps[k] {
						pipe, at := p.deltaPipe(si)
						pass.RestrictStep = at
						if perr = en.runPass(p, pipe, pass, stats, insert); perr != nil {
							break scans
						}
					}
				}
			}
			en.noteRule(&p.work, ci, round,
				stats.Firings-f0, stats.Derived-d0, stats.Probes-p0, time.Since(t0).Nanoseconds())
			if perr != nil {
				return perr
			}
		}
		if err := endRound(round, roundF, roundD, roundP); err != nil {
			return err
		}
		if prev != init {
			prev.reset()
			spare = prev
		}
	}
	return nil
}

// changedGroups computes, per aggregate step of the given step
// arrangement, the groups whose multisets may have changed given the Δ
// set (row ids into db's relations). restricted is false when some
// changed conjunct cannot be projected onto the full group key (the
// caller then treats the run as unrestricted). The returned map is keyed
// by step position in the arrangement passed in, matching
// exec.Config.AggGroups' keying.
func changedGroups(steps []step, d *deltaSet, db *relation.DB) (map[int]map[string]exec.GroupRef, bool) {
	out := map[int]map[string]exec.GroupRef{}
	// Group keys are strings — their sorted order fixes the γ step's
	// emission order — built into a per-call scratch buffer; the group
	// values are references into the Δ rows' arena-owned argument tuples
	// (exec.GroupRef), so the only per-group allocation is the interned
	// map key for new entries. Anything else here runs once per Δ row per
	// round and shows up directly in allocs/op.
	var kbuf []byte
	for si, s := range steps {
		ag, ok := s.(*aggStep)
		if !ok {
			continue
		}
		touched := false
		keys := ag.groupScratch
		if keys == nil {
			keys = map[string]exec.GroupRef{}
			ag.groupScratch = keys
		} else {
			clear(keys)
		}
		for ci, sp := range ag.conj {
			ids := d.ids(sp.pred)
			if len(ids) == 0 {
				continue
			}
			pos := ag.groupKeyPos[ci]
			if pos == nil {
				return nil, false
			}
			touched = true
			rel := db.Rel(sp.pred)
			for _, id := range ids {
				row := rel.At(int(id))
				kbuf = kbuf[:0]
				for j, pidx := range pos {
					if j > 0 {
						kbuf = append(kbuf, 0)
					}
					kbuf = val.AppendKey(kbuf, row.Args[pidx])
				}
				if _, dup := keys[string(kbuf)]; dup {
					continue
				}
				ik, ok := ag.groupKeys[string(kbuf)]
				if !ok {
					ik = string(kbuf)
					if ag.groupKeys == nil {
						ag.groupKeys = map[string]string{}
					}
					ag.groupKeys[ik] = ik
				}
				keys[ik] = exec.GroupRef{Args: row.Args, Pos: pos}
			}
		}
		if touched {
			out[si] = keys
		}
	}
	return out, true
}

func aggPredChanged(p *plan, d *deltaSet) bool {
	for _, s := range p.steps {
		ag, ok := s.(*aggStep)
		if !ok {
			continue
		}
		for _, sp := range ag.conj {
			if len(d.ids(sp.pred)) > 0 {
				return true
			}
		}
	}
	return false
}

// insertEps is Relation.Upsert with numeric convergence tolerance: an
// improvement smaller than eps does not count as a change.
func insertEps(rel *relation.Relation, args []val.T, cost lattice.Elem, eps float64) (int, bool) {
	if eps > 0 {
		if old, ok := rel.Get(args); ok && old.HasCost && old.Cost.Kind == val.Num && cost.Kind == val.Num {
			j := rel.Info.L.Join(old.Cost, cost)
			if math.Abs(j.N-old.Cost.N) <= eps {
				return -1, false
			}
		}
	}
	return rel.Upsert(args, cost)
}

// EqualEps compares two interpretations with numeric tolerance eps on
// cost values (useful when comparing results of evaluation strategies
// whose float rounding may differ by an ulp).
func EqualEps(a, b *relation.DB, eps float64) bool {
	seen := map[ast.PredKey]bool{}
	for _, k := range append(a.Preds(), b.Preds()...) {
		if seen[k] {
			continue
		}
		seen[k] = true
		if !relEqualEps(a.Rel(k), b.Rel(k), eps) {
			return false
		}
	}
	return true
}

// relEqualEps compares two relations with numeric tolerance.
func relEqualEps(a, b *relation.Relation, eps float64) bool {
	return relLeqEps(a, b, eps) && relLeqEps(b, a, eps)
}

func relLeqEps(a, b *relation.Relation, eps float64) bool {
	ok := true
	a.Each(func(row relation.Row) bool {
		o, found := b.GetOrDefault(row.Args)
		if !found {
			ok = false
			return false
		}
		if !row.HasCost {
			return true
		}
		if a.Info.L.Leq(row.Cost, o.Cost) {
			return true
		}
		if eps > 0 && row.Cost.Kind == val.Num && o.Cost.Kind == val.Num &&
			math.Abs(row.Cost.N-o.Cost.N) <= eps {
			return true
		}
		ok = false
		return false
	})
	return ok
}
