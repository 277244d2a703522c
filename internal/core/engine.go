package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// default (1 << 20), and New refuses a negative bound, under which
	// no recursive component could finish a round. Programs whose least
	// fixpoint lies at ω (Example 5.1) exhaust any bound unless Epsilon
	// is set.
	MaxRounds int
	// Epsilon treats numeric cost improvements smaller than it as
	// convergence — the practical device for ω-limit programs (§6.2).
	// It must be a finite number ≥ 0: New refuses NaN, infinite and
	// negative values, since an infinite tolerance stops every fixpoint
	// after its first change and returns a model that is not the least.
	Epsilon float64
	// SkipChecks disables the static analyses (safety, conflict-freedom,
	// admissibility). Experiments on deliberately non-monotonic programs
	// (e.g. the two-minimal-model example of §3) use this.
	SkipChecks bool
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
	// deadline, the ω-limit divergence threshold, and the checkpoint
	// sink with its period. Resume takes them per call.
	Limits
}

// Validate reports an option no engine can run with: an Epsilon that is
// not a finite number ≥ 0, or a negative MaxRounds. New calls it first.
func (o Options) Validate() error {
	if !(o.Epsilon >= 0) || math.IsInf(o.Epsilon, 1) {
		return fmt.Errorf("Options.Epsilon must be a finite number ≥ 0, got %v", o.Epsilon)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("Options.MaxRounds must be ≥ 0 (0 selects the default), got %d", o.MaxRounds)
	}
	return nil
}

// Engine evaluates a program bottom-up, one component at a time (§6.3).
type Engine struct {
	Prog    *ast.Program
	Schemas ast.Schemas
	opts    Options
	// rules are the program's rules (pure-EDB facts split off) in
	// program order; report is their place on the §5 ladder, placed on
	// the first Report.
	rules      []*ast.Rule
	reportOnce sync.Once
	report     monotone.Report
	// base is the program's own EDB: its pure-EDB ground facts, validated
	// and stored once at New (loadBase). Every solve joins it into its
	// starting interpretation; it is never written after New.
	base  *relation.DB
	comps []*deps.Component
	// compRules and plans hold, per component, its rules (pure-EDB facts
	// excluded) and their compiled plans.
	compRules [][]*ast.Rule
	plans     [][]*plan
	// compAdm holds the per-component admissibility verdict; wfsProgs
	// holds, for each component evaluated by the well-founded fallback
	// (§6.3), its rules compiled for the alternating fixpoint (nil for
	// the others).
	compAdm  []error
	wfsProgs []*WFSProgram
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
	// predNum numbers the program's predicates, component by
	// component, for the incremental walk's changed set, and compDelta
	// holds, per component, the numbering its own Δ sets use.
	predNum   map[ast.PredKey]int32
	compDelta []deltaIndex
	// opsOnce renders every plan's EXPLAIN labels (plan.ops) on the
	// first Profile.
	opsOnce sync.Once
	// compRecursive marks the components where some rule scans or
	// aggregates one of the component's own predicates; the others are
	// done after one round (semiNaiveLoop).
	compRecursive []bool
	// sink is Options.Sink (nil = no event emission).
	sink obs.Sink
	// insertBlocked maps each predicate SolveMore must not add facts for
	// to the reason (see noteInsertMonotone).
	insertBlocked map[ast.PredKey]insertBlock
	// bits recycles Δ membership bitsets across solves (deltaSet).
	bits bitsPool
}

// loadBase validates the program's pure-EDB fact rows and adopts them as
// the engine's base EDB. A fact is data, so what can be wrong with it is
// what can be wrong with data: a cost outside the predicate's lattice,
// or two costs for one tuple (the cost functional dependency of §2.3.1;
// joined instead of refused under SkipChecks, as conflicting rule
// derivations are). The error reported is the one of the earliest fact
// in source order, whichever buffer holds it.
func (en *Engine) loadBase(edb []*ast.FactRows) error {
	en.base = relation.NewDB(en.Schemas)
	var first error
	firstSeq := int32(math.MaxInt32)
	for _, f := range edb {
		rel := en.base.Rel(f.Key)
		rel.Reserve(f.Len())
		for i := 0; i < f.Len() && (first == nil || f.Tag(i).Seq < firstSeq); i++ {
			if err := en.loadRow(rel, f, i); err != nil {
				first, firstSeq = err, f.Tag(i).Seq
			}
		}
	}
	return first
}

// loadRow validates row i of f and joins it into rel.
func (en *Engine) loadRow(rel *relation.Relation, f *ast.FactRows, i int) error {
	args, cost, err := f.Value(i, rel.Info)
	if err != nil {
		return err
	}
	if en.opts.SkipChecks || !rel.Info.HasCost {
		rel.InsertJoin(args, cost)
	} else if !rel.InsertConsistent(args, cost) {
		return consistency.FactConflict(f.Rule(firstRowOf(f, i)), f.Rule(i))
	}
	return nil
}

// firstRowOf finds the first row of f before row i for the same tuple
// (same non-cost arguments) — the other half of a conflict report.
func firstRowOf(f *ast.FactRows, i int) int {
	n := f.Arity - 1
	row := f.Row(i)
	for j := 0; j < i; j++ {
		e, same := f.Row(j), true
		for k := 0; k < n && same; k++ {
			same = val.Equal(e[k], row[k])
		}
		if same {
			return j
		}
	}
	return i
}

// New compiles and (unless opts.SkipChecks) statically validates a
// program: range restriction (Definition 2.5), conflict-freedom
// (Definition 2.10) and componentwise admissibility (Definition 4.5).
//
// The program's ground facts are data, not rules: they are the fixed
// input I of T_P(J, I) (§3, §6.3), and the parser hands them over as row
// buffers. New adopts the buffers of predicates no rule heads
// (ast.Program.SplitFacts), validates them as data — cost in its
// lattice, one cost per tuple — and loads them into the engine's base
// EDB, which every solve starts from; the analyses, the compiler and
// Stats.Rules see the rules only, with the facts of rule-headed
// predicates among them in source order, so New's cost is a function of
// the rules, not of the number of facts.
func New(prog *ast.Program, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1 << 20
	}
	schemas, err := ast.BuildSchemas(prog)
	if err != nil {
		return nil, err
	}
	rules, edb := prog.SplitFacts()
	// The program as the analyses see it: same declarations, rules only.
	rp := &ast.Program{Rules: rules, Constraints: prog.Constraints, CostDecls: prog.CostDecls, DefaultDecl: prog.DefaultDecl}
	if err := ast.ValidateProgram(rp, schemas); err != nil {
		return nil, err
	}
	// The sink is mutex-wrapped once at construction: scheduled solves
	// emit from several goroutines, and the wrapper keeps plain sinks
	// correct there at the cost of one uncontended lock per event.
	en := &Engine{Prog: prog, Schemas: schemas, opts: opts, sink: obs.Locked(opts.Sink)}
	if err := en.loadBase(edb); err != nil {
		return nil, err
	}
	if !opts.SkipChecks {
		if err := safety.CheckProgram(rp, schemas); err != nil {
			return nil, err
		}
		if err := consistency.ConflictFree(rp, schemas); err != nil {
			return nil, err
		}
	}
	// The dependency graph is the full program's: a pure-EDB predicate is
	// a component of its own, with no rules to run.
	g := deps.Build(prog)
	en.noteInsertMonotone(rules, g)
	en.comps = g.SCCs()
	en.rules = rules
	// Every predicate of the program gets a number, component by
	// component, which indexes the incremental walk's changed set;
	// compOf[n] is predicate n's component.
	en.predNum = map[ast.PredKey]int32{}
	var compOf []int
	for ci, c := range en.comps {
		for _, k := range c.Preds {
			en.predNum[k] = int32(len(compOf))
			compOf = append(compOf, ci)
		}
	}
	en.compRules = make([][]*ast.Rule, len(en.comps))
	for _, r := range rules {
		ci := compOf[en.predNum[r.Head.Key()]]
		en.compRules[ci] = append(en.compRules[ci], r)
	}
	nc := len(en.comps)
	en.compAdm = make([]error, nc)
	en.compPreds, en.compLDB, en.wfsProgs = make([]string, 0, nc), make([][]ast.PredKey, 0, nc), make([]*WFSProgram, nc)
	en.plans, en.compRecursive, en.compDelta = make([][]*plan, 0, nc), make([]bool, 0, nc), make([]deltaIndex, 0, nc)
	for ci, c := range en.comps {
		en.compPreds = append(en.compPreds, joinPreds(c.Preds))
		rules := en.compRules[ci]
		if len(rules) == 0 {
			// A pure-EDB predicate: nothing to check or compile.
			en.compLDB = append(en.compLDB, nil)
			en.plans = append(en.plans, nil)
			en.compRecursive = append(en.compRecursive, false)
			en.compDelta = append(en.compDelta, deltaIndex{})
			continue
		}
		cdb, ldb := deps.SplitRules(c, rules)
		lk := make([]ast.PredKey, 0, len(ldb))
		for k := range ldb {
			lk = append(lk, k)
		}
		slices.Sort(lk)
		en.compLDB = append(en.compLDB, lk)
		admErr := monotone.Admissible(rules, schemas, cdb)
		en.compAdm[ci] = admErr
		useWFS := admErr != nil && opts.WFSFallback
		if admErr != nil && !useWFS && !opts.SkipChecks {
			return nil, fmt.Errorf("core: program is not admissible (its least fixpoint may not exist): %w", admErr)
		}
		if useWFS {
			if en.wfsProgs[ci], err = compileWFS(rules, nil, WFSOptions{}); err != nil {
				return nil, err
			}
			en.plans = append(en.plans, nil)
			en.compRecursive = append(en.compRecursive, false)
			en.compDelta = append(en.compDelta, deltaIndex{})
			continue
		}
		di := newDeltaIndex(c.Preds, lk)
		for n, k := range di.keys {
			di.global[n] = en.predNum[k]
		}
		en.compDelta = append(en.compDelta, di)
		comp := &compiler{schemas: schemas, cdb: cdb, preds: di.keys}
		var ps []*plan
		recursive := false
		for _, r := range rules {
			p, err := comp.compileRule(r)
			if err != nil {
				return nil, err
			}
			// Engine-global rule index and cached text: the hot loops
			// attribute per-rule stats and emit events without
			// formatting the rule. Its EXPLAIN labels wait for the
			// first Profile.
			p.idx = en.nrules
			p.pos = len(ps)
			p.text = r.String()
			p.work.Ops = make([]exec.OpCounts, len(p.steps))
			en.nrules++
			en.nops += len(p.steps)
			ps = append(ps, p)
			recursive = recursive || p.hasCDBAgg
			for n, scans := range p.scansOf {
				recursive = recursive || len(scans) > 0 && !di.ldb[n]
			}
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
	en.compDeps = make([][]int, len(en.comps))
	for ci, c := range en.comps {
		seen := map[int]bool{}
		for _, p := range c.Preds {
			for q := range g.Edges[p] {
				if qi := compOf[en.predNum[q]]; qi != ci && !seen[qi] {
					seen[qi] = true
					en.compDeps[ci] = append(en.compDeps[ci], qi)
				}
			}
		}
		sort.Ints(en.compDeps[ci])
	}
	return en, nil
}

// joinPreds renders a component's predicate list for events and stats.
func joinPreds(preds []ast.PredKey) string {
	if len(preds) == 1 {
		return string(preds[0])
	}
	var b strings.Builder
	for i, k := range preds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(k))
	}
	return b.String()
}

// Report returns the program's static classification on the §5 ladder
// (set even when the checks pass). Admissibility is decided at New,
// component by component; the rest of the ladder is placed on the first
// call.
func (en *Engine) Report() monotone.Report {
	en.reportOnce.Do(func() {
		en.report = monotone.Ladder(en.comps, en.rules, en.Schemas, en.compAdm)
	})
	return en.report
}

// Solve computes the iterated minimal model: the least fixpoint of T_P
// for each component in bottom-up order, starting from the EDB.
func (en *Engine) Solve(edb *relation.DB) (*relation.DB, Stats, error) {
	return en.Resume(context.Background(), nil, edb, en.opts.Limits, Stats{})
}

// Resume runs the iterated fixpoint from prev ∪ added ∪ the base EDB:
// every component is re-run bottom-up from that start. A nil prev is a
// cold solve of the EDB added. A non-nil prev is an interpretation
// between an EDB and its least model — a checkpoint (see
// Limits.Checkpoint), an interrupted solve's partial model or a model —
// and added holds more EDB facts: because T_P is monotone, and an
// insert-monotone fact only raises the least model, the start lies
// between the grown EDB and its least model, so the fixpoint converges
// to exactly the model a one-shot solve of all the facts produces. The
// facts of added are refused as SolveMore refuses them when prev is
// non-nil. prev and added are not modified.
//
// ctx and lim stop the solve cooperatively: on a breach the error wraps
// ErrCanceled, ErrBudgetExceeded or ErrDiverged (an *EngineError), and
// the partial interpretation computed so far is returned with it and the
// Stats, so no work is discarded. base seeds the returned Stats so
// rounds/firings/derivations stay cumulative across resumes (pass the
// stats recorded in the checkpoint).
//
// The caller is responsible for resuming against the same program prev
// came from; the snapshot layer's fingerprint enforces this for durable
// checkpoints.
func (en *Engine) Resume(ctx context.Context, prev, added *relation.DB, lim Limits, base Stats) (*relation.DB, Stats, error) {
	if prev != nil && added != nil {
		if _, err := en.insertable(added); err != nil {
			return nil, Stats{}, err
		}
	}
	// Join re-homes the rows onto this engine's schemas, so a DB decoded
	// with foreign schema objects cannot leak them into the evaluation.
	db := relation.NewDB(en.Schemas)
	for _, rows := range [...]*relation.DB{prev, added, en.base} {
		if rows != nil {
			db.Join(rows)
		}
	}
	return en.fixpoint(ctx, db, lim, base)
}

// solve is the frame every solve entry point runs in: it folds
// MaxDuration into the context, seeds the stats from base (all but its
// RoundLog, which is per call), builds the guard, and writes the totals
// of the Stats it returns into the *EngineError it returns, so the two
// agree however the failure spread over components.
func (en *Engine) solve(ctx context.Context, lim Limits, base Stats, body func(g *guard) (*relation.DB, error)) (*relation.DB, Stats, error) {
	if lim.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.MaxDuration)
		defer cancel()
	}
	base.RoundLog = nil
	stats := base.Clone()
	en.ensureStats(&stats)
	g := newGuard(ctx, lim, &stats)
	g.start = time.Now()
	db, err := body(g)
	// Components merge their rounds as they complete, in an order that
	// varies with the worker count; a stable sort by component fixes it.
	slices.SortStableFunc(stats.RoundLog, func(a, b RoundStats) int { return a.Component - b.Component })
	if e, ok := err.(*EngineError); ok {
		e.Round, e.Firings, e.Derived = stats.Rounds, stats.Firings, stats.Derived
	}
	return db, stats, err
}

// fixpoint runs the iterated fixpoint of §6.3 over db in place, starting
// the stats from base, through the component walk (parallel.go).
func (en *Engine) fixpoint(ctx context.Context, db *relation.DB, lim Limits, base Stats) (*relation.DB, Stats, error) {
	return en.solve(ctx, lim, base, func(g *guard) (*relation.DB, error) {
		// Checkpoint the starting interpretation before any evaluation,
		// so the sink holds a recoverable state even if the very first
		// round is interrupted.
		if err := g.checkpoint(db); err != nil {
			return db, err
		}
		return db, en.runScheduled(g, db, lim, nil)
	})
}

// evaluable reports whether component ci has anything to evaluate
// (EDB-only components carry no rules).
func (en *Engine) evaluable(ci int) bool {
	return en.wfsProgs[ci] != nil || len(en.plans[ci]) > 0
}

// solveComponent computes component ci's fixpoint over db (a walk
// worker's private view) in place. A nil seed evaluates it from scratch;
// otherwise the Δ-driven loop resumes from the seed (SolveMore), and
// record, when non-nil, collects every row the component changes.
func (en *Engine) solveComponent(g *guard, db *relation.DB, ci int, stats *Stats, seed, record *deltaSet) error {
	switch {
	case en.wfsProgs[ci] != nil:
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

// headTupleInto projects the head instantiation of a completed binding
// (the registers vals) into args (len(p.head.ArgVar) long).
func headTupleInto(p *plan, vals, args []val.T) (_ []val.T, cost lattice.Elem, err error) {
	hs := &p.head
	for j, v := range hs.ArgVar {
		if v >= 0 {
			args[j] = vals[v]
		} else {
			args[j] = hs.ArgVal[j]
		}
	}
	if hs.Info.HasCost {
		if hs.CostVar >= 0 {
			cost = vals[hs.CostVar]
		} else {
			cost = hs.CostVal
		}
		if !hs.Info.L.Contains(cost) {
			return nil, lattice.Elem{}, fmt.Errorf("core: rule %q derived cost %s outside lattice %s",
				p.rule, cost, hs.Info.L.Name())
		}
	}
	return args, cost, nil
}

// headTuple is headTupleInto with freshly allocated args, for callers
// that retain them.
func headTuple(p *plan, vals []val.T) ([]val.T, lattice.Elem, error) {
	return headTupleInto(p, vals, make([]val.T, len(p.head.ArgVar)))
}

// passConfig is the part of a pass's configuration every pass of one
// component loop shares; the loops copy it and set the Δ restriction.
func (en *Engine) passConfig(g *guard, db *relation.DB) exec.Config {
	return exec.Config{DB: db, Check: g.check}
}

// runPass evaluates one pass of one of p's pipelines under cfg — every
// satisfying assignment of the body, or the Δ-restricted subset cfg
// selects — handing each completed binding (the machine's registers) to
// emit. It adds the pass's firings and probes to stats and its
// per-operator counters to p.work.Ops, keyed by canonical step position
// so an operator keeps one set of counters whichever order ran it; the
// pass's probes are its operators' probes.
func (en *Engine) runPass(p *plan, pipe *pipeline, cfg exec.Config, stats *Stats, emit func(*plan, []val.T) error) error {
	m := pipe.stream.Acquire(cfg)
	err := m.Run(func(m *exec.Machine) error { return emit(p, m.Vals) })
	stats.Firings += m.Firings
	for i, c := range pipe.canon {
		n := m.Counts(i)
		stats.Probes += n.Probes
		p.work.Ops[c].Add(n)
	}
	pipe.stream.Release(m)
	return err
}

// fireAll runs one full pass of every rule of ps — a round that fires
// every rule — attributing each pass to its rule's breakdown.
func (en *Engine) fireAll(g *guard, ps []*plan, cfg exec.Config, stats *Stats, insert func(*plan, []val.T) error) error {
	for _, p := range ps {
		g.rule = p.rule
		f0, d0, p0 := stats.Firings, stats.Derived, stats.Probes
		t0 := time.Now()
		err := en.runPass(p, &p.pipe, cfg, stats, insert)
		noteRule(&p.work, stats.Firings-f0, stats.Derived-d0, stats.Probes-p0, time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
	}
	return nil
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
	var r RoundStats // the current round's record
	insert := func(p *plan, vals []val.T) error {
		args, cost, err := headTuple(p, vals)
		if err != nil {
			return err
		}
		rel := out.Rel(p.head.Pred)
		n := rel.Len()
		if rel.InsertJoin(args, cost) {
			stats.Derived++
			if rel.Len() == n {
				r.Improved++
			}
			// Improvement relative to the previous round's
			// interpretation (a plain re-derivation of a known tuple is
			// budget work but not progress).
			id := rel.ID(args)
			cur := rel.At(id)
			old, had := db.Rel(p.head.Pred).Get(args)
			improved := !had || (rel.Info.HasCost && !lattice.Eq(rel.Info.L, old.Cost, cur.Cost))
			if err := g.derived(rel, id, cur.Cost, improved); err != nil {
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
		r = g.beginRound(stats, ci, round, 0)
		out = relation.NewDB(db.Schemas)
		err := en.fireAll(g, ps, cfg, stats, insert)
		en.endRound(g, stats, r)
		if err != nil {
			return err
		}
		for k, rel := range seed {
			out.Rel(k).Join(rel)
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

// deltaIndex numbers the predicates a component's Δ sets track — its
// own and the lower-defined ones its rules read, which an incremental
// SolveMore seeds — once, at compile time: a predicate's number is its
// place in keys, which is sorted, so a round that walks its Δ set by
// number visits the changed predicates in key order. The compiler writes
// each atom's number into its exec.Atom. global maps each number to the
// predicate's number in the engine-wide changed set of SolveMore, and
// ldb marks the lower-defined predicates.
type deltaIndex struct {
	keys   []ast.PredKey
	global []int32
	ldb    []bool
}

// newDeltaIndex numbers a component's own predicates cdb and the
// lower-defined predicates ldb its rules read (both sorted).
func newDeltaIndex(cdb, ldb []ast.PredKey) deltaIndex {
	keys := slices.Concat(cdb, ldb)
	slices.Sort(keys)
	di := deltaIndex{keys: keys, global: make([]int32, len(keys)), ldb: make([]bool, len(keys))}
	for n, k := range keys {
		_, di.ldb[n] = slices.BinarySearch(ldb, k)
	}
	return di
}

// deltaSet records the rows a round (or a component) changed: per
// predicate number (deltaIndex), the ids of the changed rows of its
// relation in the order they first changed, deduplicated by a bitset over
// row ids. Row ids stay valid as the relation grows and always read the
// row's current cost, so a Δ set holds no row copies and no keys. A
// bitset spans its relation's row ids, so it comes from the engine's pool
// (bitsPool) and goes back to it: a SolveMore that changes a few rows of
// a large model allocates for its Δ, not for a bitset per predicate per
// round.
type deltaSet struct {
	// preds[n] is predicate n's entry, nil while it has no changed row;
	// n counts the entries.
	preds []*predDelta
	n     int
	// free holds the entries reset recycled, by number, handed back out
	// as the same predicate reappears in later rounds (so the largest
	// predicate keeps its large slices).
	free []*predDelta
	pool *bitsPool
}

// predDelta is one predicate's changed row ids and their membership
// bitset.
type predDelta struct {
	ids  []int32
	seen []uint64
}

// newDeltaSet returns an empty Δ set over npreds numbered predicates.
func newDeltaSet(pool *bitsPool, npreds int) *deltaSet {
	return &deltaSet{preds: make([]*predDelta, npreds), pool: pool}
}

// bitsPool holds the membership bitsets of finished Δ sets, cleared, for
// the next Δ set of any solve on the engine; the component walk's
// workers share it.
type bitsPool struct {
	mu   sync.Mutex
	free [][]uint64
}

// get returns a cleared bitset, nil when the pool is empty.
func (p *bitsPool) get() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	b := p.free[n-1]
	p.free = p.free[:n-1]
	return b
}

// release clears d's bitsets and hands them to its pool. d is done: only
// a set no evaluator references any longer may be released.
func (d *deltaSet) release() {
	d.reset()
	d.pool.mu.Lock()
	for _, pd := range d.free {
		if pd != nil {
			d.pool.free = append(d.pool.free, pd.seen)
		}
	}
	d.pool.mu.Unlock()
	clear(d.free)
}

// IDs returns the changed row ids of predicate n (nil when none): d is
// the exec.Delta view a γ Δ pass reads.
func (d *deltaSet) IDs(n int) []int32 {
	if pd := d.preds[n]; pd != nil {
		return pd.ids
	}
	return nil
}

// slot returns predicate n's entry, creating it: callers take a slot only
// to add to it, so d never holds an empty entry.
func (d *deltaSet) slot(n int) *predDelta {
	pd := d.preds[n]
	if pd == nil {
		if d.free != nil && d.free[n] != nil {
			pd, d.free[n] = d.free[n], nil
		} else {
			pd = &predDelta{seen: d.pool.get()}
		}
		d.preds[n] = pd
		d.n++
	}
	return pd
}

// set installs pd, which holds rows, as predicate n's entry.
func (d *deltaSet) set(n int, pd *predDelta) {
	if d.preds[n] == nil {
		d.n++
	}
	d.preds[n] = pd
}

// add records row id of the predicate's relation unless pd holds it.
func (pd *predDelta) add(id int) {
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
// its ids set, so a reset costs O(Δ) plus one step per numbered
// predicate. Only a set no evaluator still references may be reset —
// i.e. the previous round's Δ after its round completed.
func (d *deltaSet) reset() {
	if d.n == 0 {
		return
	}
	if d.free == nil {
		d.free = make([]*predDelta, len(d.preds))
	}
	for n, pd := range d.preds {
		if pd == nil {
			continue
		}
		for _, id := range pd.ids {
			pd.seen[id>>6] = 0
		}
		pd.ids = pd.ids[:0]
		d.free[n], d.preds[n] = pd, nil
	}
	d.n = 0
}

func (d *deltaSet) empty() bool { return d.n == 0 }

// semiNaiveLoop runs the Δ-driven fixpoint of component ci: the
// interpretation accumulates in db and a round refires only rules whose
// inputs changed — rules with positive scans of a changed predicate run
// once per changed-scan seed, each with that scan first (plan.deltaPipe);
// rules referencing a changed predicate inside an aggregate run a γ Δ
// pass, handed the round's Δ, in which each γ step derives its changed
// groups itself (plan.gammaPass), or re-run whole.
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
	npreds := len(en.compDelta[ci].keys)
	delta := newDeltaSet(&en.bits, npreds)
	// sinks[i] is the insert target of ps[i] (plan.pos): its head relation,
	// resolved once here, and the Δ and record entries of its head
	// predicate, resolved on the first derivation of each round (Δ, which
	// changes every round) or of the evaluation (record) — so a derived
	// tuple costs no relation or Δ lookup by predicate.
	type headSink struct {
		rel           *relation.Relation
		delta, record *predDelta
	}
	sinks := make([]headSink, len(ps))
	for i, p := range ps {
		sinks[i].rel = db.Rel(p.head.Pred)
	}
	// insert derives through the plan's head buffer (hbuf). Everything
	// retained beyond this call — Δ and record entries — is the stored
	// row's id, and the relation copied the arguments into its arena on
	// first insert.
	var r RoundStats // the current round's record
	insert := func(p *plan, vals []val.T) error {
		args, cost, err := headTupleInto(p, vals, p.hbuf)
		if err != nil {
			return err
		}
		h := &sinks[p.pos]
		n := h.rel.Len()
		id, changed := insertEps(h.rel, args, cost, en.opts.Epsilon)
		if !changed {
			return nil
		}
		stats.Derived++
		if id < n {
			r.Improved++
		}
		if recursive {
			if h.delta == nil {
				h.delta = delta.slot(p.head.Num)
			}
			h.delta.add(id)
		}
		if record != nil {
			if h.record == nil {
				h.record = record.slot(p.head.Num)
			}
			h.record.add(id)
		}
		return g.derived(h.rel, id, cost, true)
	}
	cfg := en.passConfig(g, db)
	// endRound closes the current round, failed or not: its record, then
	// — after a complete round — the round-boundary hook (fault point and
	// periodic checkpoint).
	endRound := func(err error) error {
		en.endRound(g, stats, r)
		if err != nil {
			return err
		}
		return g.roundBoundary(db)
	}

	if init == nil {
		// Round 0: fire everything.
		if err := g.poll(); err != nil {
			return err
		}
		r = g.beginRound(stats, ci, 0, 0)
		if err := endRound(en.fireAll(g, ps, cfg, stats, insert)); err != nil {
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
		prev := delta
		if spare != nil {
			delta, spare = spare, nil
		} else {
			delta = newDeltaSet(&en.bits, npreds)
		}
		for i := range sinks {
			sinks[i].delta = nil
		}
		var rows int64
		for _, pd := range prev.preds {
			if pd != nil {
				rows += int64(len(pd.ids))
			}
		}
		r = g.beginRound(stats, ci, round, rows)
		var perr error
		for _, p := range ps {
			g.rule = p.rule
			// Decide up front which passes this rule needs so a rule
			// untouched by the Δ set costs nothing (not even a clock
			// read).
			runAgg, keyed := p.gammaPass(prev)
			hasScan := false
			for n, scans := range p.scansOf {
				if len(scans) > 0 && prev.preds[n] != nil {
					hasScan = true
					break
				}
			}
			if !runAgg && !hasScan {
				continue
			}
			f0, d0, p0 := stats.Firings, stats.Derived, stats.Probes
			t0 := time.Now()
			// Aggregate-driven re-run when an aggregated predicate
			// changed: a γ Δ pass over the round's Δ when every changed
			// conjunct is keyed, otherwise a full re-run (which then also
			// covers the scan deltas below).
			ranFull := runAgg && !keyed
			if runAgg {
				pass := cfg
				if keyed {
					pass.AggDelta, pass.AggSince = prev, delta
				}
				perr = en.runPass(p, &p.pipe, pass, stats, insert)
			}
			if perr == nil && !ranFull && hasScan {
				// Scan-driven delta runs: one pass per changed scanned
				// predicate (CDB during a fresh solve; possibly EDB when
				// seeded incrementally), in key order.
			scans:
				for n, pd := range prev.preds {
					if pd == nil {
						continue
					}
					pass := cfg
					pass.RestrictIDs = pd.ids
					for _, si := range p.scansOf[n] {
						if perr = en.runPass(p, p.deltaPipe(si), pass, stats, insert); perr != nil {
							break scans
						}
					}
				}
			}
			noteRule(&p.work, stats.Firings-f0, stats.Derived-d0, stats.Probes-p0, time.Since(t0).Nanoseconds())
			if perr != nil {
				break
			}
		}
		if err := endRound(perr); err != nil {
			return err
		}
		if prev != init {
			prev.reset()
			spare = prev
		}
	}
	// The fixpoint is done: the loop's own Δ sets hand their bitsets back.
	if delta != init {
		delta.release()
	}
	if spare != nil {
		spare.release()
	}
	return nil
}

// insertEps is Relation.Upsert with numeric convergence tolerance: an
// improvement smaller than eps does not count as a change.
func insertEps(rel *relation.Relation, args []val.T, cost lattice.Elem, eps float64) (int, bool) {
	if eps > 0 {
		if old, ok := rel.Get(args); ok && old.HasCost && old.Cost.Kind() == val.Num && cost.Kind() == val.Num {
			j := rel.Info.L.Join(old.Cost, cost)
			if math.Abs(j.Num()-old.Cost.Num()) <= eps {
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
		if eps > 0 && row.Cost.Kind() == val.Num && o.Cost.Kind() == val.Num &&
			math.Abs(row.Cost.Num()-o.Cost.Num()) <= eps {
			return true
		}
		ok = false
		return false
	})
	return ok
}
