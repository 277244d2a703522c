package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/relation"
)

// This file implements the component walk of §6.3, the one place every
// solve — Solve, Resume and SolveMore — evaluates the program's SCC DAG
// bottom-up. A component is dispatched once every component it depends
// on has completed; it evaluates through solveComponent on a private view
// of the database that is installed back under the walk's lock at the
// component boundary. Components that do not depend on one another
// evaluate concurrently on up to GOMAXPROCS workers, one of which is the
// calling goroutine, so a walk with one worker starts no goroutine.
// Within a component evaluation is sequential.
//
// Everything observable — models, fact order, explanations, Stats (their
// operator counters included), checkpoints — is identical at every worker count: a
// component's evaluation reads only its own predicates and those of
// completed lower components, so its view holds exactly what a
// one-at-a-time walk's database would, and T_P is monotone (Theorem
// 3.1), so installing independently computed component models is the
// join of sound intermediate interpretations whatever the completion
// order. See docs/ARCHITECTURE.md.

// workers is the walk's worker count: one per CPU the runtime schedules
// on, and no more than there are components to evaluate.
func (en *Engine) workers() int {
	return min(runtime.GOMAXPROCS(0), en.nEvaluable)
}

// sharedBudget is the solve's MaxFacts accounting: a single atomic
// counter spent by every component's guard, so the budget bounds the
// whole solve no matter how derivations distribute over workers.
type sharedBudget struct {
	max int64
	n   atomic.Int64
}

// spend counts one derivation and fails the calling guard when the
// budget is exhausted.
func (b *sharedBudget) spend(g *guard) error {
	if b.n.Add(1) <= b.max {
		return nil
	}
	e := g.fail(ErrBudgetExceeded, nil)
	e.Limit = b.max
	return e
}

// sched runs the component DAG on a bounded worker pool: a component is
// dispatched once every component it depends on has completed, and
// completed component relations are installed into the global database
// under the lock (the lattice join of sound intermediate models —
// Theorem 3.1 makes the merge order irrelevant).
type sched struct {
	en     *Engine
	ctx    context.Context
	cancel context.CancelFunc
	db     *relation.DB
	lim    Limits
	budget *sharedBudget
	// changed is the incremental walk's seed hook (nil on a fresh solve):
	// the rows the added EDB and completed components changed.
	changed *deltaSet

	mu         sync.Mutex
	sg         *guard // the solve's guard: global stats and checkpoints
	indeg      []int
	dependents [][]int
	readyCh    chan int
	pending    int
	inflight   int
	firstErr   error
	closed     bool
}

// runScheduled is the fixpoint walk: it runs the component DAG on
// en.workers() workers, each component on a private view of db, and joins
// results into db and sg.stats at component boundaries. A non-nil
// changed makes it the incremental walk of SolveMore: a component
// evaluates semi-naively from the changed rows it reads, and one that
// reads none settles unevaluated.
func (en *Engine) runScheduled(sg *guard, db *relation.DB, lim Limits, changed *deltaSet) error {
	ctx, cancel := context.WithCancel(sg.ctx)
	defer cancel()
	s := &sched{en: en, ctx: ctx, cancel: cancel, db: db, lim: lim, sg: sg, changed: changed,
		indeg:      make([]int, len(en.comps)),
		dependents: make([][]int, len(en.comps)),
		readyCh:    make(chan int, len(en.comps)),
		pending:    len(en.comps),
	}
	if lim.MaxFacts > 0 {
		s.budget = &sharedBudget{max: lim.MaxFacts}
	}
	for ci := range en.comps {
		for _, d := range en.compDeps[ci] {
			s.indeg[ci]++
			s.dependents[d] = append(s.dependents[d], ci)
		}
	}
	// Collect the roots before dispatching any: an EDB-only root settles
	// on the spot and cascades, and a dependent it releases must not be
	// mistaken for a root (and dispatched twice) later in the scan.
	var roots []int
	for ci := range en.comps {
		if s.indeg[ci] == 0 {
			roots = append(roots, ci)
		}
	}
	s.mu.Lock()
	for _, ci := range roots {
		s.dispatchLocked(ci)
	}
	s.maybeCloseLocked()
	s.mu.Unlock()

	drain := func() {
		for ci := range s.readyCh {
			s.runComp(ci)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < en.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return s.firstErr
}

// dispatchLocked hands a ready component to the worker pool. EDB-only
// components carry no work: they complete on the spot (without events or
// a Components count) so dependents cascade immediately. After a failure
// nothing new starts; the component is settled so the queue can drain.
func (s *sched) dispatchLocked(ci int) {
	if s.firstErr == nil && s.en.evaluable(ci) {
		s.readyCh <- ci
		return
	}
	s.finishLocked(ci)
}

// finishLocked settles one component, cascades its dependents and
// closes the queue when nothing remains.
func (s *sched) finishLocked(ci int) {
	s.pending--
	for _, d := range s.dependents[ci] {
		s.indeg[d]--
		if s.indeg[d] == 0 {
			s.dispatchLocked(d)
		}
	}
	s.maybeCloseLocked()
}

func (s *sched) maybeCloseLocked() {
	if s.closed {
		return
	}
	if s.pending == 0 || (s.firstErr != nil && s.inflight == 0) {
		close(s.readyCh)
		s.closed = true
	}
}

// mergeStats folds component ci's evaluation into the global stats: the
// scalar totals and round log of its local stats, the per-rule work its
// plans hold and its breakdown entry.
func (en *Engine) mergeStats(dst, src *Stats, ci int) {
	dst.RoundLog = append(dst.RoundLog, src.RoundLog...)
	dst.Rounds += src.Rounds
	dst.Firings += src.Firings
	dst.Derived += src.Derived
	dst.Probes += src.Probes
	for _, p := range en.plans[ci] {
		d, r := &dst.Rules[p.idx], &p.work
		d.Rounds += r.Rounds
		d.Firings += r.Firings
		d.Derived += r.Derived
		d.Probes += r.Probes
		d.Nanos += r.Nanos
		for i := range r.Ops {
			d.Ops[i].Add(r.Ops[i])
		}
	}
	cs := &dst.Comps[ci]
	cs.Rounds += src.Rounds
	cs.Firings += src.Firings
	cs.Derived += src.Derived
	cs.Probes += src.Probes
}

// runComp evaluates one component on a worker: cut its Δ seed when the
// walk is incremental — a component that reads no changed row settles
// unevaluated, like an EDB-only one — assemble a private database view
// (lower-defined predicates shared as frozen relations, own predicates
// cloned so the global database — and, under SolveMore, the model being
// extended — keeps the pre-state), run solveComponent on it with a
// component-local guard (own stats, own Δ record), then install and
// merge under the lock.
func (s *sched) runComp(ci int) {
	en := s.en
	stats := s.sg.stats
	s.mu.Lock()
	var seed, record *deltaSet
	if s.changed != nil {
		if seed = en.seed(ci, s.changed); seed != nil {
			record = newDeltaSet(&en.bits, len(en.compDelta[ci].keys))
		}
	}
	if s.firstErr != nil || (s.changed != nil && seed == nil) {
		s.finishLocked(ci)
		s.mu.Unlock()
		return
	}
	s.inflight++
	c := en.comps[ci]
	pv := relation.NewDB(en.Schemas)
	for _, k := range en.compLDB[ci] {
		pv.SetRel(k, s.db.Rel(k))
	}
	for _, k := range c.Preds {
		pv.SetRel(k, s.db.Rel(k).Clone())
	}
	cs := &stats.Comps[ci]
	if en.sink != nil {
		en.sink.Event(obs.Event{Kind: obs.ComponentBegin, Component: ci})
	}
	s.mu.Unlock()

	var ls Stats // scalar totals and round log; the per-rule work accumulates on the plans
	for _, p := range en.plans[ci] {
		clear(p.work.Ops)
		p.work = RuleStats{Index: p.idx, Rule: p.text, Ops: p.work.Ops}
	}
	g := newGuard(s.ctx, s.lim, &ls)
	g.budget = s.budget
	g.start = s.sg.start
	g.comp = c.Preds
	g.cut = func(pv *relation.DB) error { return s.checkpointCut(g, pv, ci) }
	t0 := time.Now()
	cerr := en.runComponent(g, func() error {
		if err := faults.Check(faults.CoreParallelWorker); err != nil {
			return g.fail(ErrInternal, err)
		}
		return en.solveComponent(g, pv, ci, &ls, seed, record)
	})
	nanos := time.Since(t0).Nanoseconds()

	s.mu.Lock()
	s.inflight--
	// The first failure keeps its partial component — Solve returns the
	// partial interpretation so no work is discarded — while components
	// failing after cancellation are dropped.
	if cerr == nil || s.firstErr == nil {
		for _, k := range c.Preds {
			s.db.SetRel(k, pv.Rel(k))
		}
		en.mergeStats(stats, &ls, ci)
		stats.Components++
		if record != nil {
			// Only ci derives its predicates, so its record is disjoint
			// from everything changed holds.
			for n, pd := range record.preds {
				if pd != nil {
					s.changed.set(int(en.compDelta[ci].global[n]), pd)
				}
			}
		}
	}
	cs.Nanos += nanos
	if en.sink != nil {
		en.sink.Event(obs.Event{Kind: obs.ComponentEnd, Component: ci,
			Round: cs.Rounds, Firings: cs.Firings, Derived: cs.Derived,
			Probes: cs.Probes, Nanos: cs.Nanos})
	}
	if cerr != nil {
		if s.firstErr == nil {
			s.firstErr = cerr
			s.cancel()
		}
	} else if s.firstErr == nil {
		// Component boundary: the global database is consistent again —
		// the strongest checkpoint boundary, always durable.
		s.sg.comp = c.Preds
		if ckerr := s.sg.checkpoint(s.db); ckerr != nil {
			s.firstErr = ckerr
			s.cancel()
		}
	}
	s.finishLocked(ci)
	s.mu.Unlock()
}

// checkpointCut is a component guard's round-boundary checkpoint (see
// guard.cut): at the configured cadence it snapshots a consistent cut —
// the global database (completed components) overlaid with this
// component's private progress. Every such cut lies between the EDB and
// the least model, so it is a sound restart point even though
// concurrent siblings' in-flight rounds are not included.
func (s *sched) checkpointCut(g *guard, pv *relation.DB, ci int) error {
	if s.lim.Checkpoint == nil || s.lim.CheckpointEvery <= 0 {
		return nil
	}
	g.sinceCkpt++
	if g.sinceCkpt < s.lim.CheckpointEvery {
		return nil
	}
	g.sinceCkpt = 0
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstErr != nil {
		return nil // evaluation is stopping; skip the checkpoint
	}
	view := s.db.Share()
	for _, k := range s.en.comps[ci].Preds {
		view.SetRel(k, pv.Rel(k))
	}
	merged := s.sg.stats.Clone()
	s.en.mergeStats(&merged, g.stats, ci)
	if err := s.lim.Checkpoint(view, merged); err != nil {
		return g.fail(ErrCheckpoint, err)
	}
	return nil
}
