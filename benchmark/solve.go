package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/monotone"
	"repro/internal/parser"
	"repro/internal/safety"
	"repro/internal/snapshot"
)

// warmupOps is how many operations at the start of every pass are run
// and checked but not measured: the process is still growing its heap
// and faulting pages in.
const warmupOps = 5

// solveOp is one measured cold solve: program text → least model for
// every program of the workload (one for the shortest-path workloads,
// five for small_mix), Load inside the op because users pay it on every
// run.
type solveOp struct {
	instance int // which of the rotating inputs the op solved
	wallMS   float64
	facts    int
	alloc    uint64 // bytes allocated during the op
	mallocs  uint64 // objects allocated during the op
	traced   bool
	stats    solveCounts
}

// heapAllocs reads the process's cumulative allocation counters. They
// are the counters behind runtime.MemStats.TotalAlloc and Mallocs, read
// through runtime/metrics because ReadMemStats stops the world and, taken
// around every op, slowed the ops by a tenth.
func heapAllocs() (bytes, objects uint64) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// solveCounts are the engine's own counters for one op, summed over its
// programs. They repeat exactly for a seed.
type solveCounts struct {
	Rounds, Components               int
	Firings, Derived, Probes, RuleNS int64
}

func (c *solveCounts) add(o solveCounts) {
	c.Rounds += o.Rounds
	c.Components += o.Components
	c.Firings += o.Firings
	c.Derived += o.Derived
	c.Probes += o.Probes
	c.RuleNS += o.RuleNS
}

func countsOf(s datalog.Stats) solveCounts {
	c := solveCounts{Rounds: s.Rounds, Components: s.Components, Firings: s.Firings, Derived: s.Derived, Probes: s.Probes}
	for _, r := range s.Rules {
		c.RuleNS += r.Nanos
	}
	return c
}

// tally counts operations attempted and failed across a run. An
// operation fails when the program returns an error, refuses, or gives
// an answer the oracle does not.
type tally struct {
	attempted, failed int
	firstFailure      string
}

// merge adds another goroutine's tally.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

func (t *tally) note(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// solver is the cold-solve side of one pass: a closed loop of one
// client running ops back to back, rotating through the instances. It
// runs in slices (see serveSession); the op index, and with it the
// rotation and the warm-up, carry on from slice to slice.
type solver struct {
	in   *inputs
	tr   *Tracer
	tl   *tally
	next int // index of the next op
	ops  []solveOp
}

// slice runs ops until the duration has passed (and, in the first
// slice, until the warm-up and one traced and one untraced rotation are
// done). With a tracer, every second rotation is traced — spans around
// each layer call, an event sink cutting the solve into components and
// rounds, and direct calls into the front-end layers afterwards — so
// traced and untraced ops of every instance interleave and their
// difference is the tracing overhead.
func (s *solver) slice(dur time.Duration) {
	deadline := time.Now().Add(dur)
	for ; time.Now().Before(deadline) || s.next < warmupOps+2*solveInstances; s.next++ {
		i := s.next
		traced := s.tr != nil && (i/solveInstances)%2 == 1
		trace := 0
		if traced {
			trace = s.tr.NewTrace()
		}
		programs := s.in.instances[i%solveInstances]
		// The front-end probes run on the text the op loads, so whichever
		// comes second finds it warm in the caches; alternating the order
		// keeps that out of the budget identity.
		probeFirst := traced && (i/(2*solveInstances))%2 == 1
		if probeFirst {
			probeFrontEnd(programs, trace, s.tr)
		}
		var opTracer *Tracer // nil: this op is not traced
		if traced {
			opTracer = s.tr
		}
		op, models, err := runSolveOp(programs, trace, opTracer)
		op.instance = i % solveInstances
		if err != nil {
			s.tl.note(false, "solve op %d: %v", i, err)
			continue
		}
		wrong := 0
		for pi, p := range programs {
			_, w := p.check(models[pi])
			wrong += w
		}
		s.tl.note(wrong == 0, "solve op %d: %d answers differ from the oracle", i, wrong)
		if traced && !probeFirst {
			probeFrontEnd(programs, trace, s.tr)
		}
		if i >= warmupOps {
			s.ops = append(s.ops, op)
		}
	}
}

// gcStats are the collector's totals over the measuring part of a pass,
// the oracle checks and the serve clients included.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
	ops     int
}

func runSolveOp(programs []program, trace int, tr *Tracer) (solveOp, []*datalog.Model, error) {
	traced := tr != nil
	op := solveOp{traced: traced}
	models := make([]*datalog.Model, len(programs))
	bytesBefore, objectsBefore := heapAllocs()
	start := time.Now()
	root := tr.Begin(trace, 0, "op")
	for pi, p := range programs {
		fam := tr.Begin(trace, root, "family."+p.family)
		opts := p.opts
		var sink *spanSink
		if traced {
			sink = &spanSink{tr: tr, trace: trace, comps: map[int]*compSpan{}}
			opts.Sink = sink
		}
		ls := tr.Begin(trace, fam, "datalog.load")
		prog, err := datalog.Load(p.src, opts)
		tr.End(ls, map[string]float64{"bytes": float64(len(p.src))})
		if err != nil {
			return op, nil, fmt.Errorf("%s: load: %w", p.family, err)
		}
		ss := tr.Begin(trace, fam, "core.solve")
		if sink != nil {
			sink.parent = ss
		}
		m, st, err := prog.Solve()
		tr.End(ss, map[string]float64{"rounds": float64(st.Rounds), "firings": float64(st.Firings),
			"derived": float64(st.Derived), "probes": float64(st.Probes)})
		if err != nil {
			return op, nil, fmt.Errorf("%s: solve: %w", p.family, err)
		}
		tr.End(fam, nil)
		models[pi] = m
		op.facts += m.Size()
		op.stats.add(countsOf(st))
	}
	tr.End(root, map[string]float64{"facts": float64(op.facts)})
	op.wallMS = float64(time.Since(start).Nanoseconds()) / 1e6
	bytesAfter, objectsAfter := heapAllocs()
	op.alloc = bytesAfter - bytesBefore
	op.mallocs = objectsAfter - objectsBefore
	return op, models, nil
}

// spanSink turns the engine's event stream into core.component and
// core.round child spans of the solve span. The engine serialises its
// emissions, so the sink needs no lock of its own.
type spanSink struct {
	tr     *Tracer
	trace  int
	parent int
	comps  map[int]*compSpan
}

type compSpan struct {
	id   int
	edge time.Time // start of the round in progress
}

func (s *spanSink) Event(e datalog.Event) {
	now := time.Now()
	switch e.Kind {
	case datalog.EventComponentBegin:
		s.comps[e.Component] = &compSpan{id: s.tr.Begin(s.trace, s.parent, "core.component"), edge: now}
	case datalog.EventRoundEnd:
		if c := s.comps[e.Component]; c != nil {
			s.tr.Record(s.trace, c.id, "core.round", c.edge, now,
				map[string]float64{"derived": float64(e.Derived), "firings": float64(e.Firings), "probes": float64(e.Probes)})
			c.edge = now
		}
	case datalog.EventComponentEnd:
		if c := s.comps[e.Component]; c != nil {
			s.tr.End(c.id, map[string]float64{"derived": float64(e.Derived), "firings": float64(e.Firings)})
		}
	}
}

// probeFrontEnd times direct calls into the layers that datalog.Load
// runs in sequence (parse, core.New, the program fingerprint), on the
// same program texts, as sibling spans of the traced op. core.New runs
// the four analyses itself, so the compiler's own share is core.new
// minus them.
func probeFrontEnd(programs []program, trace int, tr *Tracer) {
	root := tr.Begin(trace, 0, "probe")
	defer tr.End(root, nil)
	for _, p := range programs {
		id := tr.Begin(trace, root, "parser.parse")
		prog, err := parser.Parse(p.src)
		tr.End(id, map[string]float64{"bytes": float64(len(p.src))})
		if err != nil {
			continue
		}
		schemas, err := ast.BuildSchemas(prog)
		if err != nil {
			continue
		}
		id = tr.Begin(trace, root, "safety.check")
		_ = safety.CheckProgram(prog, schemas) // Load already accepted this text
		tr.End(id, nil)
		id = tr.Begin(trace, root, "consistency.check")
		_ = consistency.ConflictFree(prog, schemas)
		tr.End(id, nil)
		id = tr.Begin(trace, root, "monotone.check")
		monotone.CheckProgram(prog, schemas)
		tr.End(id, nil)
		id = tr.Begin(trace, root, "deps.scc")
		deps.Build(prog).SCCs()
		tr.End(id, nil)
		id = tr.Begin(trace, root, "core.new")
		_, _ = core.New(prog, core.Options{Epsilon: p.opts.Epsilon})
		tr.End(id, nil)
		id = tr.Begin(trace, root, "snapshot.fingerprint")
		snapshot.Fingerprint(prog)
		tr.End(id, nil)
	}
}
