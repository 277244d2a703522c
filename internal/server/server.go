// Package server is the concurrent query-service subsystem over
// materialized models: a long-lived HTTP/JSON layer that loads one or
// more programs, computes their least models once, and answers many
// cheap read queries against them.
//
// The design splits reads from writes around the monotonicity of T_P:
//
//   - Reads (/v1/query, /v1/explain, /v1/program, /healthz, /metrics)
//     never take a lock. Each service holds its current *datalog.Model
//     behind an atomic pointer; models are immutable once published,
//     and every facade call used by the read path (Has, Cost, Facts,
//     Match, Size, Stats, Explain, ExplainTree) is documented safe for
//     concurrent readers. An explanation is re-derived from the model it
//     is asked about, so it never waits for, or changes with, a commit.
//
//   - Writes (/v1/assert) go through a group-committed single-writer
//     path per program: validated batches enter a bounded commit queue,
//     and one committer goroutine drains the queue in groups — the
//     merged facts of a drain run through ONE SolveMoreContext call
//     (producing a fresh extended model — the old one is never mutated)
//     and the result is atomically swapped in only after it has
//     converged, publishing one merged generation. Concurrent readers
//     therefore observe either the old least model or the new one,
//     never a partial interpretation. Coalescing is sound by the same
//     monotonicity that makes checkpoint/resume sound: adding EDB facts
//     only grows the least model and the least model of a union of
//     deltas does not depend on how the deltas are grouped (Ross &
//     Sagiv, Corollary 3.5 plus monotonicity of T_P). Each batch in a
//     drain still receives its own outcome: a batch the merged solve
//     cannot absorb (non-monotone insertion, a budget only it breaches)
//     is retried alone so it cannot poison its neighbors.
//
//   - Admission control keeps overload from queueing unboundedly: a
//     full commit queue sheds new asserts with 429 + Retry-After, a
//     draining server sheds them with 503, and Config.MaxInflight caps
//     concurrently executing reads per program. Reads keep serving the
//     published model at full speed while the write path sheds.
//
// A failed assert (budget breach, divergence, cancellation, or a
// non-monotone addition) leaves the published model untouched: the
// service keeps answering from the last good fixpoint and reports a
// structured error mirroring the CLI's exit-code contract.
package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/datalog"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config tunes the server; the zero value is a good default.
type Config struct {
	// RequestTimeout bounds each request's handler: the solve of every
	// commit, and the wait + encode time of every read. 0 means no
	// per-request deadline beyond the program's own MaxDuration.
	RequestTimeout time.Duration
	// AssertQueue bounds the per-program commit queue (admission
	// capacity of the write path). When the queue is full new batches
	// are shed with 429 instead of queueing without bound. 0 selects
	// the default (64).
	AssertQueue int
	// MaxInflight caps concurrently executing read requests per
	// program (/v1/query, /v1/explain); excess requests are shed with
	// 503 + Retry-After. 0 means unlimited.
	MaxInflight int
	// Logf receives one line per notable event (nil = silent).
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives one structured record per request
	// (method, path, status, duration, request id) plus the notable
	// events that also go to Logf.
	Logger *slog.Logger
	// SlowRequest, when positive, logs requests slower than this
	// threshold at Warn level (requires Logger).
	SlowRequest time.Duration
	// WALDir, when non-empty, enables the durable write-ahead log: each
	// program logs committed assert batches under WALDir/<name>/ and
	// replays them past the checkpoint watermark on warm start (see
	// wal.go). Empty disables the log (acked batches survive restarts
	// only up to the last checkpoint flush).
	WALDir string
	// WALFsync is the fsync policy for the log ("" selects batch).
	WALFsync FsyncPolicy
	// WALSegmentBytes caps each log segment before rotation; 0 selects
	// the wal package default (64 MiB).
	WALSegmentBytes int64
	// TraceBuffer sizes the in-process flight recorder: the number of
	// most recent request traces retained for /debug/traces. 0 selects
	// the default (64).
	TraceBuffer int
	// TraceDir, when non-empty, additionally writes every finished
	// request trace as a Chrome trace-event JSON file (one per trace)
	// under this directory, loadable in about:tracing / Perfetto.
	TraceDir string
}

// ProgramSpec names one program to serve.
type ProgramSpec struct {
	// Name is the key clients address the program by.
	Name string
	// Source is the program text (rules, declarations and facts).
	Source string
	// Options configures evaluation.
	Options datalog.Options
	// Checkpoint, when non-empty, is a snapshot path: if the file exists
	// the service warm-starts from it (RestoreFile + Resume) instead of
	// solving from scratch, and Close flushes a final snapshot to it.
	Checkpoint string
	// Resume, when non-empty, is an explicit warm-start source; it is
	// read at Materialize time and must exist. It overrides Checkpoint
	// as the warm-start source but not as the flush target.
	Resume string
}

// modelState is one published generation of a service's model.
type modelState struct {
	model *datalog.Model
	// version counts successful materializations and asserts, starting
	// at 1 for the initial least model.
	version uint64
	// warm records whether this generation chain began from a snapshot.
	warm bool
}

// service is one program being served.
type service struct {
	name string
	prog *datalog.Program
	spec ProgramSpec
	srv  *Server
	// cur is the currently published model; readers Load it and never
	// lock. The committer replaces it wholesale under writeMu.
	cur atomic.Pointer[modelState]
	// writeMu serializes the single-writer path: commits and checkpoint
	// flushes.
	writeMu sync.Mutex
	// queue is the bounded commit queue; handlers enqueue validated
	// batches, commitLoop drains them in groups (see commit.go). qmu
	// guards qclosed so BeginDrain can stop admission without racing a
	// send on the closed channel.
	queue         chan *commitReq
	qmu           sync.RWMutex
	qclosed       bool
	committerUp   atomic.Bool
	committerDone chan struct{}
	// solveNanos is the EWMA of recent commit solve durations, feeding
	// Retry-After estimates.
	solveNanos atomic.Int64
	// inflight counts currently executing read requests for the
	// MaxInflight admission gate.
	inflight atomic.Int64
	// wal is the program's write-ahead log (nil when Config.WALDir is
	// empty). seq is the program's commit sequence: the number of assert
	// batches ever committed, carried across restarts through the log
	// and the checkpoint watermark. It advances only on the committer
	// goroutine; atomic so handlers and checkpoint flushes can read it.
	wal *wal.Log
	seq atomic.Uint64
	// walBroken trips after a failed append or fsync: the write path
	// fails fast (500 "wal") and /readyz reports wal_failed until a
	// restart recovers the log.
	walBroken atomic.Bool
	// replaying/replayDone/replayTotal publish warm-start replay
	// progress to /readyz.
	replaying   atomic.Bool
	replayDone  atomic.Uint64
	replayTotal atomic.Uint64
	// arity maps predicate name -> non-cost arity for every declared
	// predicate, fixed at load time (so the read path never consults —
	// or lazily extends — mutable schema state).
	decls map[string]datalog.PredDecl
}

// Server hosts a set of services and their HTTP API.
type Server struct {
	cfg     Config
	svcs    map[string]*service
	names   []string // sorted service names
	start   time.Time
	metrics *metrics
	// recorder retains the most recent finished request traces for
	// /debug/traces and post-incident dumps.
	recorder *obs.FlightRecorder
	// draining flips once at shutdown: readiness goes 503 and new
	// assert batches are shed while queued ones drain.
	draining atomic.Bool
	// drainCtx is the base context of every commit solve; drainCancel
	// fires when a drain deadline expires (or on Close), so stuck
	// commits abort instead of wedging shutdown.
	drainCtx    context.Context
	drainCancel context.CancelFunc
}

// New loads every program spec (reporting load errors immediately, with
// datalog.ErrParse/ErrStatic preserved) but does not evaluate anything;
// call Materialize before Handler goes live.
func New(specs []ProgramSpec, cfg Config) (*Server, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("server: no programs to serve")
	}
	s := &Server{
		cfg:      cfg,
		svcs:     map[string]*service{},
		start:    time.Now(),
		metrics:  newMetrics(),
		recorder: obs.NewFlightRecorder(cfg.TraceBuffer),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("server: program with empty name")
		}
		if _, dup := s.svcs[spec.Name]; dup {
			return nil, fmt.Errorf("server: duplicate program name %q", spec.Name)
		}
		// Chain the metrics sink in front of any user-configured sink:
		// the engine's event stream feeds the live worker gauge. Events
		// are only ever emitted from the single-writer path (materialize
		// and serialized asserts), and gauge updates are atomic.
		spec.Options.Sink = datalog.MultiSink(s.metrics.programSink(spec.Name), spec.Options.Sink)
		p, err := datalog.Load(spec.Source, spec.Options)
		if err != nil {
			return nil, fmt.Errorf("server: program %s: %w", spec.Name, err)
		}
		svc := &service{
			name:          spec.Name,
			prog:          p,
			spec:          spec,
			srv:           s,
			queue:         make(chan *commitReq, cfg.queueCap()),
			committerDone: make(chan struct{}),
			decls:         map[string]datalog.PredDecl{},
		}
		for _, d := range p.Predicates() {
			// On a name collision across arities keep the first (sorted)
			// declaration; query handlers resolve by name only.
			if _, ok := svc.decls[d.Name]; !ok {
				svc.decls[d.Name] = d
			}
		}
		s.svcs[spec.Name] = svc
		s.names = append(s.names, spec.Name)
	}
	for i := 1; i < len(s.names); i++ {
		for j := i; j > 0 && s.names[j] < s.names[j-1]; j-- {
			s.names[j], s.names[j-1] = s.names[j-1], s.names[j]
		}
	}
	return s, nil
}

// logf reports one notable event. Logf wins when both sinks are set
// (the structured Logger then carries request records only), so lines
// are never duplicated.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(fmt.Sprintf(format, args...))
	}
}

// Materialize computes (or warm-starts) the least model of every
// service and starts its committer. With a WAL configured it also
// opens each program's log and replays the records past the restored
// checkpoint's watermark before publishing, so the first published
// generation already contains every durably acked batch. It must
// complete before the handler serves queries; pair it with Drain (or
// Close) to stop the committers.
func (s *Server) Materialize(ctx context.Context) error {
	for _, name := range s.names {
		svc := s.svcs[name]
		start := time.Now()
		m, warm, watermark, err := svc.materialize(ctx)
		if err != nil {
			return fmt.Errorf("server: materialize %s: %w", name, err)
		}
		svc.seq.Store(watermark)
		replayed := 0
		if s.cfg.WALDir != "" {
			if err := svc.openWAL(watermark); err != nil {
				return fmt.Errorf("server: materialize %s: %w", name, err)
			}
			if m, replayed, err = svc.replayWAL(ctx, m, watermark); err != nil {
				return fmt.Errorf("server: materialize %s: wal replay: %w", name, err)
			}
			svc.seq.Store(svc.wal.LastSeq())
			if replayed > 0 && svc.spec.Checkpoint != "" {
				// Fold the replay into a fresh checkpoint immediately so
				// the next restart replays only what arrives from here on,
				// and let the log drop segments the new watermark subsumes.
				if err := m.WriteSnapshotWatermark(svc.spec.Checkpoint, svc.seq.Load()); err != nil {
					return fmt.Errorf("server: materialize %s: post-replay checkpoint: %w", name, err)
				}
				if _, err := svc.wal.Compact(svc.seq.Load()); err != nil {
					return fmt.Errorf("server: materialize %s: wal compact: %w", name, err)
				}
				s.metrics.walSegments.With(name).Set(float64(svc.wal.Segments()))
			}
		}
		s.metrics.commitSeq.With(name).Set(float64(svc.seq.Load()))
		svc.cur.Store(&modelState{model: m, version: 1, warm: warm})
		s.metrics.publishModel(name, 1, m)
		svc.committerUp.Store(true)
		go svc.commitLoop()
		how := "solved"
		if warm {
			how = "warm-started"
		}
		extra := ""
		if replayed > 0 {
			extra = fmt.Sprintf(", %d wal batches replayed", replayed)
		}
		s.logf("program %s: %s in %s (%d tuples, %d rounds%s)",
			name, how, time.Since(start).Round(time.Millisecond), m.Size(), m.Stats().Rounds, extra)
	}
	return nil
}

// materialize computes the initial least model of one service,
// warm-starting from a snapshot when configured. The returned
// watermark is the restored checkpoint's commit sequence (0 for cold
// starts): WAL replay resumes after it.
func (svc *service) materialize(ctx context.Context) (*datalog.Model, bool, uint64, error) {
	warmFrom := svc.spec.Resume
	optional := false
	if warmFrom == "" && svc.spec.Checkpoint != "" {
		// A checkpoint path doubles as an opportunistic warm-start
		// source so a restarted server resumes where it left off.
		warmFrom, optional = svc.spec.Checkpoint, true
	}
	if warmFrom != "" {
		restored, watermark, err := svc.prog.RestoreFileWatermark(warmFrom)
		switch {
		case err == nil:
			m, _, rerr := svc.prog.Resume(ctx, restored)
			if rerr != nil {
				return nil, true, 0, rerr
			}
			return m, true, watermark, nil
		case optional && errors.Is(err, fs.ErrNotExist):
			// No snapshot yet: fall through to a cold solve.
		default:
			return nil, false, 0, err
		}
	}
	m, _, err := svc.prog.SolveContext(ctx, nil)
	if err != nil {
		return nil, false, 0, err
	}
	return m, false, 0, nil
}

// current returns the published model state (nil before Materialize).
func (svc *service) current() *modelState { return svc.cur.Load() }

// Draining reports whether shutdown has begun (readiness is 503 and
// new assert batches are shed while the queues empty).
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain flips the server into draining mode: /readyz answers 503,
// new assert batches are rejected, and the committers run the queues
// dry. Idempotent; it does not wait — see Drain.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	s.logf("draining: admission closed, %d program queue(s) emptying", len(s.names))
	for _, name := range s.names {
		s.svcs[name].closeQueue()
	}
}

// Drain begins the drain (if not already begun) and waits for every
// queued batch to be answered. After timeout (when positive) the drain
// context is canceled, so in-flight commit solves abort cooperatively
// and remaining batches are answered with the cancellation — every ack
// is still delivered, none are lost. Returns true if the drain
// completed without hitting the deadline.
func (s *Server) Drain(timeout time.Duration) bool {
	s.BeginDrain()
	clean := true
	var deadline <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	for _, name := range s.names {
		svc := s.svcs[name]
		if !svc.committerUp.Load() {
			continue
		}
		select {
		case <-svc.committerDone:
		case <-deadline:
			clean = false
			s.logf("drain deadline hit; canceling in-flight commits")
			s.drainCancel()
			<-svc.committerDone
		}
	}
	if clean {
		s.logf("drained cleanly")
	}
	return clean
}

// Close shuts the write path down immediately: any in-flight commit is
// canceled and every queued batch is answered with the cancellation.
// For tests and abrupt teardown; graceful shutdown wants Drain.
func (s *Server) Close() {
	s.BeginDrain()
	s.drainCancel()
	for _, name := range s.names {
		svc := s.svcs[name]
		if svc.committerUp.Load() {
			<-svc.committerDone
		}
		if svc.wal != nil {
			// The committer has exited, so no appends race the close.
			if err := svc.wal.Close(); err != nil && !svc.walBroken.Load() {
				s.logf("program %s: wal close: %v", name, err)
			}
		}
	}
}

// FlushCheckpoints writes a final snapshot for every service configured
// with a checkpoint path, stamped with the program's commit-sequence
// watermark, then compacts the WAL behind it (segments the checkpoint
// subsumes are dropped). It is called on graceful shutdown; the first
// error is returned after all services have been attempted.
func (s *Server) FlushCheckpoints() error {
	var first error
	for _, name := range s.names {
		svc := s.svcs[name]
		if svc.spec.Checkpoint == "" {
			continue
		}
		svc.writeMu.Lock()
		st := svc.cur.Load()
		seq := svc.seq.Load()
		var err error
		if st != nil {
			err = st.model.WriteSnapshotWatermark(svc.spec.Checkpoint, seq)
		}
		svc.writeMu.Unlock()
		if err != nil {
			s.logf("program %s: final checkpoint: %v", name, err)
			if first == nil {
				first = fmt.Errorf("server: checkpoint %s: %w", name, err)
			}
			continue
		}
		if st != nil {
			s.logf("program %s: checkpoint flushed to %s (version %d, seq %d)", name, svc.spec.Checkpoint, st.version, seq)
			if svc.wal != nil && !svc.walBroken.Load() {
				if n, cerr := svc.wal.Compact(seq); cerr != nil {
					s.logf("program %s: wal compact: %v", name, cerr)
				} else if n > 0 {
					s.logf("program %s: wal compacted %d segment(s) behind seq %d", name, n, seq)
				}
				s.metrics.walSegments.With(name).Set(float64(svc.wal.Segments()))
			}
		}
	}
	return first
}

// lookup resolves a program name; an empty name resolves to the sole
// service when exactly one program is being served.
func (s *Server) lookup(name string) (*service, error) {
	if name == "" {
		if len(s.names) == 1 {
			return s.svcs[s.names[0]], nil
		}
		return nil, fmt.Errorf("server: %d programs served, name one of %v", len(s.names), s.names)
	}
	svc, ok := s.svcs[name]
	if !ok {
		return nil, fmt.Errorf("server: unknown program %q", name)
	}
	return svc, nil
}
