package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/datalog"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Group commit: the write path of the serve tier.
//
// PR 3 serialized /v1/assert batches on a per-program mutex, so N
// concurrent writers paid for N incremental solves and the mutex convoy
// queued them unboundedly. This file replaces the convoy with a bounded
// commit queue drained by one committer goroutine per program:
//
//   - Handlers validate a batch (parse errors stay per-batch, before
//     anything is shared), enqueue it, and wait for its outcome. A full
//     queue is an admission failure — the handler sheds with 429 rather
//     than queueing without bound.
//   - The committer drains every batch currently queued, merges their
//     facts, runs ONE SolveMoreContext over the merged delta, and
//     publishes the result with one atomic swap. Coalescing is sound
//     because T_P is monotone (Ross & Sagiv): the least model of
//     EDB ∪ Δ₁ ∪ Δ₂ does not depend on whether Δ₁ and Δ₂ arrive in one
//     step or two, so many queued deltas can flow through one fixpoint.
//   - Every batch in a drain still gets its OWN outcome. If the merged
//     solve fails, the committer falls back to committing each batch
//     alone, in arrival order, so a poison batch (non-monotone
//     insertion, budget breach it alone triggers) answers with its own
//     error and cannot fail its neighbors.
//
// Once enqueued, a batch is owned by the committer: it is always
// answered (committed or rejected), even if the submitting request has
// gone away — acks are never silently dropped. The waiting handler may
// time out first; the commit then still completes and the client
// observes it through the model version, the documented group-commit
// ambiguity window.

// commitReq is one enqueued assert batch awaiting commit.
type commitReq struct {
	facts []datalog.Fact
	// done receives exactly one result; buffered so the committer never
	// blocks on a handler that has given up waiting.
	done chan commitResult
	// reqID is the submitting request's X-Request-Id, carried into the
	// commit path so committer log lines — poison-batch retries above
	// all — stay attributable to the request that queued the batch.
	reqID string
	// tr/root carry the submitting request's trace (tr nil when the
	// batch was enqueued outside the instrumented handler chain);
	// enqueued is when the batch entered the queue. The commit path
	// records queue/solve/wal/publish spans against them; tr is safe to
	// use after the waiting handler has given up — a finished trace
	// ignores further spans.
	tr       *obs.Trace
	root     obs.SpanID
	enqueued time.Time
}

// commitResult is the outcome of one batch.
type commitResult struct {
	state *modelState
	stats datalog.Stats
	// seq is the batch's commit sequence number: each committed batch
	// gets its own (monotonic per program), even when many batches share
	// one solve, so clients can reconcile acks across restarts — the
	// checkpoint watermark and WAL replay speak the same numbering.
	seq uint64
	// coalesced is the number of batches that shared the commit's solve
	// (1 when the batch was committed alone).
	coalesced int
	err       error
}

// defaultAssertQueue bounds the commit queue when Config.AssertQueue is
// zero. Depth is admission capacity, not throughput: everything queued
// is coalesced into the next drain, so the bound mainly caps how much
// latency a burst may accumulate before the server starts shedding.
const defaultAssertQueue = 64

// errQueueFull and errDraining are the enqueue admission failures.
var (
	errQueueFull = &enqueueError{reason: "queue_full"}
	errDraining  = &enqueueError{reason: "draining"}
)

type enqueueError struct{ reason string }

func (e *enqueueError) Error() string { return "server: assert queue " + e.reason }

// enqueue offers a batch to the commit queue without blocking: a full
// queue or a draining server rejects immediately (the admission
// decision), it never waits for capacity.
func (svc *service) enqueue(req *commitReq) error {
	// The mutex only guards the closed flag against a concurrent
	// BeginDrain (sending on a closed channel panics); the queue itself
	// is the buffer.
	svc.qmu.RLock()
	defer svc.qmu.RUnlock()
	if svc.qclosed {
		return errDraining
	}
	select {
	case svc.queue <- req:
		svc.srv.metrics.queueDepth.With(svc.name).Set(float64(len(svc.queue)))
		return nil
	default:
		return errQueueFull
	}
}

// closeQueue stops admission and lets the committer drain what is
// already queued. Idempotent.
func (svc *service) closeQueue() {
	svc.qmu.Lock()
	defer svc.qmu.Unlock()
	if !svc.qclosed {
		svc.qclosed = true
		close(svc.queue)
	}
}

// commitLoop is the per-program committer goroutine: it owns the write
// path, draining the queue in groups until the queue is closed and
// empty. Started by Materialize, joined by Drain.
func (svc *service) commitLoop() {
	defer close(svc.committerDone)
	for req := range svc.queue {
		batch := []*commitReq{req}
		// Greedy drain: everything queued behind the first batch joins
		// its commit. The queue bound caps the group size.
	drain:
		for {
			select {
			case more, ok := <-svc.queue:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		svc.srv.metrics.queueDepth.With(svc.name).Set(float64(len(svc.queue)))
		svc.commit(batch)
	}
	svc.srv.metrics.queueDepth.With(svc.name).Set(0)
}

// commit runs one drain: a single merged solve for the whole group,
// falling back to per-batch solves if the merged one fails so each
// batch still gets its own outcome.
func (svc *service) commit(batch []*commitReq) {
	// Writer stall fault: the queue keeps filling while this sleeps.
	ctx := svc.commitContext()
	if err := faults.CheckCtx(ctx, faults.ServerCommitStall); err != nil {
		svc.respondAll(batch, commitResult{coalesced: len(batch), err: err}, nil)
		return
	}
	svc.srv.metrics.commitBatch.With(svc.name).Observe(float64(len(batch)))
	res, seqs := svc.solveAndPublish(ctx, batch)
	if res.err == nil || len(batch) == 1 {
		svc.respondAll(batch, res, seqs)
		return
	}
	// The merged solve failed; one poison batch must not take its
	// neighbors down. Re-commit each batch alone, in arrival order, so
	// the error lands on the batch that earns it. (Monotonicity makes
	// the successful ones equivalent to their share of the merged
	// solve.)
	svc.srv.metrics.commitIsolated.With(svc.name).Add(int64(len(batch)))
	svc.srv.logf("program %s: merged commit of %d batches failed (%v); retrying alone (requests: %s)",
		svc.name, len(batch), res.err, requestIDs(batch))
	for _, req := range batch {
		solo, soloSeqs := svc.solveAndPublish(svc.commitContext(), []*commitReq{req})
		if len(soloSeqs) == 1 {
			solo.seq = soloSeqs[0]
		}
		if solo.err != nil {
			svc.srv.logf("program %s: batch from request %s rejected: %v", svc.name, orUnknown(req.reqID), solo.err)
		}
		req.done <- solo
	}
}

// requestIDs renders a batch group's request identifiers for log lines.
func requestIDs(batch []*commitReq) string {
	ids := make([]string, len(batch))
	for i, req := range batch {
		ids[i] = orUnknown(req.reqID)
	}
	return strings.Join(ids, ", ")
}

func orUnknown(id string) string {
	if id == "" {
		return "unknown"
	}
	return id
}

// respondAll delivers one shared result to every batch in a group,
// stamping each with its own commit sequence number when the commit
// assigned them.
func (svc *service) respondAll(batch []*commitReq, res commitResult, seqs []uint64) {
	for i, req := range batch {
		r := res
		if i < len(seqs) {
			r.seq = seqs[i]
		}
		req.done <- r
	}
}

// commitContext is the solve context for one commit: bounded by the
// per-request budget when configured, and cut short by the drain
// deadline at shutdown. It is deliberately NOT derived from any
// submitting request's context — a committed group must not be aborted
// because one waiter hung up.
func (svc *service) commitContext() context.Context {
	return svc.srv.drainCtx
}

// solveAndPublish extends the published model with the union of the
// batches' facts, logs each batch to the WAL, and swaps the converged
// result in atomically; on any error (including an injected publish
// failure) the published model is untouched. The returned seqs carry
// one commit sequence number per batch, in arrival order.
//
// Ordering is durability before visibility: the solve runs first (only
// successful batches are ever logged — a rejected batch leaves no
// record to replay), then every batch is appended to the log and
// fsynced per policy, then the new generation is published, then the
// caller acks. A WAL failure therefore costs an ack, never loses one:
// the batch answers 500, readiness trips, and the model keeps serving
// the previous fixpoint. The converse order would let readers observe
// facts a crash could forget.
func (svc *service) solveAndPublish(ctx context.Context, batch []*commitReq) (commitResult, []uint64) {
	coalesced := len(batch)
	if svc.srv.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, svc.srv.cfg.RequestTimeout)
		defer cancel()
	}
	if err := faults.CheckCtx(ctx, faults.ServerCommitSolve); err != nil {
		return commitResult{coalesced: coalesced, err: err}, nil
	}
	svc.writeMu.Lock()
	defer svc.writeMu.Unlock()
	// Queue-wait spans: [enqueue, writer acquired] per traced batch. The
	// leader — the first traced batch — additionally owns the solve
	// span; its trace gets the nested component/round/rule spans from
	// the engine's event stream, so one solve is never narrated twice.
	var leader *commitReq
	now := time.Now()
	for _, req := range batch {
		if req.tr == nil {
			continue
		}
		req.tr.RecordSpan("queue", req.root, req.enqueued, now)
		if leader == nil {
			leader = req
		}
	}
	if svc.wal != nil && svc.walBroken.Load() {
		return commitResult{coalesced: coalesced,
			err: fmt.Errorf("%w: log broken by an earlier failure; restart to recover", errWALFailed)}, nil
	}
	start := time.Now()
	cur := svc.cur.Load()
	facts := batch[0].facts
	if coalesced > 1 {
		facts = make([]datalog.Fact, 0, coalesced*2)
		for _, req := range batch {
			facts = append(facts, req.facts...)
		}
	}
	var extra datalog.EventSink
	var ssink *obs.SpanSink
	var solveSpan obs.SpanID
	if leader != nil {
		solveSpan = leader.tr.StartSpanAt("solve", leader.root, start)
		ssink = obs.NewSpanSink(leader.tr, solveSpan)
		extra = ssink
	}
	m, stats, err := svc.prog.SolveMoreObserved(ctx, cur.model, facts, extra)
	solveEnd := time.Now()
	if leader != nil {
		leader.tr.EndSpanAt(solveSpan, solveEnd, obs.IntAttr("coalesced", int64(coalesced)))
		for _, req := range batch {
			if req.tr != nil && req != leader {
				// Followers record the shared solve window flat, pointing
				// at the leader's trace for the detailed narration.
				req.tr.RecordSpan("solve", req.root, start, solveEnd,
					obs.StringAttr("shared_with_trace", leader.tr.ID().String()),
					obs.IntAttr("coalesced", int64(coalesced)))
			}
		}
		if err == nil {
			recordOperatorSpans(leader.tr, ssink, svc.prog.Profile(stats).Sub(svc.prog.Profile(cur.model.Stats())))
		}
	}
	if err != nil {
		return commitResult{stats: stats, coalesced: coalesced, err: err}, nil
	}
	seqs := make([]uint64, coalesced)
	for i := range seqs {
		seqs[i] = svc.seq.Load() + uint64(i) + 1
	}
	if svc.wal != nil {
		policy := svc.srv.walFsyncPolicy()
		for i, req := range batch {
			appendStart := time.Now()
			if err := svc.walAppend(seqs[i], req.facts); err != nil {
				return commitResult{stats: stats, coalesced: coalesced, err: svc.walFail("append", err)}, nil
			}
			if req.tr != nil {
				req.tr.RecordSpan("wal.append", req.root, appendStart, time.Now(), obs.IntAttr("seq", int64(seqs[i])))
			}
			if policy == FsyncAlways {
				fsyncStart := time.Now()
				if err := svc.walSync(); err != nil {
					return commitResult{stats: stats, coalesced: coalesced, err: svc.walFail("fsync", err)}, nil
				}
				if req.tr != nil {
					req.tr.RecordSpan("wal.fsync", req.root, fsyncStart, time.Now())
				}
			}
		}
		if policy == FsyncBatch {
			// Group commit: one fsync covers the whole drain, before any
			// batch in it is acked. Every traced batch records the shared
			// window — each request really did wait for this fsync.
			fsyncStart := time.Now()
			if err := svc.walSync(); err != nil {
				return commitResult{stats: stats, coalesced: coalesced, err: svc.walFail("fsync", err)}, nil
			}
			fsyncEnd := time.Now()
			for _, req := range batch {
				if req.tr != nil {
					req.tr.RecordSpan("wal.fsync", req.root, fsyncStart, fsyncEnd, obs.IntAttr("coalesced", int64(coalesced)))
				}
			}
		}
		// The log now owns these sequence numbers; advance past them
		// even if the publish below fails, so the next commit cannot
		// collide with a record already on disk.
		svc.seq.Store(seqs[coalesced-1])
	}
	// Failed-swap fault: the solve converged but the new generation
	// must not be published; readers keep the last good fixpoint. A
	// failed swap is an engine-side failure, not a client error. (With
	// a WAL the batches are already durable; replay applying them after
	// a restart is the documented at-least-once ambiguity — insertion
	// is idempotent, so convergence is unaffected.)
	if err := faults.Check(faults.ServerCommitPublish); err != nil {
		return commitResult{stats: stats, coalesced: coalesced,
			err: fmt.Errorf("%w: publishing generation %d: %v", datalog.ErrInternal, cur.version+1, err)}, nil
	}
	publishStart := time.Now()
	next := &modelState{model: m, version: cur.version + 1, warm: cur.warm}
	svc.cur.Store(next)
	if svc.wal == nil {
		svc.seq.Store(seqs[coalesced-1])
	}
	svc.srv.metrics.commitSeq.With(svc.name).Set(float64(seqs[coalesced-1]))
	svc.observeSolve(time.Since(start))
	svc.srv.metrics.publishModel(svc.name, next.version, m)
	publishEnd := time.Now()
	for _, req := range batch {
		if req.tr != nil {
			req.tr.RecordSpan("publish", req.root, publishStart, publishEnd, obs.IntAttr("version", int64(next.version)))
		}
	}
	return commitResult{state: next, stats: stats, coalesced: coalesced}, seqs
}

// recordOperatorSpans attaches per-operator profile spans under the rule
// spans the solve's SpanSink recorded: for every rule that fired, each
// pipeline operator gets a span carrying its counters for THIS solve
// (the new model's ledger minus the previous model's). Operator spans share
// their rule span's window — the executor measures rows, not per-
// operator wall time, and the trace stays honest about that.
func recordOperatorSpans(tr *obs.Trace, ssink *obs.SpanSink, delta *datalog.Profile) {
	for _, rp := range delta.Rules {
		ruleSpan, ok := ssink.RuleSpan(rp.Index)
		if !ok {
			continue
		}
		start, end, ok := tr.Window(ruleSpan)
		if !ok {
			continue
		}
		for _, op := range rp.Ops {
			tr.RecordSpan(fmt.Sprintf("op%d %s", op.Step, op.Kind), ruleSpan, start, end,
				obs.StringAttr("op", op.Op),
				obs.IntAttr("rows_in", op.In),
				obs.IntAttr("rows_out", op.Out),
				obs.IntAttr("probes", op.Probes),
				obs.IntAttr("build", op.Build),
				obs.IntAttr("delta_rows", op.Delta),
				obs.IntAttr("groups", op.Groups))
		}
	}
}

// observeSolve folds one successful commit's solve duration into the
// service's moving estimate (EWMA, α = 1/4). Retry-After hints are
// derived from it.
func (svc *service) observeSolve(d time.Duration) {
	n := d.Nanoseconds()
	old := svc.solveNanos.Load()
	if old == 0 {
		svc.solveNanos.Store(n)
		return
	}
	svc.solveNanos.Store(old - old/4 + n/4)
}

// retryAfter estimates how long a shed client should wait before
// retrying: the queued work ahead of it times the typical solve,
// clamped to [1s, 30s] whole seconds (the HTTP Retry-After grain).
func (svc *service) retryAfter() int {
	depth := len(svc.queue)
	per := time.Duration(svc.solveNanos.Load())
	if per <= 0 {
		per = 50 * time.Millisecond
	}
	est := time.Duration(depth+1) * per
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// queueCap resolves the configured commit-queue capacity.
func (cfg Config) queueCap() int {
	if cfg.AssertQueue > 0 {
		return cfg.AssertQueue
	}
	return defaultAssertQueue
}
