package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/datalog"
	"repro/internal/faults"
	"repro/internal/wal"
)

// Durability: the serve tier's write-ahead log.
//
// Without a WAL, an acked /v1/assert lives only in memory until the
// next checkpoint flush — a crash forgets it. With Config.WALDir set,
// every committed batch is appended to a per-program log (one record
// per batch, carrying the batch's commit sequence number) and fsynced
// per the configured policy BEFORE the new model generation is
// published or any waiter is acked. Startup keeps the restart contract
// of docs/SERVER.md ("Warm start and graceful shutdown"): it restores
// the newest checkpoint once, reads every record past its watermark
// once into one batch, and runs one fixpoint — Resume of the restored
// model (nil on a cold start) with that batch. Monotonicity of T_P makes
// this sound — the least model of a union of EDB deltas does not depend
// on how the deltas are grouped or ordered (Ross & Sagiv) — and it is
// why the recovered model equals a one-shot solve of the base EDB plus
// every acked batch.
//
// Records: each record's payload is its batch's facts as binary rows
// behind a byte naming the payload's kind (walRows, below; records
// written before binary rows are JSON and still replay). Replay decodes
// the rows straight into the recovery solve's one batch.
//
// Failure posture: a WAL append or fsync error fails the batch with
// 500 (the published model is untouched), marks the service's log
// broken, and trips /readyz — after a failed write the segment tail
// state is unknown, so continuing to append could ack batches the log
// cannot replay. The process keeps serving reads; writes fail fast
// until a restart recovers the log.

// FsyncPolicy says when the WAL is fsynced relative to acks.
type FsyncPolicy string

const (
	// FsyncBatch syncs once per group-commit drain, before any batch in
	// the group is acked: acked⇒durable, with one fsync amortized over
	// the group. The default.
	FsyncBatch FsyncPolicy = "batch"
	// FsyncNone never syncs explicitly; acked batches since the OS last
	// flushed may be lost on power cut (not on process crash).
	FsyncNone FsyncPolicy = "none"
)

// ParseFsyncPolicy validates a policy string ("" selects batch).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncBatch, nil
	case FsyncBatch, FsyncNone:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("unknown fsync policy %q (want batch or none)", s)
}

// errWALFailed classifies write-ahead log failures on the commit path;
// the API surfaces them as 500 "wal" (exit code 6).
var errWALFailed = errors.New("server: write-ahead log failed")

// openWAL opens (or creates) the service's log under Config.WALDir and
// cross-checks it against the checkpoint watermark the model was
// restored at.
func (svc *service) openWAL(watermark uint64) error {
	l, err := wal.Open(wal.Options{
		Dir:          filepath.Join(svc.srv.cfg.WALDir, svc.name),
		Fingerprint:  svc.prog.Fingerprint(),
		StartSeq:     watermark,
		SegmentBytes: svc.srv.cfg.WALSegmentBytes,
	})
	if err != nil {
		return err
	}
	// The checkpoint and the log must agree on history. A log whose
	// oldest record starts past watermark+1 was compacted against a
	// newer checkpoint than the one restored: the acked batches in the
	// gap are gone, and replaying the rest would build the wrong EDB. A
	// log that ends before the watermark is stale (the checkpoint
	// subsumes batches the log never saw) — likely a crossed directory.
	if first := l.FirstSeq(); first > watermark+1 {
		l.Close()
		return fmt.Errorf("%w: log starts at seq %d but the checkpoint watermark is %d: acked history is missing", wal.ErrCorrupt, first, watermark)
	}
	if last := l.LastSeq(); last < watermark {
		l.Close()
		return fmt.Errorf("%w: log ends at seq %d behind the checkpoint watermark %d", wal.ErrCorrupt, last, watermark)
	}
	if rep := l.Repaired(); rep != nil {
		svc.srv.logf("program %s: wal: repaired torn tail in %s: dropped %d bytes at offset %d (%s)",
			svc.name, rep.Segment, rep.Dropped, rep.Offset, rep.Reason)
	}
	svc.wal = l
	svc.srv.metrics.walSegments.With(svc.name).Set(float64(l.Segments()))
	return nil
}

// replayWAL reads every log record past the checkpoint watermark into
// b, each fact checked, and returns the number of batches read. It
// solves nothing: the caller folds b into the recovery solve. It
// publishes its progress through the service's replay counters and sets
// replaying, which the caller clears once the recovery solve returns, so
// /readyz reports the replay until the model holds it.
func (svc *service) replayWAL(ctx context.Context, watermark uint64, b *datalog.Batch) (int, error) {
	last := svc.wal.LastSeq()
	if last <= watermark {
		return 0, nil
	}
	svc.replayTotal.Store(last - watermark)
	svc.replaying.Store(true)
	batches := 0
	err := svc.wal.Replay(func(seq uint64, payload []byte) error {
		if err := faults.CheckCtx(ctx, faults.ServerWALReplay); err != nil {
			return err
		}
		if err := svc.replayRecord(b, seq, payload); err != nil {
			return err
		}
		batches++
		svc.replayDone.Add(1)
		svc.srv.metrics.walReplayed.With(svc.name).Add(1)
		return nil
	})
	return batches, err
}

// walAppend logs one committed batch under seq and accounts the bytes;
// fsyncing is the caller's job (policy-dependent, see commit). The
// caller holds writeMu, which guards the service's record buffer.
func (svc *service) walAppend(seq uint64, facts []datalog.Fact) error {
	svc.walBuf = datalog.AppendFacts(append(svc.walBuf[:0], walRows), facts)
	n, err := svc.wal.Append(seq, svc.walBuf)
	if err != nil {
		return err
	}
	svc.srv.metrics.walBytes.With(svc.name).Add(int64(n))
	return nil
}

// walSync runs one policy-visible fsync and times it.
func (svc *service) walSync() error {
	start := time.Now()
	if err := svc.wal.Sync(); err != nil {
		return err
	}
	svc.srv.metrics.walFsync.With(svc.name).Observe(time.Since(start).Seconds())
	svc.srv.metrics.walSegments.With(svc.name).Set(float64(svc.wal.Segments()))
	return nil
}

// walFail marks the service's log broken (readiness trips, later
// writes fail fast) and wraps the failure for the API error surface.
func (svc *service) walFail(op string, err error) error {
	if !svc.walBroken.Swap(true) {
		svc.srv.logf("program %s: wal %s failed, write path disabled until restart: %v", svc.name, op, err)
	}
	return fmt.Errorf("%w: %s: %v", errWALFailed, op, err)
}

// A WAL record's payload is one committed batch of facts, led by a byte
// that says how the rest is written:
//
//   - walRows (0x01): the facts in the binary row codec of
//     datalog.AppendFacts — per fact its predicate's name and arity and
//     its values in the snapshot value encoding. Every record written
//     now is one. Replay decodes it straight into the recovery batch's
//     rows (Batch.AddEncoded), which checks each fact against the
//     program and refuses NaN and a cost outside its lattice.
//   - '[': the facts as the JSON array of /v1/assert, the only format
//     before binary records. Such a record still replays through the
//     assert decoder and checks (json.Unmarshal into []wireFact, then
//     checkFacts).
//
// The upgrade is one-way: a server built before binary records reads a
// binary record as malformed JSON and fails its recovery with
// wal.ErrCorrupt, while a log of JSON records, or of JSON records
// followed by binary ones, replays under this one. The framing around
// the payload (internal/wal) is unchanged.
const walRows = 0x01

// replayRecord adds the facts of record seq to b. Any failure is
// wal.ErrCorrupt naming the record.
func (svc *service) replayRecord(b *datalog.Batch, seq uint64, payload []byte) error {
	if err := svc.addRecord(b, payload); err != nil {
		return fmt.Errorf("%w: record %d: %v", wal.ErrCorrupt, seq, err)
	}
	return nil
}

// addRecord adds the facts of one record payload to b, by its kind.
func (svc *service) addRecord(b *datalog.Batch, payload []byte) error {
	switch {
	case len(payload) == 0:
		return errors.New("empty payload")
	case payload[0] == walRows:
		return b.AddEncoded(payload[1:])
	case payload[0] != '[':
		return fmt.Errorf("unknown payload kind %#x", payload[0])
	}
	var fb []wireFact
	if err := json.Unmarshal(payload, &fb); err != nil {
		return fmt.Errorf("decoding payload: %v", err)
	}
	facts, ferr := svc.checkFacts(fb)
	if ferr != nil {
		return ferr
	}
	return b.Add(facts...)
}
