package datalog

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/snapshot"
)

// Checkpointing. A monotonic program's fixpoint only ever grows: every
// intermediate interpretation sits between the extensional database and
// the least model, and T_P applied to it converges to the same least
// model (Corollary 3.5 plus the monotonicity of T_P). A snapshot taken
// at any round or component boundary is therefore a sound restart
// point — resuming from it yields exactly the model an uninterrupted
// solve would have produced. The snapshot records a fingerprint of the
// program (source text plus .cost/.default declarations), and Restore
// refuses a checkpoint whose fingerprint disagrees with the loaded
// program, so a stale or foreign checkpoint can never silently yield a
// wrong model.

// Checkpoint/restore error classes, testable with errors.Is.
var (
	// ErrCheckpoint marks a failed checkpoint write during a solve: the
	// sink returned an error and evaluation stopped rather than outrun
	// the last recoverable state. The partial model is still returned.
	ErrCheckpoint = core.ErrCheckpoint
	// ErrSnapshotCorrupt marks a checkpoint that failed structural
	// validation or checksum verification on restore.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotVersion marks a checkpoint written by an incompatible
	// snapshot format version.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrFingerprintMismatch marks a checkpoint taken from a different
	// program than the one attempting to restore it.
	ErrFingerprintMismatch = snapshot.ErrFingerprint
)

// CheckpointSink receives durable snapshots during a solve. FileCheckpoint
// is the standard implementation; tests substitute in-memory sinks.
type CheckpointSink = snapshot.Sink

// FileCheckpoint returns a sink that atomically persists each snapshot
// to path (write to a temp file, fsync, rename), so the file always
// holds a complete, verifiable checkpoint even if the process dies
// mid-write.
func FileCheckpoint(path string) CheckpointSink {
	return &snapshot.FileSink{Path: path}
}

// WithCheckpoint streams durable snapshots of the evolving model to
// sink: at every component boundary, and — when everyRounds > 0 — at
// every everyRounds-th fixpoint round boundary within a component. If a
// checkpoint write fails the solve stops with ErrCheckpoint and the
// partial model.
func WithCheckpoint(sink CheckpointSink, everyRounds int) SolveOption {
	return func(c *solveConfig) {
		c.sink = sink
		c.every = everyRounds
	}
}

// limitsFor finalizes a solveConfig into core.Limits, binding any
// checkpoint sink to this program's fingerprint.
func (p *Program) limitsFor(cfg solveConfig) core.Limits {
	lim := p.lim
	if cfg.sink != nil {
		sink, fp := cfg.sink, p.Fingerprint()
		lim.Checkpoint = func(db *relation.DB, stats core.Stats) error {
			return sink.Write(&snapshot.Snapshot{Fingerprint: fp, Stats: snapStats(stats), DB: db})
		}
		lim.CheckpointEvery = cfg.every
	}
	return lim
}

func snapStats(s core.Stats) snapshot.Stats {
	return snapshot.Stats{Components: s.Components, Rounds: s.Rounds, Firings: s.Firings, Derived: s.Derived}
}

func coreStats(s snapshot.Stats) core.Stats {
	return core.Stats{Components: s.Components, Rounds: s.Rounds, Firings: s.Firings, Derived: s.Derived}
}

// Stats returns the cumulative work that produced this model, carried
// across SolveMore extensions and checkpoint/resume chains.
func (m *Model) Stats() Stats { return m.stats }

// Snapshot serializes the model and its cumulative stats into the
// versioned binary checkpoint format, tagged with the fingerprint of
// the program that computed it. The encoding is deterministic: equal
// models produce identical bytes.
func (m *Model) Snapshot() []byte {
	return snapshot.Encode(&snapshot.Snapshot{
		Fingerprint: m.prog.Fingerprint(),
		Stats:       snapStats(m.stats),
		DB:          m.db,
	})
}

// WriteSnapshot atomically persists the model's snapshot to path,
// stamped with the commit-sequence watermark seq: the serve tier records
// the sequence number of the last assert batch the model subsumes, so a
// recovering server can replay its write-ahead log from seq+1 and
// compact the log behind the checkpoint. Other callers pass 0.
func (m *Model) WriteSnapshot(path string, seq uint64) error {
	return snapshot.WriteFile(path, &snapshot.Snapshot{
		Fingerprint: m.prog.Fingerprint(),
		Stats:       snapStats(m.stats),
		DB:          m.db,
		Seq:         seq,
	})
}

// Restore decodes a checkpoint produced by Snapshot/WithCheckpoint into
// a Model. It fails with ErrSnapshotCorrupt, ErrSnapshotVersion, or
// ErrFingerprintMismatch (testable with errors.Is) rather than ever
// returning a model from a different program. The restored model is a
// sound partial interpretation; pass it to Resume to finish the solve.
func (p *Program) Restore(data []byte) (*Model, error) {
	s, err := snapshot.Decode(data, p.en.Schemas)
	if err != nil {
		return nil, fmt.Errorf("datalog: restore: %w", err)
	}
	if err := s.Verify(p.Fingerprint()); err != nil {
		return nil, fmt.Errorf("datalog: restore: %w", err)
	}
	return p.model(s.DB, coreStats(s.Stats)), nil
}

// RestoreFile is Restore reading the checkpoint from a file; it also
// returns the commit-sequence watermark WriteSnapshot stamped (0 for
// engine checkpoints and version-1 snapshots).
func (p *Program) RestoreFile(path string) (*Model, uint64, error) {
	s, err := snapshot.ReadFile(path, p.en.Schemas)
	if err != nil {
		if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion) {
			return nil, 0, fmt.Errorf("datalog: restore %s: %w", path, err)
		}
		return nil, 0, err
	}
	if err := s.Verify(p.Fingerprint()); err != nil {
		return nil, 0, fmt.Errorf("datalog: restore %s: %w", path, err)
	}
	return p.model(s.DB, coreStats(s.Stats)), s.Seq, nil
}

// Resume runs the fixpoint from a restored (or interrupted) model m
// with the facts of b until convergence, and returns the least model of
// the program over its facts and every fact m and b hold: the model a
// one-shot solve of all of them computes. It is sound because any
// checkpointed interpretation lies between the EDB and the least model
// of a monotonic program, and facts SolveMore accepts only raise that
// model; b's facts are refused as SolveMore refuses them, and m is not
// modified. A nil m is nothing restored (Resume is then SolveContext of
// b's facts), and a nil b adds no facts. Resume takes b over: it accepts
// no more facts afterwards. Stats continue from m's cumulative totals.
// Options (including WithCheckpoint) apply as in SolveContext.
func (p *Program) Resume(ctx context.Context, m *Model, b *Batch, opts ...SolveOption) (*Model, Stats, error) {
	var prev, added *relation.DB
	var base Stats
	if m != nil {
		prev, base = m.db, m.stats
	}
	if b != nil {
		var err error
		if added, err = b.take(p); err != nil {
			return nil, Stats{}, err
		}
	}
	var cfg solveConfig
	for _, o := range opts {
		o(&cfg)
	}
	db, stats, err := p.en.Resume(ctx, prev, added, p.limitsFor(cfg), base)
	return p.model(db, stats), stats, err
}
