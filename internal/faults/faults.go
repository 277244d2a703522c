// Package faults is a test-oriented fault-injection registry: named
// failure points compiled into production code paths (checkpoint sinks,
// fixpoint round boundaries, snapshot restore) that do nothing until a
// test arms them. Crash-recovery tests use it to kill an evaluation
// mid-fixpoint deterministically, and to simulate sink write errors and
// torn checkpoint files, without platform-specific process killing.
//
// The zero state is fully disarmed and the hot-path cost of a Check call
// is a single atomic load, so the hooks are safe to leave in release
// builds.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known failure points. Constants live here (not next to the code
// they interrupt) so tests can arm a point without importing the
// package under test's internals.
const (
	// CoreRound fires at fixpoint round boundaries in the core engine
	// (after the round's insertions, before its checkpoint). Arm with
	// Panic to simulate a crash at round N.
	CoreRound = "core.round"
	// CoreParallelWorker fires at the start of every component the
	// component walk evaluates, on whichever worker. Arm with Panic to
	// exercise the worker-crash containment path (the panic must become
	// a structured ErrInternal and no partial model may be published).
	CoreParallelWorker = "core.parallel.worker"
	// SnapshotSinkWrite fires at the start of every checkpoint sink
	// write. Arm with an error to simulate a full disk or dead volume.
	SnapshotSinkWrite = "snapshot.sink.write"
	// SnapshotRestoreRead fires while reading a checkpoint file back;
	// an armed fault mangles the bytes (truncation by default),
	// simulating a torn or corrupted file.
	SnapshotRestoreRead = "snapshot.restore.read"
	// ServerCommitStall fires at the start of every group-commit drain
	// in the serve tier, before queued batches are merged. Arm with
	// Delay to stall the writer so concurrent batches pile up in the
	// queue (the group-commit and queue-full paths), or with Err to
	// fail the whole drain.
	ServerCommitStall = "server.commit.stall"
	// ServerCommitSolve fires after batches are merged, immediately
	// before the incremental solve. Arm with Delay for a slow solve
	// (deadline and backpressure paths) or Err for a failing one.
	ServerCommitSolve = "server.commit.solve"
	// ServerCommitPublish fires after a commit's solve has converged,
	// immediately before the atomic model swap. Arm with Err to
	// simulate a failed swap: the published model must stay untouched
	// (no partial generation) and every waiting batch must still get a
	// definite outcome.
	ServerCommitPublish = "server.commit.publish"
	// ServerReadEncode fires on the serve tier's read path before the
	// response body is encoded. Arm with Delay to simulate a slow
	// encode so per-request deadlines on read handlers can be
	// exercised deterministically.
	ServerReadEncode = "server.read.encode"
	// SnapshotDirSync fires before the parent-directory fsync that
	// makes a checkpoint's atomic rename durable. Arm with Err to
	// simulate a directory that cannot be synced.
	SnapshotDirSync = "snapshot.dir.sync"
	// WALAppendWrite fires at the start of every WAL record append. Arm
	// with Err to simulate a failed log write: the batch must answer
	// 500, the published model must stay untouched, and readiness must
	// trip.
	WALAppendWrite = "wal.append.write"
	// WALFsync fires at the start of every WAL fsync (the group-commit
	// sync before acks). Arm with Delay for a stalling disk or Err for
	// a dying one.
	WALFsync = "wal.fsync"
	// WALRecoverRead fires while a WAL segment is read back during
	// recovery; an armed fault mangles the bytes (truncation by
	// default), simulating a torn tail or mid-log bit rot.
	WALRecoverRead = "wal.recover.read"
	// ServerWALReplay fires once per batch replayed from the WAL during
	// warm start. Arm with Delay to hold a server in the "replaying"
	// readiness state so /readyz progress reporting can be observed.
	ServerWALReplay = "server.wal.replay"
)

// ErrInjected is the default error returned by armed error-mode faults.
var ErrInjected = errors.New("faults: injected failure")

// Fault describes what an armed point does when hit.
type Fault struct {
	// Point names the failure point (one of the constants above, or any
	// string agreed between the code under test and the test).
	Point string
	// After fires the fault on the After-th Check of the point
	// (1-based); 0 means the first.
	After int
	// Panic makes the fault panic instead of returning an error,
	// simulating a crash that unwinds the stack.
	Panic bool
	// Sticky keeps the fault firing on every hit at or past After;
	// otherwise it fires exactly once.
	Sticky bool
	// Err is the error returned when the fault fires (ErrInjected when
	// nil). Ignored in Panic mode.
	Err error
	// Delay, when positive, makes the fault stall for that long before
	// acting. A pure stall (Delay set, Err nil, Panic false) returns
	// nil after sleeping — it models slowness, not failure — while
	// Delay combined with Err or Panic delays the failure.
	Delay time.Duration
	// Hook, when non-nil, runs when the fault fires, in the goroutine
	// that hit the point, before any Delay. A test can use it to learn
	// that code reached the point and to hold it there. Like a pure
	// stall, a fault with only Hook set returns nil.
	Hook func()
	// Mangle transforms bytes passed through Apply when the fault
	// fires; nil truncates to half length.
	Mangle func([]byte) []byte
}

type state struct {
	Fault
	hits int
}

var (
	mu     sync.Mutex
	points map[string]*state
	armed  atomic.Int32 // fast-path gate: number of armed points
)

// Arm installs f at its Point, replacing any previous fault there.
func Arm(f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = map[string]*state{}
	}
	if f.After <= 0 {
		f.After = 1
	}
	if _, exists := points[f.Point]; !exists {
		armed.Add(1)
	}
	points[f.Point] = &state{Fault: f}
}

// Disarm removes the fault at point, if any.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armed.Add(-1)
	}
}

// Reset disarms every point. Tests should defer it after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(int32(-len(points)))
	points = nil
}

// hit counts a hit at point and reports the fault if it fired.
func hit(point string) (Fault, bool) {
	mu.Lock()
	defer mu.Unlock()
	s, ok := points[point]
	if !ok {
		return Fault{}, false
	}
	s.hits++
	if s.hits < s.After {
		return Fault{}, false
	}
	if s.hits > s.After && !s.Sticky {
		return Fault{}, false
	}
	return s.Fault, true
}

// Check counts a hit at point: it returns the armed error (or panics,
// in Panic mode) when the fault fires, and nil otherwise. Disarmed
// points cost one atomic load. A fault with only Delay set stalls and
// then returns nil.
func Check(point string) error {
	return CheckCtx(context.Background(), point)
}

// CheckCtx is Check with an interruptible stall: a Delay-mode fault
// sleeps until the delay elapses or ctx is done, whichever comes
// first, and reports ctx.Err() when cut short. Deadlined code paths
// (drain timeouts, per-request deadlines) should prefer it so an
// injected stall cannot outlive the caller's budget.
func CheckCtx(ctx context.Context, point string) error {
	if armed.Load() == 0 {
		return nil
	}
	f, fired := hit(point)
	if !fired {
		return nil
	}
	if f.Hook != nil {
		f.Hook()
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if f.Panic {
		panic(fmt.Sprintf("faults: injected panic at %s (hit %d)", f.Point, f.After))
	}
	if f.Err != nil {
		return f.Err
	}
	if f.Delay > 0 || f.Hook != nil {
		return nil
	}
	return fmt.Errorf("%w at %s", ErrInjected, point)
}

// Apply passes data through point: when the armed fault fires, the
// bytes are transformed by its Mangle function (truncated to half
// length when nil), simulating a torn write or bit rot on restore.
func Apply(point string, data []byte) []byte {
	if armed.Load() == 0 {
		return data
	}
	f, fired := hit(point)
	if !fired {
		return data
	}
	if f.Mangle != nil {
		return f.Mangle(data)
	}
	return data[:len(data)/2]
}

// Writer wraps w so that writes fail with err (ErrInjected when nil)
// once n bytes have been written through it — a deterministic short
// write for exercising partial-persistence paths.
func Writer(w io.Writer, n int, err error) io.Writer {
	if err == nil {
		err = ErrInjected
	}
	return &shortWriter{w: w, left: n, err: err}
}

type shortWriter struct {
	w    io.Writer
	left int
	err  error
}

func (s *shortWriter) Write(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, s.err
	}
	if len(p) <= s.left {
		n, err := s.w.Write(p)
		s.left -= n
		return n, err
	}
	n, err := s.w.Write(p[:s.left])
	s.left -= n
	if err != nil {
		return n, err
	}
	return n, s.err
}
