// The serve subcommand: a long-lived query service over materialized
// models.
//
// Usage:
//
//	mdl serve [flags] program.mdl [more.mdl ...]
//
// Each positional file is served as its own program, named after its
// base name (shortestpath.mdl -> "shortestpath"); with -join all files
// are concatenated into a single program, as the batch CLI does. The
// least model of every program is materialized once at startup (or
// warm-started from a PR-2 snapshot), then concurrent readers query it
// lock-free over HTTP/JSON while asserts extend it through a
// single-writer path. See docs/SERVER.md for the API.
//
// Flags:
//
//	-addr a        listen address (default 127.0.0.1:8317)
//	-join          serve all files concatenated as one program
//	-name n        program name with -join (default: first file's base name)
//	-eps ε         numeric convergence tolerance
//	-max-rounds N  fixpoint round bound per component
//	-max-facts N   derivation budget per solve and per assert batch; a
//	               restart's recovery is one solve
//	-timeout d     wall-clock budget per solve and per assert batch; a
//	               restart's recovery is one solve
//	-checkpoint f  warm-start from f when it exists; flush a final
//	               snapshot to f on graceful shutdown (single program only)
//	-resume f      warm-start from f, which must exist (single program only)
//	-wal DIR       durable write-ahead log: every acked assert batch is
//	               appended (and fsynced per -wal-fsync) under DIR/<name>/
//	               before the ack; a restart restores the checkpoint once,
//	               reads the batches past its watermark once and runs one
//	               fixpoint of the two (docs/SERVER.md, "Warm start and
//	               graceful shutdown") — acked batches survive crashes
//	-wal-fsync p   fsync policy: batch (one fsync per group-commit
//	               drain, before any batch in it is acked; default) or
//	               none (OS-paced; a power cut may lose recently acked
//	               batches)
//	-wal-segment N rotate log segments at N bytes (default 64 MiB)
//	-assert-queue N   commit-queue depth per program; full queue sheds
//	                  asserts with 429 (default 64)
//	-max-inflight N   concurrent reads per program before shedding with
//	                  503 (0 = unlimited)
//	-drain-timeout d  shutdown budget for queued assert batches before
//	                  in-flight commits are canceled (default 10s)
//	-log-format f  structured request-log format: text (default) or json
//	-slow-request d  log requests slower than d at warn level (0 = off)
//	-pprof-addr a  serve net/http/pprof on its own listener at address a
//
// SIGINT/SIGTERM shut the server down gracefully: admission closes
// (/readyz flips to 503, new asserts shed), queued assert batches
// drain — every batch is acked or rejected, never dropped — in-flight
// requests finish, and with -checkpoint set a final snapshot is
// flushed so the next start resumes the accumulated model. Exit codes
// match the batch CLI: 0 clean shutdown, 1 usage, 2 parse, 3 static,
// 4 evaluation failure at startup, 5 checkpoint/restore failure, 6 an
// unusable write-ahead log (mid-log corruption, or a log whose records
// disagree with the checkpoint watermark); a torn tail is repaired
// silently, corruption anywhere else refuses to start rather than
// serving a model missing acked history.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/datalog"
	"repro/internal/server"
	"repro/internal/wal"
)

// serveListening, when set (by tests), receives the bound address once
// the server is accepting connections.
var serveListening func(addr net.Addr)

func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdl serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8317", "listen address")
	join := fs.Bool("join", false, "serve all files concatenated as one program")
	name := fs.String("name", "", "program name with -join")
	eps := fs.Float64("eps", 0, "numeric convergence tolerance")
	maxRounds := fs.Int("max-rounds", 0, "fixpoint round bound per component")
	maxFacts := fs.Int64("max-facts", 0, "derivation budget per solve and per assert batch (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per solve and per assert batch (0 = none)")
	ckptPath := fs.String("checkpoint", "", "warm-start from this snapshot when present; flush to it on shutdown")
	resumePath := fs.String("resume", "", "warm-start from this snapshot (must exist)")
	walDir := fs.String("wal", "", "write-ahead log directory (empty = no durability beyond checkpoints)")
	walFsync := fs.String("wal-fsync", "", "wal fsync policy: batch (default) or none")
	walSegment := fs.Int64("wal-segment", 0, "wal segment rotation size in bytes (default 64 MiB)")
	assertQueue := fs.Int("assert-queue", 0, "commit-queue depth per program; a full queue sheds asserts with 429 (default 64)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent reads per program before shedding with 503 (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "shutdown budget for draining queued assert batches")
	logFormat := fs.String("log-format", "text", "structured request-log format: text or json")
	slowReq := fs.Duration("slow-request", 0, "log requests slower than this threshold at warn level (0 = off)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (separate listener)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "mdl serve:", msg)
		return exitUsage
	}
	if !(*eps >= 0) || math.IsInf(*eps, 1) {
		return usage("-eps must be a finite number ≥ 0")
	}
	if *maxRounds < 0 {
		return usage("-max-rounds must be ≥ 0")
	}
	if *maxFacts < 0 {
		return usage("-max-facts must be ≥ 0")
	}
	if *timeout < 0 {
		return usage("-timeout must be ≥ 0")
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: mdl serve [flags] program.mdl ...")
		fs.PrintDefaults()
		return exitUsage
	}
	if *name != "" && !*join {
		return usage("-name only applies with -join")
	}
	if *logFormat != "text" && *logFormat != "json" {
		return usage("-log-format must be text or json")
	}
	if *slowReq < 0 {
		return usage("-slow-request must be ≥ 0")
	}
	if *assertQueue < 0 {
		return usage("-assert-queue must be ≥ 0")
	}
	if *maxInflight < 0 {
		return usage("-max-inflight must be ≥ 0")
	}
	if *drainTimeout < 0 {
		return usage("-drain-timeout must be ≥ 0")
	}
	if *walDir == "" && (*walFsync != "" || *walSegment != 0) {
		return usage("-wal-fsync/-wal-segment only apply with -wal")
	}
	if *walSegment < 0 {
		return usage("-wal-segment must be ≥ 0")
	}
	fsyncPolicy, err := server.ParseFsyncPolicy(*walFsync)
	if err != nil {
		return usage("-wal-fsync: " + err.Error())
	}

	opts := datalog.Options{
		Epsilon:     *eps,
		MaxRounds:   *maxRounds,
		MaxFacts:    *maxFacts,
		MaxDuration: *timeout,
	}
	specs, code := serveSpecs(fs.Args(), *join, *name, opts, stderr)
	if code != exitOK {
		return code
	}
	if (*ckptPath != "" || *resumePath != "") && len(specs) != 1 {
		return usage("-checkpoint/-resume apply to a single program; use -join or pass one file")
	}
	if len(specs) == 1 {
		specs[0].Checkpoint = *ckptPath
		specs[0].Resume = *resumePath
	}

	// Logging: the server's request records and notable events go to
	// one slog handler, json or text; the command's own lines (serving,
	// drain, shutdown) keep the plain "mdl serve:" form in text mode.
	cfg := server.Config{
		RequestTimeout:  *timeout,
		SlowRequest:     *slowReq,
		AssertQueue:     *assertQueue,
		MaxInflight:     *maxInflight,
		WALDir:          *walDir,
		WALFsync:        fsyncPolicy,
		WALSegmentBytes: *walSegment,
	}
	var logf func(format string, a ...any)
	if *logFormat == "json" {
		logger := slog.New(slog.NewJSONHandler(stderr, nil))
		cfg.Logger = logger
		logf = func(format string, a ...any) { logger.Info(fmt.Sprintf(format, a...)) }
	} else {
		cfg.Logger = slog.New(slog.NewTextHandler(stderr, nil))
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, "mdl serve: "+format+"\n", a...) }
	}
	if *pprofAddr != "" {
		closer, perr := startPprof(*pprofAddr, stderr)
		if perr != nil {
			fmt.Fprintln(stderr, "mdl serve:", perr)
			return exitUsage
		}
		defer closer.Close()
	}
	s, err := server.New(specs, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mdl serve:", err)
		if errors.Is(err, datalog.ErrParse) {
			return exitParse
		}
		return exitStatic
	}
	if err := s.Materialize(ctx); err != nil {
		fmt.Fprintln(stderr, "mdl serve:", err)
		if errors.Is(err, wal.ErrCorrupt) || errors.Is(err, wal.ErrFingerprint) {
			return exitWAL
		}
		if errors.Is(err, datalog.ErrSnapshotCorrupt) || errors.Is(err, datalog.ErrSnapshotVersion) ||
			errors.Is(err, datalog.ErrFingerprintMismatch) || errors.Is(err, os.ErrNotExist) {
			return exitCheckpoint
		}
		return exitEval
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "mdl serve:", err)
		return exitUsage
	}
	logf("serving on http://%s", ln.Addr())
	if serveListening != nil {
		serveListening(ln.Addr())
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Ordered teardown: close admission first (new asserts shed,
		// /readyz flips to 503), run the commit queues dry so every
		// batch already accepted is acked or rejected, then close the
		// listener once the waiting handlers have their outcomes.
		s.BeginDrain()
		if !s.Drain(*drainTimeout) {
			logf("drain deadline (%v) exceeded; in-flight commits canceled", *drainTimeout)
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "mdl serve:", err)
		return exitEval
	}
	<-shutdownDone
	// The committers are done: flush a final snapshot so the accumulated
	// model (initial facts plus every acked assert) survives the restart.
	if err := s.FlushCheckpoints(); err != nil {
		fmt.Fprintln(stderr, "mdl serve:", err)
		return exitCheckpoint
	}
	s.Close()
	logf("shut down cleanly")
	return exitOK
}

// serveSpecs builds the program specs from the positional files.
func serveSpecs(files []string, join bool, name string, opts datalog.Options, stderr io.Writer) ([]server.ProgramSpec, int) {
	if join {
		var src strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(stderr, "mdl serve:", err)
				return nil, exitUsage
			}
			src.Write(b)
			src.WriteByte('\n')
		}
		if name == "" {
			name = programName(files[0])
		}
		return []server.ProgramSpec{{Name: name, Source: src.String(), Options: opts}}, exitOK
	}
	specs := make([]server.ProgramSpec, 0, len(files))
	seen := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(stderr, "mdl serve:", err)
			return nil, exitUsage
		}
		n := programName(f)
		if seen[n] {
			fmt.Fprintf(stderr, "mdl serve: duplicate program name %q (use -join to serve the files as one program)\n", n)
			return nil, exitUsage
		}
		seen[n] = true
		specs = append(specs, server.ProgramSpec{Name: n, Source: string(b), Options: opts})
	}
	return specs, exitOK
}

// programName derives a service name from a file path.
func programName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}
