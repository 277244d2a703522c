// Benchmarks for the query-service subsystem: point lookups against a
// materialized shortest-path model, through the model facade and
// through the full HTTP stack.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/server"
)

// BenchmarkServeQuery measures the serving read path on graphs of
// increasing size: Cost/Has point lookups on the materialized model
// directly (the lock-free in-process path) and the same lookup through
// a /v1/query HTTP round trip.
func BenchmarkServeQuery(b *testing.B) {
	for _, n := range []int{32, 128} {
		g := gen.Graph(gen.CycleGraph, n, 4*n, 9, int64(n))
		src := programs.ShortestPath + gen.GraphFacts(g)

		s, err := server.New([]server.ProgramSpec{{Name: "sp", Source: src}}, server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Materialize(context.Background()); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())

		p, err := datalog.Load(src, datalog.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		// Look up an existing tuple so the benchmark measures a hit.
		rows := m.Facts("s")
		if len(rows) == 0 {
			b.Fatal("no s tuples")
		}
		from, to := rows[len(rows)/2][0], rows[len(rows)/2][1]

		b.Run(fmt.Sprintf("model/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := m.Cost("s", from, to); !ok {
					b.Fatal("lookup missed")
				}
			}
		})
		b.Run(fmt.Sprintf("http/n=%d", n), func(b *testing.B) {
			body := fmt.Sprintf(`{"op":"cost","pred":"s","args":[%q,%q]}`, from.String(), to.String())
			client := ts.Client()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		})
		ts.Close()
	}
}

// BenchmarkServeAssert measures the single-writer path: one new edge
// per iteration, each extending the fixpoint incrementally.
func BenchmarkServeAssert(b *testing.B) {
	g := gen.Graph(gen.CycleGraph, 64, 256, 9, 64)
	src := programs.ShortestPath + gen.GraphFacts(g)
	s, err := server.New([]server.ProgramSpec{{Name: "sp", Source: src}}, server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Materialize(context.Background()); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["n1","x%d",3]}]}`, i)
		resp, err := client.Post(ts.URL+"/v1/assert", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// BenchmarkServeRecover measures crash recovery: Materialize of a
// served Example 2.6 over a write-ahead log of 900 two-arc batches, with
// no checkpoint, so every iteration reads and decodes the whole log and
// derives the least model of the base EDB ∪ the logged arcs. The graph
// is a 16-node cycle graph with 48 arcs; each batch adds an arc between
// two fresh nodes and one between existing nodes. allocs/op is pinned by
// scripts/bench_regression.sh (RECOVER_ALLOCS).
func BenchmarkServeRecover(b *testing.B) {
	specs, cfg := recoverLog(b, "")
	benchRecover(b, specs, cfg, func() {})
}

// BenchmarkServeWarmRecover measures a warm restart over the same log
// with a checkpoint taken after 450 of its 900 batches: each iteration
// restores the checkpoint, reads the 450 batches logged past it and runs
// one Resume of the two, then writes the post-replay checkpoint, as every
// restart with a checkpoint path does. The checkpoint file is put back
// between iterations, untimed.
func BenchmarkServeWarmRecover(b *testing.B) {
	ckpt := filepath.Join(b.TempDir(), "sp.snap")
	specs, cfg := recoverLog(b, ckpt)
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		b.Fatal(err)
	}
	benchRecover(b, specs, cfg, func() {
		if err := os.WriteFile(ckpt, snap, 0o644); err != nil {
			b.Fatal(err)
		}
	})
}

// recoverLog serves Example 2.6 over a 16-node, 48-arc cycle graph with
// a write-ahead log, asserts 900 two-arc batches over HTTP — flushing a
// checkpoint to ckpt after the first 450 when ckpt is set — and closes
// the server without a final checkpoint. It returns the spec and config
// a restart recovers with.
func recoverLog(b *testing.B, ckpt string) ([]server.ProgramSpec, server.Config) {
	const n, batches = 16, 900
	src := programs.ShortestPath + gen.GraphFacts(gen.Graph(gen.CycleGraph, n, 48, 9, 1))
	specs := []server.ProgramSpec{{Name: "sp", Source: src, Checkpoint: ckpt}}
	cfg := server.Config{WALDir: b.TempDir(), WALFsync: server.FsyncNone}
	s, err := server.New(specs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Materialize(context.Background()); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	r := rand.New(rand.NewSource(1))
	for k := 0; k < batches; k++ {
		if ckpt != "" && k == batches/2 {
			if err := s.FlushCheckpoints(); err != nil {
				b.Fatal(err)
			}
		}
		body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["f%d","g%d",%d]},{"pred":"arc","args":["v%d","v%d",%d]}]}`,
			k, k, 1+r.Intn(9), r.Intn(n), r.Intn(n), 1+r.Intn(9))
		resp, err := ts.Client().Post(ts.URL+"/v1/assert", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("batch %d: status %d", k, resp.StatusCode)
		}
		resp.Body.Close()
	}
	ts.Close()
	s.Close()
	return specs, cfg
}

// benchRecover times Materialize of a fresh server over specs and cfg,
// running reset untimed before each restart.
func benchRecover(b *testing.B, specs []server.ProgramSpec, cfg server.Config, reset func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reset()
		s, err := server.New(specs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Materialize(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
