package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/gen"
	"repro/internal/programs"
)

// TestRecoveryIsOneSolve: a restart owes the least model of the base
// EDB ∪ every acked batch, and a cold start derives it in one solve of
// that union. Example 2.6 is served over a quarter of a graph's arcs,
// the other arcs are asserted in random-sized batches, and the server
// is closed without a checkpoint. The restarted model must equal a
// one-shot Solve of the base plus the acked facts, with the same rounds,
// firings and derivations: a cold solve followed by a SolveMore of the
// log reaches the same model with more of each. With a checkpoint taken
// halfway, the warm path keeps the same restart contract (docs/SERVER.md
// "Warm start and graceful shutdown"): the model must be equal too, and
// it and its rounds, firings and derivations must equal one Resume of
// the checkpoint with the batches logged past it.
func TestRecoveryIsOneSolve(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("procs=%d/seed=%d", procs, seed), func(t *testing.T) {
				withProcs(t, procs)
				src, batches := recoveryWorkload(seed)
				var acked []datalog.Fact
				for _, b := range batches {
					acked = append(acked, b...)
				}
				p, err := datalog.Load(src, datalog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, wantStats, err := p.Solve(acked...)
				if err != nil {
					t.Fatal(err)
				}

				cold, _ := recoverAfter(t, src, batches, "", len(batches))
				if got := cold.String(); got != want.String() {
					t.Fatalf("cold recovery:\n%s\nwant the one-shot solve:\n%s", got, want)
				}
				got := cold.Stats()
				if got.Rounds != wantStats.Rounds || got.Firings != wantStats.Firings || got.Derived != wantStats.Derived {
					t.Fatalf("cold recovery took rounds=%d firings=%d derived=%d, the one-shot solve rounds=%d firings=%d derived=%d",
						got.Rounds, got.Firings, got.Derived, wantStats.Rounds, wantStats.Firings, wantStats.Derived)
				}

				half := len(batches) / 2
				warm, snap := recoverAfter(t, src, batches, filepath.Join(t.TempDir(), "sp.snap"), half)
				if got := warm.String(); got != want.String() {
					t.Fatalf("warm recovery:\n%s\nwant the one-shot solve:\n%s", got, want)
				}
				restored, err := p.Restore(snap)
				if err != nil {
					t.Fatal(err)
				}
				b := p.NewBatch()
				for _, facts := range batches[half:] {
					if err := b.Add(facts...); err != nil {
						t.Fatal(err)
					}
				}
				one, oneStats, err := p.Resume(context.Background(), restored, b)
				if err != nil {
					t.Fatal(err)
				}
				got = warm.Stats()
				if warm.String() != one.String() || got.Rounds != oneStats.Rounds || got.Firings != oneStats.Firings || got.Derived != oneStats.Derived {
					t.Fatalf("warm recovery took rounds=%d firings=%d derived=%d, one Resume of the checkpoint with the logged batches rounds=%d firings=%d derived=%d",
						got.Rounds, got.Firings, got.Derived, oneStats.Rounds, oneStats.Firings, oneStats.Derived)
				}
			})
		}
	}
}

// recoveryWorkload returns Example 2.6 over a quarter of a random cycle
// graph's arcs and the other arcs, shuffled, in batches of 1 to 6.
func recoveryWorkload(seed int64) (string, [][]datalog.Fact) {
	g := gen.Graph(gen.CycleGraph, 16, 48, 9, seed)
	r := rand.New(rand.NewSource(seed))
	edges := slices.Clone(g.Edges)
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var base strings.Builder
	base.WriteString(programs.ShortestPath)
	split := len(edges) / 4
	for _, e := range edges[:split] {
		fmt.Fprintf(&base, "arc(v%d, v%d, %g).\n", e.From, e.To, e.W)
	}
	var batches [][]datalog.Fact
	for rest := edges[split:]; len(rest) > 0; {
		n := min(1+r.Intn(6), len(rest))
		var b []datalog.Fact
		for _, e := range rest[:n] {
			b = append(b, datalog.NewFact("arc",
				datalog.Sym(fmt.Sprintf("v%d", e.From)), datalog.Sym(fmt.Sprintf("v%d", e.To)), datalog.Num(e.W)))
		}
		batches = append(batches, b)
		rest = rest[n:]
	}
	return base.String(), batches
}

// recoverAfter serves src with a WAL (and the checkpoint path ckpt, if
// any), asserts every batch over HTTP — flushing a checkpoint after the
// first flushAt of them when ckpt is set — closes the server without a
// final checkpoint, and returns the model a restart publishes and the
// checkpoint it restarted from (nil without ckpt).
func recoverAfter(t *testing.T, src string, batches [][]datalog.Fact, ckpt string, flushAt int) (*datalog.Model, []byte) {
	t.Helper()
	cfg := Config{WALDir: t.TempDir()}
	specs := []ProgramSpec{{Name: "sp", Source: src, Checkpoint: ckpt}}
	s1, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	for i, b := range batches {
		if ckpt != "" && i == flushAt {
			if err := s1.FlushCheckpoints(); err != nil {
				t.Fatal(err)
			}
		}
		body := fmt.Sprintf(`{"facts":%s}`, encodeWALPayload(b))
		if code, resp := post(t, ts.URL+"/v1/assert", body); code != 200 {
			t.Fatalf("batch %d: %d %v", i, code, resp)
		}
	}
	ts.Close()
	s1.Close()
	var snap []byte
	if ckpt != "" {
		if snap, err = os.ReadFile(ckpt); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.svcs["sp"].current()
	if st.warm != (ckpt != "") {
		t.Fatalf("restart warm=%v with checkpoint %q", st.warm, ckpt)
	}
	if got, want := s2.svcs["sp"].seq.Load(), uint64(len(batches)); got != want {
		t.Fatalf("recovered seq %d, want %d", got, want)
	}
	return st.model, snap
}
