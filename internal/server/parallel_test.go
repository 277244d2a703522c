package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/datalog"
	"repro/internal/faults"
)

// withProcs sets GOMAXPROCS — and with it the component walk's worker
// count — to n for the rest of the test, restoring it when the test ends.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelEngineServeStress drives the server at GOMAXPROCS 4 over a
// program with independent components (hop beside {path, s}): concurrent
// HTTP readers (queries, lock-free explains re-deriving over the
// published model, metrics scrapes) race against an assert writer while every solve — the cold one and each assert's
// SolveMore — runs the component walk on several workers, sharing the
// relations it does not touch with the published model. Run with -race
// (the Makefile race target does); any unsynchronized state shared
// between walk workers and the lock-free read path surfaces here.
func TestParallelEngineServeStress(t *testing.T) {
	withProcs(t, 4)
	src := loadExample(t, "shortestpath.mdl") + "\nhop(X, Y) :- arc(X, Y, C).\nreach(X, Y) :- s(X, Y, C).\n"
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	const readers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 3 {
				case 0:
					if code, resp := post(t, ts.URL+"/v1/query", `{"op":"facts","pred":"s"}`); code != 200 {
						t.Errorf("query: %d %v", code, resp)
						return
					}
				case 1:
					if code, resp := post(t, ts.URL+"/v1/explain", `{"pred":"s","args":["a","d"]}`); code != 200 {
						t.Errorf("explain: %d %v", code, resp)
						return
					}
				case 2:
					if code, body, _ := getText(t, ts.URL+"/metrics"); code != 200 ||
						!strings.Contains(body, `mdl_engine_firings{program="sp"}`) {
						t.Errorf("metrics scrape missing the engine firings gauge")
						return
					}
				}
			}
		}(r)
	}

	for i := 0; i < 12; i++ {
		body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["p%d","p%d",1]}]}`, i, i+1)
		if code, resp := post(t, ts.URL+"/v1/assert", body); code != 200 {
			t.Fatalf("assert %d: %d %v", i, code, resp)
		}
	}
	close(stop)
	wg.Wait()

	// The concurrent walks must have produced exactly the model a
	// one-worker walk would: spot-check a known shortest path.
	code, resp := post(t, ts.URL+"/v1/query", `{"op":"cost","pred":"s","args":["a","d"]}`)
	if code != 200 || resp["cost"] != 4.0 {
		t.Fatalf("s(a, d) = %v (code %d), want cost 4", resp, code)
	}
}

// TestWorkerPanicNoPartialPublish: a worker crash during materialization
// at GOMAXPROCS 4 must fail Materialize with the structured ErrInternal
// and must not publish any model — readers can never observe a
// half-evaluated interpretation. (A second component with rules makes
// the walk start a worker goroutine.)
func TestWorkerPanicNoPartialPublish(t *testing.T) {
	withProcs(t, 4)
	src := loadExample(t, "shortestpath.mdl") + "\nreach(X, Y) :- s(X, Y, C).\n"
	s, err := New([]ProgramSpec{{Name: "sp", Source: src}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.CoreParallelWorker, Panic: true, Sticky: true})
	defer faults.Reset()
	if err := s.Materialize(context.Background()); !errors.Is(err, datalog.ErrInternal) {
		t.Fatalf("materialize err = %v, want ErrInternal", err)
	}
	if st := s.svcs["sp"].cur.Load(); st != nil {
		t.Fatalf("partial model published after worker crash: version %d", st.version)
	}
}
