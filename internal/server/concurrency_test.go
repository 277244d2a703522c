package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/datalog"
)

// TestConcurrentReadersWithWriter is the concurrency regression test:
// many readers hammer the lock-free read path (Has, Cost, Facts, Match,
// Size over the atomically published model) while one writer loops
// assert batches, each of which swaps in a freshly extended model. Run
// with -race (the Makefile race target does) to catch any mutation of a
// published model or unsynchronized access to shared engine state.
func TestConcurrentReadersWithWriter(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, err := New([]ProgramSpec{{Name: "sp", Source: src}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	svc := s.svcs["sp"]

	const (
		readers       = 8
		writerBatches = 30
		readsPerLoop  = 200
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)

	// Readers: snapshot the current model and read it every way the
	// query endpoints do. Each snapshot must be internally consistent —
	// a model observed at version v never loses tuples (monotonicity)
	// and never changes size while being read.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion := uint64(0)
			lastSize := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < readsPerLoop; i++ {
					st := svc.current()
					size := st.model.Size()
					if st.version < lastVersion || (st.version == lastVersion && size != lastSize) {
						errc <- fmt.Errorf("non-monotonic observation: version %d size %d after version %d size %d",
							st.version, size, lastVersion, lastSize)
						return
					}
					lastVersion, lastSize = st.version, size
					st.model.Has("s", datalog.Sym("a"), datalog.Sym("d"))
					st.model.Cost("s", datalog.Sym("a"), datalog.Sym("d"))
					st.model.Facts("arc")
					st.model.Match("s", datalog.Sym("a"), datalog.Any())
					if size != st.model.Size() {
						errc <- fmt.Errorf("published model mutated under a reader (size changed mid-read)")
						return
					}
				}
			}
		}()
	}

	// Writer: extend the model one fresh edge at a time; every batch
	// converges and swaps atomically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		prev := "d"
		for i := 0; i < writerBatches; i++ {
			node := fmt.Sprintf("n%d", i)
			res, _ := svc.solveAndPublish(context.Background(), []*commitReq{{facts: []datalog.Fact{
				datalog.NewFact("arc", datalog.Sym(prev), datalog.Sym(node), datalog.Num(1)),
			}}})
			if res.err != nil {
				errc <- fmt.Errorf("assert %d: %w", i, res.err)
				return
			}
			prev = node
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the writer is done the chain d -> n0 -> ... -> n29 exists, so
	// the final model answers s(a, n29) = 4 + 30.
	st := svc.current()
	if st.version != writerBatches+1 {
		t.Fatalf("final version %d, want %d", st.version, writerBatches+1)
	}
	last := fmt.Sprintf("n%d", writerBatches-1)
	cost, ok := st.model.Cost("s", datalog.Sym("a"), datalog.Sym(last))
	n, _ := cost.Float()
	if !ok || n != float64(4+writerBatches) {
		t.Fatalf("s(a, %s) = %v (%v), want %d", last, cost, ok, 4+writerBatches)
	}
}

// TestConcurrentHTTPReadsDuringAsserts drives the same interleaving
// through the HTTP API: readers must observe each generation atomically
// (the same version always reports the same fact count).
func TestConcurrentHTTPReadsDuringAsserts(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	countAt := map[float64]float64{} // version -> arc count observed

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, resp := post(t, ts.URL+"/v1/query", `{"op":"facts","pred":"arc"}`)
				if code != 200 {
					return
				}
				v, c := resp["version"].(float64), resp["count"].(float64)
				mu.Lock()
				if prev, ok := countAt[v]; ok && prev != c {
					mu.Unlock()
					t.Errorf("version %v reported %v and %v arcs: torn read", v, prev, c)
					return
				}
				countAt[v] = c
				mu.Unlock()
			}
		}()
	}

	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["m%d","m%d",1]}]}`, i, i+1)
		if code, resp := post(t, ts.URL+"/v1/assert", body); code != 200 {
			t.Fatalf("assert %d: %d %v", i, code, resp)
		}
	}
	close(stop)
	wg.Wait()

	// Versions increase by exactly one arc per assert batch.
	mu.Lock()
	defer mu.Unlock()
	for v, c := range countAt {
		if want := 5 + v - 1; c != want {
			t.Errorf("version %v saw %v arcs, want %v", v, c, want)
		}
	}
}
