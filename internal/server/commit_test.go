package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/datalog"
	"repro/internal/faults"
)

// promValue extracts one sample line's value from a Prometheus text
// exposition, matching on metric name + a label fragment.
func promValue(t testing.TB, text, name, labelFrag string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || !strings.Contains(line, labelFrag) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
			return v
		}
	}
	return -1
}

func promText(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGroupCommitCoalescesConcurrentBatches stalls the committer so
// concurrent assert batches pile up in the queue, then checks that (a)
// every batch is acked, (b) they share far fewer published generations
// than batches (group commit), (c) the batch-size histogram recorded a
// drain bigger than one batch, and (d) every asserted fact is in the
// final model.
func TestGroupCommitCoalescesConcurrentBatches(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	// Stall the first drain long enough for every writer to enqueue
	// behind it.
	faults.Arm(faults.Fault{Point: faults.ServerCommitStall, Delay: 300 * time.Millisecond})

	const writers = 12
	var wg sync.WaitGroup
	versions := make([]uint64, writers)
	coalesced := make([]int, writers)
	errs := make([]error, writers)
	// One request primes the stalled drain; the rest queue behind it.
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["g%d","h%d",1]}]}`, i, i)
			resp, err := http.Post(ts.URL+"/v1/assert", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %v", resp.StatusCode, out)
				return
			}
			versions[i] = uint64(out["version"].(float64))
			coalesced[i] = int(out["coalesced"].(float64))
		}(i)
		if i == 0 {
			time.Sleep(30 * time.Millisecond) // let the first batch start its drain
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	// All batches acked; generations must be far fewer than batches.
	gens := map[uint64]bool{}
	maxCoalesced := 0
	for i := range versions {
		gens[versions[i]] = true
		if coalesced[i] > maxCoalesced {
			maxCoalesced = coalesced[i]
		}
	}
	if len(gens) >= writers {
		t.Fatalf("%d writers produced %d generations; group commit did not coalesce", writers, len(gens))
	}
	if maxCoalesced < 2 {
		t.Fatalf("max coalesced %d, want >= 2", maxCoalesced)
	}

	// Every asserted fact must be in the final model.
	svc := s.svcs["sp"]
	st := svc.current()
	for i := 0; i < writers; i++ {
		if !st.model.Has("arc", datalog.Sym(fmt.Sprintf("g%d", i)), datalog.Sym(fmt.Sprintf("h%d", i))) {
			t.Fatalf("acked fact arc(g%d, h%d, 1) missing from final model", i, i)
		}
	}

	// The histogram must have observed a drain with more than one batch:
	// with bucket bounds {1, 2, ...}, count(le="1") < total count.
	text := promText(t, ts.URL)
	le1 := promValue(t, text, "mdl_commit_batch_size_bucket", `le="1"`)
	total := promValue(t, text, "mdl_commit_batch_size_count", `program="sp"`)
	if le1 < 0 || total < 0 {
		t.Fatalf("commit batch-size histogram not exposed:\n%s", text)
	}
	if le1 >= total {
		t.Fatalf("batch-size histogram saw only single-batch drains (le1=%v total=%v)", le1, total)
	}
}

// TestGroupCommitPoisonBatchIsolated queues a non-monotone batch (an
// insert into the derived predicate s) among good batches: the merged
// solve fails, the committer retries each batch alone, the poison batch
// answers 409/static, and every good batch still commits. The
// committer's rejection log line names the poison batch's X-Request-Id.
func TestGroupCommitPoisonBatchIsolated(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	var log lockedBuffer
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}},
		Config{Logger: slog.New(slog.NewTextHandler(&log, nil))})

	faults.Arm(faults.Fault{Point: faults.ServerCommitStall, Delay: 300 * time.Millisecond})

	type result struct {
		code int
		body map[string]any
	}
	const good = 5
	results := make([]result, good+1)
	var wg sync.WaitGroup
	post := func(i int, body string) {
		defer wg.Done()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/assert", strings.NewReader(body))
		req.Header.Set("X-Request-Id", fmt.Sprintf("batch-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		results[i] = result{resp.StatusCode, out}
	}
	// Prime the stalled drain with a good batch, then queue the poison
	// batch among more good ones.
	wg.Add(1)
	go post(0, `{"facts":[{"pred":"arc","args":["p0","q0",1]}]}`)
	time.Sleep(30 * time.Millisecond)
	wg.Add(1)
	go post(good, `{"facts":[{"pred":"s","args":["x","y",1]}]}`) // derived: non-monotone
	for i := 1; i < good; i++ {
		wg.Add(1)
		go post(i, fmt.Sprintf(`{"facts":[{"pred":"arc","args":["p%d","q%d",1]}]}`, i, i))
	}
	wg.Wait()

	for i := 0; i < good; i++ {
		if results[i].code != http.StatusOK {
			t.Fatalf("good batch %d got %d %v — poisoned by its neighbor", i, results[i].code, results[i].body)
		}
	}
	if results[good].code != http.StatusConflict {
		t.Fatalf("poison batch got %d %v, want 409", results[good].code, results[good].body)
	}
	errBody := results[good].body["error"].(map[string]any)
	if errBody["code"] != "static" {
		t.Fatalf("poison batch code %v, want static", errBody["code"])
	}
	// The committer logs the rejection before it answers the batch.
	if want := fmt.Sprintf("batch from request batch-%d rejected", good); !strings.Contains(log.String(), want) {
		t.Fatalf("no %q in the server log:\n%s", want, log.String())
	}

	// All good facts present, the poison fact absent.
	st := s.svcs["sp"].current()
	for i := 0; i < good; i++ {
		if !st.model.Has("arc", datalog.Sym(fmt.Sprintf("p%d", i)), datalog.Sym(fmt.Sprintf("q%d", i))) {
			t.Fatalf("good fact arc(p%d, …) missing after isolation retry", i)
		}
	}
}

// lockedBuffer is an io.Writer safe to read while handlers log.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCommitSoloEqualsGrouped asserts the semantic core of group
// commit: the least model after coalescing N deltas in one drain is
// identical to committing them one at a time (monotonicity of T_P).
func TestCommitSoloEqualsGrouped(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	mk := func() *service {
		s, err := New([]ProgramSpec{{Name: "sp", Source: src}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Materialize(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s.svcs["sp"]
	}
	var deltas [][]datalog.Fact
	for i := 0; i < 6; i++ {
		deltas = append(deltas, []datalog.Fact{
			datalog.NewFact("arc", datalog.Sym(fmt.Sprintf("u%d", i)), datalog.Sym(fmt.Sprintf("u%d", i+1)), datalog.Num(float64(i+1))),
			datalog.NewFact("arc", datalog.Sym("d"), datalog.Sym(fmt.Sprintf("u%d", i)), datalog.Num(2)),
		})
	}

	solo := mk()
	for _, d := range deltas {
		if res, _ := solo.solveAndPublish(context.Background(), []*commitReq{{facts: d}}); res.err != nil {
			t.Fatal(res.err)
		}
	}
	grouped := mk()
	group := make([]*commitReq, len(deltas))
	for i, d := range deltas {
		group[i] = &commitReq{facts: d}
	}
	if res, _ := grouped.solveAndPublish(context.Background(), group); res.err != nil {
		t.Fatal(res.err)
	}

	a, b := solo.current().model.String(), grouped.current().model.String()
	if a != b {
		t.Fatalf("solo and grouped commits disagree:\nsolo:\n%s\ngrouped:\n%s", a, b)
	}
}
