package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// newTestHTTP serves s without materializing it first, for tests that
// exercise the pre-ready states.
func newTestHTTP(t testing.TB, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// postRaw posts without decoding, returning the raw response for
// header assertions.
func postRaw(t testing.TB, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestAssertQueueFullSheds fills the commit queue behind a stalled
// writer and checks that overflow batches are rejected immediately with
// 429 + Retry-After instead of queueing unboundedly.
func TestAssertQueueFullSheds(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}},
		Config{AssertQueue: 2})

	// Stall the writer so the first batch occupies the committer and
	// the queue (capacity 2) fills behind it.
	faults.Arm(faults.Fault{Point: faults.ServerCommitStall, Delay: 500 * time.Millisecond, Sticky: true})

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	var sawRetryAfter bool
	const writers = 10
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["f%d","f%d",1]}]}`, i, i)
			resp := postRaw(t, ts.URL+"/v1/assert", body)
			mu.Lock()
			codes[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "" {
				sawRetryAfter = true
			}
			mu.Unlock()
		}(i)
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
	}
	wg.Wait()

	if codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no batch was shed with 429; status counts: %v", codes)
	}
	if codes[http.StatusOK] == 0 {
		t.Fatalf("every batch was shed; status counts: %v", codes)
	}
	if !sawRetryAfter {
		t.Fatal("429 responses must carry a Retry-After header")
	}

	// The shed counter moved.
	if got := s.metrics.shed.With("/v1/assert", "queue_full").Value(); got == 0 {
		t.Fatal("mdl_shed_total{reason=queue_full} did not move")
	}
}

// TestReadInflightCapSheds saturates the per-program read gate with
// slow-encoding reads and checks excess reads shed 503 + Retry-After
// while the cap holds.
func TestReadInflightCapSheds(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}},
		Config{MaxInflight: 2})

	// Every read sleeps in the encode fault, holding its slot.
	faults.Arm(faults.Fault{Point: faults.ServerReadEncode, Delay: 300 * time.Millisecond, Sticky: true})

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	var sawRetryAfter bool
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postRaw(t, ts.URL+"/v1/query", `{"op":"has","pred":"s","args":["a","d"]}`)
			mu.Lock()
			codes[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
				sawRetryAfter = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if codes[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("no read was shed at the in-flight cap; status counts: %v", codes)
	}
	if codes[http.StatusOK] == 0 {
		t.Fatalf("every read was shed; status counts: %v", codes)
	}
	if !sawRetryAfter {
		t.Fatal("shed reads must carry Retry-After")
	}
}

// TestReadDeadlineHonored is the regression test for the PR-3 bug
// where Config.RequestTimeout only bounded asserts: a read that
// overruns the deadline (simulated slow encode) must answer the
// structured cancellation, on every read endpoint.
func TestReadDeadlineHonored(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}},
		Config{RequestTimeout: 50 * time.Millisecond})

	reads := []struct {
		method, path, body string
	}{
		{"POST", "/v1/query", `{"op":"has","pred":"s","args":["a","d"]}`},
		{"POST", "/v1/explain", `{"pred":"s","args":["a","d"]}`},
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/program", ""},
	}
	for _, rd := range reads {
		t.Run(rd.path, func(t *testing.T) {
			faults.Reset()
			t.Cleanup(faults.Reset)
			faults.Arm(faults.Fault{Point: faults.ServerReadEncode, Delay: time.Second})
			start := time.Now()
			var resp *http.Response
			if rd.method == "GET" {
				r, err := http.Get(ts.URL + rd.path)
				if err != nil {
					t.Fatal(err)
				}
				resp = r
				defer r.Body.Close()
			} else {
				resp = postRaw(t, ts.URL+rd.path, rd.body)
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s with slow encode: status %d, want 503", rd.path, resp.StatusCode)
			}
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Fatalf("%s waited out the full stall (%v); deadline not honored", rd.path, elapsed)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s deadline response missing Retry-After", rd.path)
			}
		})
	}
}

// TestHealthzLivenessVsReadyz pins the liveness/readiness split:
// /healthz stays 200 before materialization and while draining;
// /readyz answers 503 in both states and 200 only in between.
func TestHealthzLivenessVsReadyz(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, err := New([]ProgramSpec{{Name: "sp", Source: src}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)

	code, resp := get(t, ts+"/healthz")
	if code != http.StatusOK || resp["state"] != "materializing" {
		t.Fatalf("pre-materialize healthz: %d %v", code, resp)
	}
	code, resp = get(t, ts+"/readyz")
	if code != http.StatusServiceUnavailable || resp["status"] != "materializing" {
		t.Fatalf("pre-materialize readyz: %d %v", code, resp)
	}

	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if code, resp = get(t, ts+"/readyz"); code != http.StatusOK || resp["status"] != "ok" {
		t.Fatalf("ready readyz: %d %v", code, resp)
	}

	s.BeginDrain()
	if code, resp = get(t, ts+"/healthz"); code != http.StatusOK || resp["state"] != "draining" {
		t.Fatalf("draining healthz: %d %v", code, resp)
	}
	if code, resp = get(t, ts+"/readyz"); code != http.StatusServiceUnavailable || resp["status"] != "draining" {
		t.Fatalf("draining readyz: %d %v", code, resp)
	}

	// Draining sheds asserts with 503 but reads keep working.
	resp2 := postRaw(t, ts+"/v1/assert", `{"facts":[{"pred":"arc","args":["z","z",1]}]}`)
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("assert while draining: %d", resp2.StatusCode)
	}
	if code, _ = post(t, ts+"/v1/query", `{"op":"has","pred":"s","args":["a","d"]}`); code != http.StatusOK {
		t.Fatalf("read while draining: %d, reads must not shed", code)
	}
}
