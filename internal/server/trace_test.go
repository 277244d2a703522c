package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// postTraced posts an assert with a traceparent header and returns the
// response status, body, and echoed X-Trace-Id.
func postTraced(t testing.TB, url, body, traceparent string) (int, map[string]any, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out, resp.Header.Get("X-Trace-Id")
}

// waitForTrace polls the flight recorder for a finished trace: the
// record is added after the response is flushed to the client, so the
// client-side view can briefly race it.
func waitForTrace(t testing.TB, s *Server, traceID string) obs.TraceRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, rec := range s.recorder.Snapshot() {
			if rec.TraceID.String() == traceID {
				return rec
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("trace %s never reached the flight recorder", traceID)
	return obs.TraceRecord{}
}

// checkTraceConsistent asserts the structural invariants every finished
// trace must satisfy: exactly one root, every parent resolves within
// the same trace, no span escapes the root's window.
func checkTraceConsistent(t testing.TB, rec obs.TraceRecord) {
	t.Helper()
	if len(rec.Spans) == 0 {
		t.Fatal("empty trace record")
	}
	root := rec.Root()
	byID := map[obs.SpanID]obs.Span{}
	for _, sp := range rec.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range rec.Spans {
		if sp.ID == root.ID {
			if sp.Parent != rec.Remote {
				t.Fatalf("root parent %v != remote %v", sp.Parent, rec.Remote)
			}
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Fatalf("span %q (%v) has parent %v outside trace %v", sp.Name, sp.ID, sp.Parent, rec.TraceID)
		}
		if sp.Start.Before(root.Start.Add(-time.Millisecond)) || sp.End.After(root.End.Add(time.Millisecond)) {
			t.Fatalf("span %q [%v, %v] escapes root window [%v, %v]", sp.Name, sp.Start, sp.End, root.Start, root.End)
		}
		if sp.End.Before(sp.Start) {
			t.Fatalf("span %q ends before it starts", sp.Name)
		}
	}
}

// TestAssertTraceEndToEnd is the acceptance check: one traced
// /v1/assert against a WAL-backed program produces a single trace whose
// spans cover admission, queue, WAL append + fsync, the solve (with
// nested component/round/rule/operator spans), and publish, with
// correct parentage and durations consistent with the request latency.
func TestAssertTraceEndToEnd(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t,
		[]ProgramSpec{{Name: "sp", Source: src}},
		Config{WALDir: t.TempDir()})

	inbound := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	code, body, traceID := postTraced(t, ts.URL+"/v1/assert",
		`{"program":"sp","facts":[{"pred":"arc","args":["d","e",1]}]}`, inbound)
	if code != http.StatusOK {
		t.Fatalf("assert got %d: %v", code, body)
	}
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace id", traceID)
	}

	rec := waitForTrace(t, s, traceID)
	checkTraceConsistent(t, rec)
	if rec.Remote.String() != "00f067aa0ba902b7" {
		t.Fatalf("remote parent = %v, want the inbound span id", rec.Remote)
	}
	root := rec.Root()
	if root.Name != "http /v1/assert" {
		t.Fatalf("root span %q", root.Name)
	}

	// Every commit phase shows up exactly once, parented on the root.
	for _, name := range []string{"admission", "queue", "solve", "wal.append", "wal.fsync", "publish"} {
		spans := rec.FindSpans(name)
		if len(spans) != 1 {
			t.Fatalf("%d %q spans, want 1 (trace: %+v)", len(spans), name, names(rec))
		}
		if spans[0].Parent != root.ID {
			t.Fatalf("%q span parented on %v, not the root", name, spans[0].Parent)
		}
	}

	// The sequential phases partition the request: their summed
	// durations cannot exceed the root span's (the request latency).
	var phases time.Duration
	for _, name := range []string{"admission", "queue", "solve", "publish"} {
		sp := rec.FindSpans(name)[0]
		phases += sp.End.Sub(sp.Start)
	}
	if rootDur := root.End.Sub(root.Start); phases > rootDur+time.Millisecond {
		t.Fatalf("phase durations sum to %v > request latency %v", phases, rootDur)
	}

	// The solve span nests the engine narration: component -> round ->
	// rule spans, and operator spans under the rules.
	solve := rec.FindSpans("solve")[0]
	var comps, rules, ops int
	for _, sp := range rec.Spans {
		switch {
		case strings.HasPrefix(sp.Name, "component "):
			comps++
			if sp.Parent != solve.ID {
				t.Fatalf("component span parented outside solve: %+v", sp)
			}
		case strings.HasPrefix(sp.Name, "rule "):
			rules++
		case strings.HasPrefix(sp.Name, "op"):
			ops++
		}
	}
	if comps == 0 || rules == 0 || ops == 0 {
		t.Fatalf("solve narration incomplete: %d component, %d rule, %d operator spans (trace: %v)",
			comps, rules, ops, names(rec))
	}
	// Operator spans carry the executor's measured cardinalities.
	for _, sp := range rec.Spans {
		if !strings.HasPrefix(sp.Name, "op") {
			continue
		}
		keys := map[string]bool{}
		for _, a := range sp.Attrs {
			keys[a.Key] = true
		}
		if !keys["op"] || !keys["rows_out"] {
			t.Fatalf("operator span missing counters: %+v", sp)
		}
	}
}

func names(rec obs.TraceRecord) []string {
	out := make([]string, len(rec.Spans))
	for i, sp := range rec.Spans {
		out[i] = sp.Name
	}
	return out
}

// TestTraceparentFallback: malformed inbound headers fall back to fresh
// identifiers instead of failing or propagating garbage.
func TestTraceparentFallback(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	for _, h := range []string{
		"",
		"garbage",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
	} {
		code, body, traceID := postTraced(t, ts.URL+"/v1/assert",
			`{"program":"sp","facts":[{"pred":"arc","args":["x","y",1]}]}`, h)
		if code != http.StatusOK {
			t.Fatalf("traceparent %q: assert got %d: %v", h, code, body)
		}
		if !hex32.MatchString(traceID) {
			t.Fatalf("traceparent %q: X-Trace-Id %q is not a fresh 32-hex id", h, traceID)
		}
		if traceID == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("traceparent %q: malformed header's trace id was adopted", h)
		}
		rec := waitForTrace(t, s, traceID)
		checkTraceConsistent(t, rec)
		if !rec.Remote.IsZero() {
			t.Fatalf("traceparent %q: fallback trace kept a remote parent %v", h, rec.Remote)
		}
	}
}

// TestConcurrentTracesSelfConsistent hammers assert and query
// concurrently (run under -race) and checks that no recorded trace
// picked up spans from another request: every span's parent resolves
// within its own trace and stays inside the root window.
func TestConcurrentTracesSelfConsistent(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t,
		[]ProgramSpec{{Name: "sp", Source: src}},
		Config{TraceBuffer: 256})

	const writers, readers = 8, 4
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				body := fmt.Sprintf(`{"program":"sp","facts":[{"pred":"arc","args":["w%d","n%d",1]}]}`, i, j)
				code, out, _ := postTraced(t, ts.URL+"/v1/assert", body, "")
				if code != http.StatusOK {
					t.Errorf("writer %d: %d %v", i, code, out)
					return
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"program":"sp","pred":"s","args":["a","d"]}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	recs := s.recorder.Snapshot()
	if len(recs) < writers {
		t.Fatalf("only %d traces recorded", len(recs))
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		checkTraceConsistent(t, rec)
		if seen[rec.TraceID.String()] {
			t.Fatalf("trace %v recorded twice", rec.TraceID)
		}
		seen[rec.TraceID.String()] = true
	}
}

// TestStatsOperatorsSection: /v1/stats exposes the per-rule operator
// counters, and the profile agrees with the stats ledger — the last
// operator's rows-out per rule sums to the program's total firings.
func TestStatsOperatorsSection(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t,
		[]ProgramSpec{{Name: "sp", Source: src}},
		Config{})

	code, body := getJSON(t, ts.URL+"/v1/stats?name=sp")
	if code != http.StatusOK {
		t.Fatalf("stats got %d: %v", code, body)
	}
	prog := body["programs"].([]any)[0].(map[string]any)
	stats := prog["stats"].(map[string]any)
	operators, ok := prog["operators"].([]any)
	if !ok || len(operators) == 0 {
		t.Fatalf("operators section missing or empty: %v", prog["operators"])
	}

	// The existing invariant must survive the new section: per-rule
	// firings in the stats ledger sum to the program total.
	var firingsSum float64
	firingsByIndex := map[float64]float64{}
	for _, r := range prog["rules"].([]any) {
		rule := r.(map[string]any)
		firingsSum += rule["firings"].(float64)
		firingsByIndex[rule["index"].(float64)] = rule["firings"].(float64)
	}
	if total := stats["firings"].(float64); firingsSum != total || total == 0 {
		t.Fatalf("sum of per-rule firings %v != total firings %v", firingsSum, total)
	}

	// The operator counters agree with the ledger: for every rule with a
	// pipeline (facts compile to none), the last operator's rows-out is
	// that rule's firing count.
	withOps := 0
	for _, o := range operators {
		rule := o.(map[string]any)
		ops, _ := rule["ops"].([]any)
		if len(ops) == 0 {
			continue
		}
		withOps++
		last := ops[len(ops)-1].(map[string]any)
		if out, want := last["out"].(float64), firingsByIndex[rule["index"].(float64)]; out != want {
			t.Fatalf("rule %v: last operator rows-out %v != ledger firings %v", rule["index"], out, want)
		}
		for _, op := range ops {
			if op.(map[string]any)["kind"].(string) == "" {
				t.Fatalf("operator missing kind: %v", op)
			}
		}
	}
	if withOps == 0 {
		t.Fatal("no rule in the operators section has a pipeline")
	}
}

// TestExplainPlanEndpoint: /v1/explain/plan serves the operator tree,
// bare (EXPLAIN: zero counters) and analyzed (EXPLAIN ANALYZE: measured
// counters plus per-rule timings), in JSON and text.
func TestExplainPlanEndpoint(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t,
		[]ProgramSpec{{Name: "sp", Source: src}},
		Config{})

	code, body := getJSON(t, ts.URL+"/v1/explain/plan?name=sp&analyze=1")
	if code != http.StatusOK {
		t.Fatalf("explain/plan got %d: %v", code, body)
	}
	if body["analyze"] != true || body["program"] != "sp" {
		t.Fatalf("envelope wrong: %v", body)
	}
	rules := body["profile"].(map[string]any)["rules"].([]any)
	if len(rules) == 0 {
		t.Fatal("no rules in analyzed profile")
	}
	sawCounter, sawFirings := false, false
	for _, r := range rules {
		rule := r.(map[string]any)
		if rule["firings"] != nil && rule["firings"].(float64) > 0 {
			sawFirings = true
		}
		for _, op := range rule["ops"].([]any) {
			if op.(map[string]any)["out"].(float64) > 0 {
				sawCounter = true
			}
		}
	}
	if !sawCounter || !sawFirings {
		t.Fatalf("analyzed profile carries no measurements (counters=%v firings=%v)", sawCounter, sawFirings)
	}

	// Bare EXPLAIN: structure with zero counters.
	_, bare := getJSON(t, ts.URL+"/v1/explain/plan?name=sp")
	for _, r := range bare["profile"].(map[string]any)["rules"].([]any) {
		for _, op := range r.(map[string]any)["ops"].([]any) {
			o := op.(map[string]any)
			if o["out"].(float64) != 0 || o["in"].(float64) != 0 {
				t.Fatalf("bare EXPLAIN leaked measurements: %v", o)
			}
		}
	}

	// Text rendering.
	resp, err := http.Get(ts.URL + "/v1/explain/plan?name=sp&analyze=1&format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), "EXPLAIN ANALYZE") || !strings.Contains(string(text), "scan") {
		t.Fatalf("text rendering wrong:\n%s", text)
	}

	// Unknown program: 404.
	code, _ = getJSON(t, ts.URL+"/v1/explain/plan?name=nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown program got %d, want 404", code)
	}
}

// TestDebugTracesEndpoint: the flight-recorder dump is valid Chrome
// trace-event JSON with the retention headers.
func TestDebugTracesEndpoint(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	code, _, traceID := postTraced(t, ts.URL+"/v1/assert",
		`{"program":"sp","facts":[{"pred":"arc","args":["t","u",1]}]}`, "")
	if code != http.StatusOK {
		t.Fatalf("assert got %d", code)
	}
	waitForTrace(t, s, traceID)

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Traces-Retained") == "" || resp.Header.Get("X-Traces-Total") == "" {
		t.Fatal("retention headers missing")
	}
	var dump struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range dump.TraceEvents {
		args, _ := ev["args"].(map[string]any)
		if args != nil && args["trace_id"] == traceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("assert trace %s missing from /debug/traces dump", traceID)
	}
}
