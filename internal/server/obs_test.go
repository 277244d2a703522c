package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/datalog"
)

// getText fetches a URL with no Accept header and returns status, body
// and Content-Type.
func getText(t testing.TB, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
}

// TestMetricsPrometheusText: /metrics defaults to the Prometheus text
// exposition format with well-formed families for requests, latency
// histograms, per-program gauges and build info.
func TestMetricsPrometheusText(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	post(t, ts.URL+"/v1/query", `{"op":"has","pred":"s","args":["a","b"]}`)
	code, body, ctype := getText(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text", ctype)
	}
	for _, want := range []string{
		"# HELP mdl_http_requests_total ",
		"# TYPE mdl_http_requests_total counter",
		`mdl_http_requests_total{endpoint="/v1/query",code="200"} 1`,
		"# TYPE mdl_http_request_duration_seconds histogram",
		`mdl_http_request_duration_seconds_bucket{endpoint="/v1/query",le="+Inf"} 1`,
		`mdl_http_request_duration_seconds_count{endpoint="/v1/query"} 1`,
		`mdl_program_model_version{program="sp"} 1`,
		`mdl_engine_firings{program="sp"}`,
		// The worker gauge must read 0 between solves whatever the
		// engine's parallelism during materialization.
		`mdl_engine_active_workers{program="sp"} 0`,
		"# TYPE mdl_build_info gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
	// Every line is a comment or name{labels} value — no stray output.
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

// TestEngineGaugesFollowPublishedModel: the mdl_engine_rounds, _firings
// and _derived gauges are a view of the published model's Stats, so a
// batch the budget rejects after evaluating passes leaves them equal to
// /v1/stats — never at the failed solve's totals.
func TestEngineGaugesFollowPublishedModel(t *testing.T) {
	_, ts := startServer(t, []ProgramSpec{{Name: "chain", Source: budgetChain, Options: datalog.Options{MaxFacts: 3}}}, Config{})
	assertBudgetChain(t, ts.URL)
	_, resp := getJSON(t, ts.URL+"/v1/stats?name=chain")
	stats := resp["programs"].([]any)[0].(map[string]any)["stats"].(map[string]any)
	_, body, _ := getText(t, ts.URL+"/metrics")
	for _, g := range []string{"rounds", "firings", "derived"} {
		want := fmt.Sprintf(`mdl_engine_%s{program="chain"} %v`, g, stats[g])
		if !strings.Contains(body, want+"\n") {
			t.Errorf("missing %q (the published model's stats)", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestMetricsUnknownEndpointNotDropped is the regression test for the
// silent metric drop: traffic on unknown paths must land in the "other"
// series in both views, not vanish.
func TestMetricsUnknownEndpointNotDropped(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	if code, _, _ := getText(t, ts.URL+"/no/such/path"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
	getText(t, ts.URL+"/also-unknown")

	_, body, _ := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, `mdl_http_requests_total{endpoint="other",code="404"} 2`) {
		t.Fatalf("404s not aggregated under other:\n%s", body)
	}
	code, resp := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("json metrics: %d", code)
	}
	other := resp["endpoints"].(map[string]any)["other"].(map[string]any)
	if other["count"].(float64) < 2 || other["errors"].(float64) < 2 {
		t.Fatalf("JSON other stats: %v", other)
	}
}

// TestRequestIDs: every response carries an X-Request-Id, and a
// client-supplied id is echoed back instead of replaced.
func TestRequestIDs(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-Id")
	if generated == "" {
		t.Fatal("no X-Request-Id generated")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-me-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Fatalf("inbound request id not honored: %q", got)
	}
}

// TestStatsEndpoint: /v1/stats serves the per-rule and per-component
// breakdown of the published model, hot rules first, and the breakdown
// sums to the scalar totals.
func TestStatsEndpoint(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	code, resp := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, resp)
	}
	prog := resp["programs"].([]any)[0].(map[string]any)
	st := prog["stats"].(map[string]any)
	rules := prog["rules"].([]any)
	comps := prog["components"].([]any)
	if len(rules) == 0 || len(comps) == 0 {
		t.Fatalf("empty breakdowns: %v", resp)
	}
	var firings float64
	prev := -1.0
	for _, r := range rules {
		rm := r.(map[string]any)
		firings += rm["firings"].(float64)
		if rm["rule"].(string) == "" {
			t.Fatalf("rule without text: %v", rm)
		}
		sec := rm["seconds"].(float64)
		if prev >= 0 && sec > prev {
			t.Fatalf("rules not sorted by time desc: %v after %v", sec, prev)
		}
		prev = sec
	}
	if firings != st["firings"].(float64) {
		t.Fatalf("rule firings sum %v != total %v", firings, st["firings"])
	}

	// After an assert the stats reflect the extended solve chain.
	post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["d","e",1]}]}`)
	code, resp2 := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats after assert: %d", code)
	}
	st2 := resp2["programs"].([]any)[0].(map[string]any)["stats"].(map[string]any)
	if st2["firings"].(float64) <= st["firings"].(float64) {
		t.Fatalf("stats must grow across asserts: %v then %v", st["firings"], st2["firings"])
	}

	// Unknown program name → 404.
	if _, code := get2(t, ts.URL+"/v1/stats?name=zzz"); code != http.StatusNotFound {
		t.Fatal("unknown program must 404")
	}
}

// TestAssertOutcomeCounters: assert results land in
// mdl_assert_outcomes_total by program and outcome, including failures.
func TestAssertOutcomeCounters(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["d","e",1]}]}`)
	// A derived-predicate assert is a static error (409).
	post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"s","args":["a","b",1]}]}`)

	_, body, _ := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`mdl_assert_outcomes_total{program="sp",outcome="ok"} 1`,
		`mdl_assert_outcomes_total{program="sp",outcome="static"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
}

// TestEventSinkDuringAsserts: a user-configured event sink keeps
// receiving engine events (chained behind the metrics sink) while
// asserts run; run with -race this also proves the sink chaining and
// gauge updates are data-race free against concurrent readers.
func TestEventSinkDuringAsserts(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	var mu sync.Mutex
	kinds := map[datalog.EventKind]int{}
	sink := datalog.SinkFunc(func(e datalog.Event) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	})
	_, ts := startServer(t, []ProgramSpec{
		{Name: "sp", Source: src, Options: datalog.Options{Sink: sink}},
	}, Config{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers hit queries and scrapes while the writer loop
	// runs assert batches through the single-writer path.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"op":"has","pred":"s","args":["a","b"]}`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		post(t, ts.URL+"/v1/assert",
			fmt.Sprintf(`{"facts":[{"pred":"arc","args":["d","x%d",%d]}]}`, i, i+1))
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// One materialize + eight asserts, each bracketed by Solve events.
	if kinds[datalog.EventSolveBegin] != 9 || kinds[datalog.EventSolveEnd] != 9 {
		t.Fatalf("solve events: %v, want 9 begin/end", kinds)
	}
	if kinds[datalog.EventRuleFired] == 0 || kinds[datalog.EventRoundEnd] == 0 {
		t.Fatalf("user sink starved by metrics chaining: %v", kinds)
	}

	// The engine gauges tracked the chain: firings gauge equals the
	// published model's cumulative stats.
	_, body, _ := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, `mdl_program_model_version{program="sp"} 9`) {
		t.Fatalf("model version after 8 asserts:\n%s", body)
	}
}
