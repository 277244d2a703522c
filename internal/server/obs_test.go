package server

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
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
	_, resp := get(t, ts.URL+"/v1/stats?name=chain")
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
// series, not vanish.
func TestMetricsUnknownEndpointNotDropped(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	if code, _, _ := getText(t, ts.URL+"/no/such/path"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
	getText(t, ts.URL+"/also-unknown")
	if code, _, _ := getText(t, ts.URL+"/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces: %d, want 404", code)
	}

	_, body, _ := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, `mdl_http_requests_total{endpoint="other",code="404"} 3`) {
		t.Fatalf("404s not aggregated under other:\n%s", body)
	}
	if !strings.Contains(body, `mdl_http_request_duration_seconds_count{endpoint="other"} 3`) {
		t.Fatalf("404 latencies not aggregated under other:\n%s", body)
	}
}

// TestRequestIDs: every response carries an X-Request-Id (and no
// X-Trace-Id). A well-formed client-supplied id is echoed back; an
// over-long one or one carrying a control character is replaced by a
// fresh 16-hex id, so it never reaches headers or log lines.
func TestRequestIDs(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, tc := range []struct{ inbound, want string }{
		{"", ""},
		{"trace-me-42", "trace-me-42"},
		{strings.Repeat("a", 65), ""},
		{"trace\tme", ""},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if tc.inbound != "" {
			req.Header.Set("X-Request-Id", tc.inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if tc.want != "" && got != tc.want {
			t.Fatalf("inbound request id %q not honored: %q", tc.inbound, got)
		}
		if tc.want == "" && !hex16.MatchString(got) {
			t.Fatalf("inbound request id %q: got %q, want a fresh 16-hex id", tc.inbound, got)
		}
		if tid := resp.Header.Get("X-Trace-Id"); tid != "" {
			t.Fatalf("response carries X-Trace-Id %q", tid)
		}
	}
}

// TestStatsEndpoint: /v1/stats serves the per-rule and per-component
// breakdown of the published model, hot rules first, and the breakdown
// sums to the scalar totals; its rounds are the RoundLog records of the
// solve that published the model.
func TestStatsEndpoint(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

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
	log := s.svcs["sp"].current().model.Stats().RoundLog
	rounds, _ := resp2["programs"].([]any)[0].(map[string]any)["rounds"].([]any)
	if len(rounds) != len(log) || len(rounds) == 0 {
		t.Fatalf("/v1/stats rounds %v, want the %d records of the published model's RoundLog", rounds, len(log))
	}
	for i, r := range rounds {
		if r.(map[string]any)["improved"] != float64(log[i].Improved) || r.(map[string]any)["derived"] != float64(log[i].Derived) {
			t.Fatalf("/v1/stats round %d = %v, want %+v", i, r, log[i])
		}
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

// TestEventSinkDuringAsserts: a user-configured event sink receives
// the component and round events of the materialize and of each
// assert's solve (the server passes Options.Sink through unchanged);
// run with -race this also proves the sink is data-race free against
// concurrent readers.
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
	// One materialize + eight asserts, each evaluating at least the
	// component that reads arc, bracketed by its Begin/End events.
	if b, e := kinds[datalog.EventComponentBegin], kinds[datalog.EventComponentEnd]; b != e || b < 9 {
		t.Fatalf("component events: %v, want matching begin/end, at least 9", kinds)
	}
	if kinds[datalog.EventRoundEnd] == 0 {
		t.Fatalf("user sink missed round events: %v", kinds)
	}

	_, body, _ := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, `mdl_program_model_version{program="sp"} 9`) {
		t.Fatalf("model version after 8 asserts:\n%s", body)
	}
}

// TestStatsOperatorsSection: /v1/stats exposes the per-rule operator
// counters, and they agree with the rest of the response — the published
// model's ledger — after a cold start, after a batch the budget rejects
// mid-solve, and after a warm start from a checkpoint.
func TestStatsOperatorsSection(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: loadExample(t, "shortestpath.mdl")}}, Config{})
		if checkStatsLedger(t, ts.URL, "sp", false)["firings"].(float64) == 0 {
			t.Fatal("cold solve reports no firings")
		}
	})
	t.Run("rejected batch", func(t *testing.T) {
		_, ts := startServer(t, []ProgramSpec{{Name: "chain", Source: budgetChain, Options: datalog.Options{MaxFacts: 3}}}, Config{})
		assertBudgetChain(t, ts.URL)
		if checkStatsLedger(t, ts.URL, "chain", false)["firings"].(float64) == 0 {
			t.Fatal("the accepted batch's work is missing")
		}
	})
	t.Run("warm start", func(t *testing.T) {
		spec := ProgramSpec{Name: "sp", Source: loadExample(t, "shortestpath.mdl"), Checkpoint: filepath.Join(t.TempDir(), "sp.ckpt")}
		s1, ts1 := startServer(t, []ProgramSpec{spec}, Config{})
		if code, resp := post(t, ts1.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["d","e",1]}]}`); code != http.StatusOK {
			t.Fatalf("assert: %d %v", code, resp)
		}
		if err := s1.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
		s2, ts2 := startServer(t, []ProgramSpec{spec}, Config{})
		if !s2.svcs["sp"].current().warm {
			t.Fatal("second start must warm-start from the checkpoint")
		}
		checkStatsLedger(t, ts2.URL, "sp", true)
		if code, resp := post(t, ts2.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["e","a",1]}]}`); code != http.StatusOK {
			t.Fatalf("assert after warm start: %d %v", code, resp)
		}
		checkStatsLedger(t, ts2.URL, "sp", true)
	})
}

// budgetChain derives the transitive closure of edge: each assert of
// one more link derives a few reach tuples, a long path many.
const budgetChain = `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`

// assertBudgetChain drives budgetChain served with MaxFacts 3 through an
// accepted batch (two derivations) and a rejected one: its solve
// evaluates passes, then breaches the budget, so the published model
// stays at generation 2.
func assertBudgetChain(t *testing.T, url string) {
	t.Helper()
	if code, resp := post(t, url+"/v1/assert", `{"facts":[{"pred":"edge","args":["a","b"]}]}`); code != http.StatusOK {
		t.Fatalf("accepted batch: %d %v", code, resp)
	}
	code, resp := post(t, url+"/v1/assert",
		`{"facts":[{"pred":"edge","args":["b","c"]},{"pred":"edge","args":["c","d"]},{"pred":"edge","args":["d","e"]}]}`)
	if code != 422 {
		t.Fatalf("budget breach: %d %v", code, resp)
	}
	if _, resp := get(t, url+"/v1/stats"); resp["programs"].([]any)[0].(map[string]any)["version"] != 2.0 {
		t.Fatalf("rejected batch was published: %v", resp)
	}
}

// checkStatsLedger fetches /v1/stats for one program and checks the
// ledger identities — every rule's operators' probes sum to its probes;
// for a rule without Δ-driver orders the last operator's rows-out is its
// firings; unless the model was restored from a snapshot (whose scalar
// totals cover work its breakdowns do not), per-rule firings sum to the
// total — and returns the response's scalar stats.
func checkStatsLedger(t *testing.T, url, name string, restored bool) map[string]any {
	t.Helper()
	code, body := get(t, url+"/v1/stats?name="+name)
	if code != http.StatusOK {
		t.Fatalf("stats got %d: %v", code, body)
	}
	prog := body["programs"].([]any)[0].(map[string]any)
	stats := prog["stats"].(map[string]any)
	operators, ok := prog["operators"].([]any)
	if !ok || len(operators) == 0 {
		t.Fatalf("operators section missing or empty: %v", prog["operators"])
	}
	var firingsSum float64
	byIndex := map[float64]map[string]any{}
	for _, r := range prog["rules"].([]any) {
		rule := r.(map[string]any)
		firingsSum += rule["firings"].(float64)
		byIndex[rule["index"].(float64)] = rule
	}
	if total := stats["firings"].(float64); firingsSum != total && !restored {
		t.Fatalf("sum of per-rule firings %v != total firings %v", firingsSum, total)
	}
	for _, o := range operators {
		rule := o.(map[string]any)
		ledger := byIndex[rule["index"].(float64)]
		ops := rule["ops"].([]any)
		var probes float64
		for _, op := range ops {
			if op.(map[string]any)["kind"].(string) == "" {
				t.Fatalf("operator missing kind: %v", op)
			}
			probes += op.(map[string]any)["probes"].(float64)
		}
		if want := ledger["probes"].(float64); probes != want {
			t.Fatalf("rule %v: operators probed %v rows, ledger probes %v", rule["index"], probes, want)
		}
		if _, driven := rule["drivers"]; driven || len(ops) == 0 {
			continue
		}
		if out, want := ops[len(ops)-1].(map[string]any)["out"].(float64), ledger["firings"].(float64); out != want {
			t.Fatalf("rule %v: last operator rows-out %v != ledger firings %v", rule["index"], out, want)
		}
	}
	return stats
}

// TestExplainPlanEndpoint: /v1/explain/plan serves the operator tree,
// bare (EXPLAIN: zero counters) and analyzed (EXPLAIN ANALYZE: measured
// counters plus per-rule timings), in JSON and text.
func TestExplainPlanEndpoint(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t,
		[]ProgramSpec{{Name: "sp", Source: src}},
		Config{})

	code, body := get(t, ts.URL+"/v1/explain/plan?name=sp&analyze=1")
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
	_, bare := get(t, ts.URL+"/v1/explain/plan?name=sp")
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
	code, _ = get(t, ts.URL+"/v1/explain/plan?name=nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown program got %d, want 404", code)
	}
}
