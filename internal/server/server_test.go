package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/datalog"
	"repro/internal/faults"
)

// startServer materializes specs and returns a test HTTP server.
func startServer(t testing.TB, specs []ProgramSpec, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a JSON body and decodes the JSON response.
func post(t testing.TB, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func get(t testing.TB, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func loadExample(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/programs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeShortestPathEndToEnd is the acceptance scenario: serve the
// shortestpath example, read a cost, assert a new edge through
// /v1/assert, and observe the updated shortest-path cost.
func TestServeShortestPathEndToEnd(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "shortestpath", Source: src}}, Config{})

	// s(a, d) = min(direct 9, a-b-c-d = 4) = 4 in the seed graph.
	code, resp := post(t, ts.URL+"/v1/query", `{"program":"shortestpath","op":"cost","pred":"s","args":["a","d"]}`)
	if code != http.StatusOK || resp["found"] != true {
		t.Fatalf("cost query: %d %v", code, resp)
	}
	if resp["cost"] != 4.0 {
		t.Fatalf("s(a, d) = %v, want 4", resp["cost"])
	}
	if resp["version"] != 1.0 {
		t.Fatalf("initial version %v, want 1", resp["version"])
	}

	// A new edge d-e opens a new shortest path s(a, e) = 5.
	code, resp = post(t, ts.URL+"/v1/assert", `{"program":"shortestpath","facts":[{"pred":"arc","args":["d","e",1]}]}`)
	if code != http.StatusOK {
		t.Fatalf("assert: %d %v", code, resp)
	}
	if resp["version"] != 2.0 {
		t.Fatalf("post-assert version %v, want 2", resp["version"])
	}
	code, resp = post(t, ts.URL+"/v1/query", `{"program":"shortestpath","op":"cost","pred":"s","args":["a","e"]}`)
	if code != http.StatusOK || resp["cost"] != 5.0 {
		t.Fatalf("s(a, e) after assert: %d %v", code, resp)
	}

	// A cheaper a-d arc improves both costs monotonically.
	code, resp = post(t, ts.URL+"/v1/assert", `{"program":"shortestpath","facts":[{"pred":"arc","args":["a","d",2]}]}`)
	if code != http.StatusOK {
		t.Fatalf("assert 2: %d %v", code, resp)
	}
	code, resp = post(t, ts.URL+"/v1/query", `{"program":"shortestpath","op":"cost","pred":"s","args":["a","d"]}`)
	if code != http.StatusOK || resp["cost"] != 2.0 {
		t.Fatalf("s(a, d) after cheaper arc: %d %v", code, resp)
	}
	code, resp = post(t, ts.URL+"/v1/query", `{"program":"shortestpath","op":"cost","pred":"s","args":["a","e"]}`)
	if code != http.StatusOK || resp["cost"] != 3.0 {
		t.Fatalf("s(a, e) after cheaper arc: %d %v", code, resp)
	}
}

func TestServeQueryOps(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src, Options: datalog.Options{}}}, Config{})

	// has: ground membership.
	code, resp := post(t, ts.URL+"/v1/query", `{"op":"has","pred":"s","args":["a","b"]}`)
	if code != http.StatusOK || resp["found"] != true {
		t.Fatalf("has: %d %v", code, resp)
	}
	// The program name may be omitted when a single program is served.
	if resp["program"] != "sp" {
		t.Fatalf("default program: %v", resp["program"])
	}
	// d has no outgoing arcs, so nothing is reachable from it.
	code, resp = post(t, ts.URL+"/v1/query", `{"op":"has","pred":"s","args":["d","a"]}`)
	if code != http.StatusOK || resp["found"] != false {
		t.Fatalf("has miss: %d %v", code, resp)
	}

	// facts with a wildcard pattern (null = wildcard).
	code, resp = post(t, ts.URL+"/v1/query", `{"op":"facts","pred":"s","args":["a",null]}`)
	if code != http.StatusOK {
		t.Fatalf("facts: %d %v", code, resp)
	}
	rows := resp["rows"].([]any)
	if len(rows) != int(resp["count"].(float64)) || len(rows) == 0 {
		t.Fatalf("facts rows: %v", resp)
	}
	for _, r := range rows {
		if r.([]any)[0] != "a" {
			t.Fatalf("bound position must be a: %v", r)
		}
	}
	// facts with no args enumerates the predicate.
	code, resp = post(t, ts.URL+"/v1/query", `{"op":"facts","pred":"arc"}`)
	if code != http.StatusOK || resp["count"].(float64) < 5 {
		t.Fatalf("all facts: %d %v", code, resp)
	}
}

func TestServeErrorMapping(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	cases := []struct {
		name, url, body string
		wantStatus      int
		wantCode        string
		wantExit        float64
	}{
		{"unknown program", "/v1/query", `{"program":"nope","op":"has","pred":"s","args":["a","b"]}`, 404, "not_found", 1},
		{"unknown predicate", "/v1/query", `{"op":"has","pred":"nope","args":["a"]}`, 404, "not_found", 1},
		{"bad op", "/v1/query", `{"op":"frobnicate","pred":"s","args":["a","b"]}`, 400, "usage", 1},
		{"arity mismatch", "/v1/query", `{"op":"has","pred":"s","args":["a"]}`, 400, "usage", 1},
		{"wildcard in has", "/v1/query", `{"op":"has","pred":"s","args":["a",null]}`, 400, "usage", 1},
		{"bad json", "/v1/query", `{"op":`, 400, "usage", 1},
		{"empty batch", "/v1/assert", `{"facts":[]}`, 400, "usage", 1},
		{"assert unknown pred", "/v1/assert", `{"facts":[{"pred":"nope","args":["a"]}]}`, 404, "not_found", 1},
		{"assert arity", "/v1/assert", `{"facts":[{"pred":"arc","args":["a"]}]}`, 400, "parse", 2},
		{"assert wildcard", "/v1/assert", `{"facts":[{"pred":"arc","args":["a","b",null]}]}`, 400, "parse", 2},
		{"assert derived pred", "/v1/assert", `{"facts":[{"pred":"s","args":["a","b",1]}]}`, 409, "static", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, resp := post(t, ts.URL+tc.url, tc.body)
			if code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %v", code, tc.wantStatus, resp)
			}
			e := resp["error"].(map[string]any)
			if e["code"] != tc.wantCode || e["exit_code"] != tc.wantExit {
				t.Fatalf("error %v, want code=%s exit=%v", e, tc.wantCode, tc.wantExit)
			}
		})
	}

	// After the failed asserts the model still answers from version 1.
	code, resp := post(t, ts.URL+"/v1/query", `{"op":"cost","pred":"s","args":["a","d"]}`)
	if code != 200 || resp["cost"] != 4.0 || resp["version"] != 1.0 {
		t.Fatalf("model must be untouched after failed asserts: %d %v", code, resp)
	}
}

// TestServeAssertBudgetBreach drives an assert past the program's
// MaxFacts budget: the request maps to 422/budget/exit 4 and the
// published model keeps answering from the previous generation.
func TestServeAssertBudgetBreach(t *testing.T) {
	// No facts initially, so the cold solve derives nothing and fits any
	// budget; the asserted chain then needs ~10 closure tuples, past the
	// per-solve cap of 3.
	const chain = `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`
	_, ts := startServer(t, []ProgramSpec{{Name: "chain", Source: chain, Options: datalog.Options{MaxFacts: 3}}}, Config{})
	code, resp := post(t, ts.URL+"/v1/assert",
		`{"facts":[{"pred":"edge","args":["a","b"]},{"pred":"edge","args":["b","c"]},{"pred":"edge","args":["c","d"]},{"pred":"edge","args":["d","e"]}]}`)
	if code != 422 {
		t.Fatalf("budget breach: %d %v", code, resp)
	}
	e := resp["error"].(map[string]any)
	if e["code"] != "budget" || e["exit_code"] != 4.0 {
		t.Fatalf("budget error: %v", e)
	}
	// The failed batch left no partial state behind.
	code, resp = post(t, ts.URL+"/v1/query", `{"op":"facts","pred":"reach"}`)
	if code != 200 || resp["count"] != 0.0 || resp["version"] != 1.0 {
		t.Fatalf("model must stay at the old generation: %d %v", code, resp)
	}
}

func TestServeExplain(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})
	code, resp := post(t, ts.URL+"/v1/explain", `{"pred":"s","args":["a","d"],"depth":4}`)
	if code != http.StatusOK || resp["found"] != true {
		t.Fatalf("explain: %d %v", code, resp)
	}
	tree := resp["tree"].(string)
	if !strings.Contains(tree, "s(a, d, 4)") || !strings.Contains(tree, "[fact]") {
		t.Fatalf("explain tree:\n%s", tree)
	}
	// EDB facts are their own explanation.
	code, resp = post(t, ts.URL+"/v1/explain", `{"pred":"arc","args":["a","b"]}`)
	if code != http.StatusOK || resp["found"] != true || resp["rule"] != "[fact]" {
		t.Fatalf("explain fact: %d %v", code, resp)
	}

	// Explanations need no option: they are re-derived from the model.
	_, tsPlain := startServer(t, []ProgramSpec{{Name: "sp", Source: src, Options: datalog.Options{}}}, Config{})
	code, resp = post(t, tsPlain.URL+"/v1/explain", `{"pred":"s","args":["a","d"]}`)
	if code != http.StatusOK || resp["found"] != true || !strings.Contains(resp["rule"].(string), "min") {
		t.Fatalf("explain with default options: %d %v", code, resp)
	}
}

// TestServeExplainIsLockFree: /v1/explain answers from the published
// model while a commit holds the writer lock. The publish fault point
// fires under the lock, after the solve; its hook reports that the commit
// reached it and holds the commit there until the explain has answered.
func TestServeExplainIsLockFree(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	faults.Arm(faults.Fault{Point: faults.ServerCommitPublish, Hook: func() {
		close(reached)
		<-release
	}})
	asserted := make(chan int, 1) // the assert's status; 0 when the request failed
	go func() {
		resp, err := http.Post(ts.URL+"/v1/assert", "application/json",
			strings.NewReader(`{"facts":[{"pred":"arc","args":["d","e",1]}]}`))
		if err != nil {
			t.Error(err)
			asserted <- 0
			return
		}
		resp.Body.Close()
		asserted <- resp.StatusCode
	}()
	select {
	case <-reached:
	case code := <-asserted:
		t.Fatalf("the commit finished (status %d) without reaching the publish point", code)
	}
	type result struct {
		code int
		resp map[string]any
		err  error
	}
	explained := make(chan result, 1)
	go func() {
		var r result
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(`{"pred":"s","args":["a","d"]}`))
		if r.err = err; err == nil {
			r.code, r.err = resp.StatusCode, json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		explained <- r
	}()
	select {
	case r := <-explained:
		if r.err != nil || r.code != http.StatusOK || r.resp["found"] != true || r.resp["version"] != 1.0 {
			t.Fatalf("explain during a commit: %d %v %v", r.code, r.resp, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("explain waits for the commit holding the writer lock")
	}
	once.Do(func() { close(release) })
	if code := <-asserted; code != http.StatusOK {
		t.Fatalf("assert: status %d", code)
	}
}

func TestServeHealthzMetricsProgram(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	code, resp := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || resp["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, resp)
	}

	// Drive some traffic, then check the counters moved: the request
	// count and its errors by status code, and the latency histogram.
	post(t, ts.URL+"/v1/query", `{"op":"has","pred":"s","args":["a","b"]}`)
	post(t, ts.URL+"/v1/query", `{"op":"bad","pred":"s","args":[]}`)
	text := promText(t, ts.URL)
	if v := promValue(t, text, "mdl_http_requests_total", `endpoint="/v1/query",code="200"`); v < 1 {
		t.Fatalf("query ok count %v, want ≥ 1", v)
	}
	if v := promValue(t, text, "mdl_http_requests_total", `endpoint="/v1/query",code="400"`); v < 1 {
		t.Fatalf("query error count %v, want ≥ 1", v)
	}
	if v := promValue(t, text, "mdl_http_request_duration_seconds_count", `endpoint="/v1/query"`); v < 2 {
		t.Fatalf("query latency count %v, want ≥ 2", v)
	}

	code, resp = get(t, ts.URL+"/v1/program")
	if code != http.StatusOK {
		t.Fatalf("program: %d", code)
	}
	infos := resp["programs"].([]any)
	if len(infos) != 1 {
		t.Fatalf("programs: %v", infos)
	}
	info := infos[0].(map[string]any)
	if info["version"] != 1.0 || info["size"].(float64) <= 0 {
		t.Fatalf("program version and size: %v", info)
	}
	cl := info["classification"].(map[string]any)
	if cl["admissible"] != true {
		t.Fatalf("classification: %v", cl)
	}
	decls := info["predicates"].([]any)
	if len(decls) == 0 {
		t.Fatalf("predicates: %v", info)
	}
	if _, code := get2(t, ts.URL+"/v1/program?name=zzz"); code != 404 {
		t.Fatal("unknown program name must 404")
	}
}

// get2 returns body-decoded JSON and status in swapped order for
// one-line assertions.
func get2(t testing.TB, url string) (map[string]any, int) {
	t.Helper()
	code, resp := get(t, url)
	return resp, code
}

func TestServeMultiplePrograms(t *testing.T) {
	sp := loadExample(t, "shortestpath.mdl")
	game := loadExample(t, "game.mdl")
	_, ts := startServer(t, []ProgramSpec{
		{Name: "sp", Source: sp},
		// game.mdl aggregates above negation-recursion; it is only
		// evaluable with the well-founded fallback (§6.3).
		{Name: "game", Source: game, Options: datalog.Options{WFSFallback: true, SkipChecks: true}},
	}, Config{})

	// Naming the program routes to it.
	code, resp := post(t, ts.URL+"/v1/query", `{"program":"sp","op":"has","pred":"s","args":["a","b"]}`)
	if code != http.StatusOK || resp["found"] != true {
		t.Fatalf("sp query: %d %v", code, resp)
	}
	// Omitting the program with several served is an error.
	code, resp = post(t, ts.URL+"/v1/query", `{"op":"has","pred":"s","args":["a","b"]}`)
	if code != http.StatusNotFound {
		t.Fatalf("ambiguous program: %d %v", code, resp)
	}
}

// TestServeDeterministicResponses pins byte-identical JSON for repeated
// reads of the same model generation.
func TestServeDeterministicResponses(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})
	read := func() string {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"op":"facts","pred":"s"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := read()
	for i := 0; i < 5; i++ {
		if got := read(); got != first {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if !strings.Contains(first, `"rows":[[`) {
		t.Fatalf("rows shape: %s", first)
	}
}

// TestServeSetValuedCosts exercises set-valued costs over the wire:
// the union lattice produces {"set":[...]} JSON in canonical order, and
// set literals round-trip through /v1/assert.
func TestServeSetValuedCosts(t *testing.T) {
	const perms = `
.cost grants/3 : setunion.
.cost perms/2 : setunion.
grants(alice, reader, {read}).
grants(alice, editor, {read, write}).
perms(U, S) :- S ?= union P : grants(U, R, P).
`
	_, ts := startServer(t, []ProgramSpec{{Name: "perms", Source: perms}}, Config{})
	code, resp := post(t, ts.URL+"/v1/query", `{"op":"cost","pred":"perms","args":["alice"]}`)
	if code != http.StatusOK || resp["found"] != true {
		t.Fatalf("perms(alice): %d %v", code, resp)
	}
	set := resp["cost"].(map[string]any)["set"].([]any)
	if len(set) != 2 || set[0] != "read" || set[1] != "write" {
		t.Fatalf("perms(alice) cost: %v", resp["cost"])
	}
	// Asserting another grant with a set literal widens the union.
	code, resp = post(t, ts.URL+"/v1/assert",
		`{"facts":[{"pred":"grants","args":["alice","ops",{"set":["exec"]}]}]}`)
	if code != http.StatusOK {
		t.Fatalf("assert set literal: %d %v", code, resp)
	}
	code, resp = post(t, ts.URL+"/v1/query", `{"op":"cost","pred":"perms","args":["alice"]}`)
	if code != http.StatusOK {
		t.Fatalf("perms after assert: %d %v", code, resp)
	}
	set = resp["cost"].(map[string]any)["set"].([]any)
	if len(set) != 3 || set[0] != "exec" {
		t.Fatalf("widened perms: %v", resp["cost"])
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("no programs must fail")
	}
	if _, err := New([]ProgramSpec{{Name: "", Source: "p(a).\n"}}, Config{}); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := New([]ProgramSpec{
		{Name: "x", Source: "p(a).\n"},
		{Name: "x", Source: "q(a).\n"},
	}, Config{}); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := New([]ProgramSpec{{Name: "x", Source: "p(X :- q(X).\n"}}, Config{}); err == nil {
		t.Fatal("parse error must surface")
	} else if !errors.Is(err, datalog.ErrParse) {
		t.Fatalf("parse error class: %v", err)
	}
	// A NaN argument is no value: the assert is refused before it
	// reaches the log or the model (TestWarmStartAfterRefusedNaN).
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: loadExample(t, "shortestpath.mdl")}}, Config{})
	for _, nan := range []string{`{"num":"NaN"}`, `{"num":"nan"}`, `{"set":[{"num":"NaN"}]}`} {
		body := `{"facts":[{"pred":"arc","args":["d",` + nan + `,1]}]}`
		if code, resp := post(t, ts.URL+"/v1/assert", body); code != http.StatusBadRequest {
			t.Fatalf("assert %s: %d %v, want 400", body, code, resp)
		}
	}
}
