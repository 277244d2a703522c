package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

const shortestPath = `
.cost arc/3 : minreal.
.cost path/4 : minreal.
.cost s/3 : minreal.
.ic :- arc(direct, Z, C).
path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).
arc(a, b, 1).
arc(b, c, 2).
arc(a, d, 4).
`

func startTarget(t *testing.T) string {
	t.Helper()
	s, err := server.New([]server.ProgramSpec{{Name: "sp", Source: shortestPath}}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunLoadAgainstLiveServer drives a short mixed phase against a
// real server and checks the report is coherent: requests were sent,
// queries and asserts both completed, quantiles are populated, and the
// commit batch-size scrape found the histogram.
func TestRunLoadAgainstLiveServer(t *testing.T) {
	url := startTarget(t)
	rep, err := runLoad(loadConfig{
		BaseURL:    url,
		Duration:   500 * time.Millisecond,
		Rate:       200,
		AssertFrac: 0.25,
		Timeout:    5 * time.Second,
		Label:      "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent < 10 {
		t.Fatalf("sent only %d requests in 500ms at 200/s", rep.Sent)
	}
	if rep.Query.OK == 0 || rep.Assert.OK == 0 {
		t.Fatalf("no successful traffic: query %+v assert %+v", rep.Query, rep.Assert)
	}
	if rep.Query.Errors > 0 || rep.Assert.Errors > 0 {
		t.Fatalf("hard errors against a healthy server: query %+v assert %+v", rep.Query, rep.Assert)
	}
	if rep.Query.P50Ms <= 0 || rep.Query.P99Ms < rep.Query.P50Ms {
		t.Fatalf("incoherent quantiles: %+v", rep.Query)
	}
	if rep.CommitBatchMean < 1 {
		t.Fatalf("commit batch histogram not scraped: mean %v", rep.CommitBatchMean)
	}
}

// TestEmitReportMergesBenchFile checks that reports append under the
// "loadgen" key without clobbering the file's existing content.
func TestEmitReportMergesBenchFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	seed := `{"date":"2026-08-07T00:00:00Z","benchmarks":[{"name":"BenchmarkSolve","ns_per_op":42}]}`
	if err := os.WriteFile(out, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	for _, label := range []string{"steady", "overload"} {
		if err := emitReport(&loadReport{Label: label, Sent: 1}, out, &sink); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("merged file is not valid json: %v\n%s", err, b)
	}
	if _, ok := doc["benchmarks"]; !ok {
		t.Fatal("merge clobbered the existing benchmarks key")
	}
	runs, ok := doc["loadgen"].([]any)
	if !ok || len(runs) != 2 {
		t.Fatalf("loadgen runs: %v", doc["loadgen"])
	}
	first := runs[0].(map[string]any)
	if first["label"] != "steady" {
		t.Fatalf("first run label: %v", first["label"])
	}
}

// TestRunUsageErrors pins the flag validation.
func TestRunUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-rate", "0"}, &out, &errb); code != 1 {
		t.Fatalf("zero rate: exit %d", code)
	}
	if code := run([]string{"-assert-frac", "2"}, &out, &errb); code != 1 {
		t.Fatalf("assert-frac > 1: exit %d", code)
	}
	if code := run([]string{"-badflag"}, &out, &errb); code != 1 {
		t.Fatalf("unknown flag: exit %d", code)
	}
}
