package main

import (
	"bytes"
	"math"
	"regexp"
	"testing"

	"repro/datalog"
	"repro/internal/baseline"
)

// These tests cover the harness's own arithmetic; none of them runs a
// workload.

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{30, 50}, {40, 75}, {99, 75}, {100, 90}, {105, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if p := supportedTail(c.n); p > 50 && samplesBeyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, samplesBeyond(c.n, p))
		}
	}
	if got := samplesBeyond(105, 90); got != 10 {
		t.Errorf("samplesBeyond(105, 90) = %d, want 10", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample must give NaN, not a number that could pass for a measurement")
	}
}

// The expected values are statistics.quantiles(xs, n=4) from CPython.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles(powers of two) = %g %g %g, want 3.5 24 160", q1, q2, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spreadShare(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "overlaps a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "sticks out", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 of 100.
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(tr.NewTrace(), 0, "x")
	tr.End(id, nil)
	if id != 0 || tr.Spans() != nil {
		t.Error("a nil tracer must be tracing switched off")
	}
}

func TestPerTraceSumsSpansOfOneOperation(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 7, Name: "datalog.load", Start: 0, End: 2e6},
		{ID: 2, Trace: 7, Name: "datalog.load", Start: 5e6, End: 6e6},
		{ID: 3, Trace: 8, Name: "datalog.load", Start: 0, End: 4e6},
		{ID: 4, Trace: 8, Name: "core.solve", Start: 0, End: 9e6},
	}
	got := perTraceMS(spans, "datalog.load")
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("perTraceMS = %v, want [3 4]", got)
	}
}

const scrape = `# HELP mdl_http_requests_total Requests served, by endpoint and HTTP status code.
# TYPE mdl_http_requests_total counter
mdl_http_requests_total{endpoint="/v1/query",code="200"} 1234
mdl_http_requests_total{endpoint="/v1/assert",code="200"} 56
# TYPE mdl_wal_fsync_seconds histogram
mdl_wal_fsync_seconds_bucket{program="served",le="0.0001"} 3
mdl_wal_fsync_seconds_bucket{program="served",le="+Inf"} 56
mdl_wal_fsync_seconds_sum{program="served"} 0.0314
mdl_wal_fsync_seconds_count{program="served"} 56
mdl_program_model_size{program="a \"quoted\" back\\slash\n"} 1.1454e+04
mdl_build_info{go_version="go1.24.0"} 1 1700000000000
mdl_up 1
`

func TestParsePrometheusText(t *testing.T) {
	samples, err := parseProm(scrape)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
	if v, ok := promGet(samples, "mdl_http_requests_total", "endpoint", "/v1/assert"); !ok || v != 56 {
		t.Errorf("assert requests = %v (%v), want 56", v, ok)
	}
	if v, ok := promGet(samples, "mdl_wal_fsync_seconds_bucket", "le", "+Inf"); !ok || v != 56 {
		t.Errorf("+Inf bucket = %v (%v), want 56", v, ok)
	}
	if v, ok := promGet(samples, "mdl_wal_fsync_seconds_sum"); !ok || v != 0.0314 {
		t.Errorf("fsync sum = %v (%v), want 0.0314", v, ok)
	}
	if v, ok := promGet(samples, "mdl_program_model_size", "program", "a \"quoted\" back\\slash\n"); !ok || v != 11454 {
		t.Errorf("escaped label value not decoded: %v (%v)", v, ok)
	}
	if v, ok := promGet(samples, "mdl_build_info"); !ok || v != 1 {
		t.Errorf("a trailing timestamp must be ignored: %v (%v)", v, ok)
	}
	if v, ok := promGet(samples, "mdl_up"); !ok || v != 1 {
		t.Errorf("unlabelled sample = %v (%v), want 1", v, ok)
	}
	if _, ok := promGet(samples, "mdl_missing"); ok {
		t.Error("a missing metric must not be found")
	}
	if got := promSum(samples, "mdl_http_requests_total"); got != 1290 {
		t.Errorf("promSum = %g, want 1290", got)
	}
	for _, bad := range []string{`x{a="b} 1`, `x{a="b"}`, `x one`, `x{a} 1`} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) must fail", bad)
		}
	}
}

func TestSeedGivesByteIdenticalInputs(t *testing.T) {
	render := func(in *inputs) []byte {
		var b bytes.Buffer
		for _, inst := range in.instances {
			for _, p := range inst {
				b.WriteString(p.src)
			}
		}
		b.WriteString(in.serveSrc)
		for _, batch := range in.batches {
			b.Write(assertBody(batch))
		}
		for _, p := range in.pairs {
			b.Write(costBody(p[0], p[1]))
		}
		return b.Bytes()
	}
	for _, name := range []string{"small_mix", "serve_mixed"} {
		w, _ := workloadByName(name)
		a, b, other := render(buildInputs(w, 7, 30)), render(buildInputs(w, 7, 30)), render(buildInputs(w, 8, 30))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: another seed gave the same inputs", name)
		}
	}
}

func TestRelaxationsOnAKnownGraph(t *testing.T) {
	// 0 → 1 → 2 and a dearer direct arc 0 → 2, which the two-arc path
	// improves on in the second round.
	g := baseline.NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	// From 0: two arcs in round one, then 1's arc; 2 has none. From 1:
	// one arc. From 2: nothing.
	if got := relaxations(g); got != 4 {
		t.Errorf("relaxations = %d, want 4", got)
	}
}

func TestShortestPathCheckIsNotVacuous(t *testing.T) {
	g := baseline.NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	dist := baseline.AllPairs(g)
	row := func(u, v string, c float64) []datalog.Value {
		return []datalog.Value{datalog.Sym(u), datalog.Sym(v), datalog.Num(c)}
	}
	good := [][]datalog.Value{row("v0", "v1", 1), row("v0", "v2", 2), row("v1", "v2", 1)}
	if examined, wrong := checkShortestPaths(good, 3, dist); examined != 3 || wrong != 0 {
		t.Errorf("correct rows: examined %d wrong %d, want 3 and 0", examined, wrong)
	}
	for name, rows := range map[string][][]datalog.Value{
		"wrong cost":   {row("v0", "v1", 1), row("v0", "v2", 3), row("v1", "v2", 1)},
		"missing row":  {row("v0", "v1", 1), row("v1", "v2", 1)},
		"spurious row": {row("v0", "v1", 1), row("v0", "v2", 2), row("v1", "v2", 1), row("v2", "v0", 1)},
	} {
		if _, wrong := checkShortestPaths(rows, 3, dist); wrong == 0 {
			t.Errorf("%s went unnoticed", name)
		}
	}
}

func TestUnionSourceKeepsTheCheaperOfTwoArcsOnOnePair(t *testing.T) {
	w, _ := workloadByName("small_mix")
	in := buildInputs(w, 1, 4)
	e := in.graph.Edges[0]
	in.batches[0][1] = arc{From: "v" + itoa(e.From), To: "v" + itoa(e.To), W: e.W + 1}
	p, err := datalog.Load(in.unionSource(4), datalog.Options{})
	if err != nil {
		t.Fatalf("the union of the served graph and the batches must load: %v", err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := m.Cost("arc", sym("v", e.From), sym("v", e.To)); !ok {
		t.Error("arc missing from the union")
	} else if got, _ := c.Float(); got != e.W {
		t.Errorf("arc cost = %g, want the cheaper %g", got, e.W)
	}
}

func itoa(i int) string { return sym("", i).String() }

// TestManifestMatchesTheCode keeps BENCHMARK.json and the names the
// program prints in step, and within the limits the driver enforces.
func TestManifestMatchesTheCode(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the code has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest and code disagree on name or why", i)
		}
		if len(w.why) > 200 || !name.MatchString(w.name) {
			t.Errorf("workload %s: name or why outside the limits", w.name)
		}
	}
	if len(mf.EndToEnd) != len(endToEndUnits) {
		t.Errorf("manifest lists %d end-to-end metrics, the code has %d", len(mf.EndToEnd), len(endToEndUnits))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range mf.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: manifest unit %q, code unit %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if len(mf.PerLayer) < 1 || len(mf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(mf.PerLayer))
	}
	for _, m := range append(append([]manifestMetric(nil), mf.EndToEnd...), mf.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if !isEndToEnd(m.Name) && unitOf(m.Name) != m.Unit {
			t.Errorf("per-layer %s: manifest unit %q, code unit %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", mf.RunSeconds)
	}
}
