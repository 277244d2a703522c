package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// pass is the outcome of one pass (timed or traced) of one workload.
type pass struct {
	Workload     string             `json:"workload"`
	Traced       bool               `json:"traced"`
	Env          map[string]any     `json:"env"`
	Metrics      map[string]float64 `json:"metrics"`
	Samples      map[string]int     `json:"samples"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Counts       solveCounts        `json:"counts"`
	Notes        []string           `json:"notes,omitempty"`

	spans []Span
	seed  int64
}

// slices is how many times a pass alternates between cold solves and
// serving.
const slices = 5

// setupRepeats is how many times the timed pass sets up; setup_s is the
// median, so one slow link does not decide it.
const setupRepeats = 3

// buildMDL compiles cmd/mdl from the checkout's source into a fresh
// file, so the link is always paid.
func buildMDL(runDir string, i int) (string, error) {
	bin := filepath.Join(runDir, fmt.Sprintf("mdl-%d", i))
	os.Remove(bin)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mdl")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mdl: %v\n%s", err, out)
	}
	return bin, nil
}

// runPass runs one pass: set-up, the slices of cold solves and serving,
// the recoveries and, when traced, the in-process layer measurements.
func runPass(w workload, seed int64, seconds float64, traced bool, runDir string) (*pass, error) {
	// The timed pass reports calibrated timings (see calib.go); the
	// traced pass reports every layer as measured.
	calibrated := !traced
	p := &pass{Workload: w.name, Traced: traced, Env: environment(seed, seconds), Metrics: map[string]float64{}, Samples: map[string]int{}, seed: seed}
	var tr *Tracer
	if traced {
		tr = newTracer()
	}
	passStart := time.Now()
	serveSeconds := seconds * (1 - w.solveShare)
	nBatches := max(20, int(math.Round(w.batchesPerSecond*serveSeconds)))
	p.Env["assert_batches"] = nBatches

	// Set-up: inputs from the seed, the program built from source, the
	// oracle answers.
	var in *inputs
	var bin string
	var setupS []float64
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setupFactors []float64
	for i := 0; i < repeats; i++ {
		sp := &speed{tr: tr}
		sp.sample()
		start := time.Now()
		in = buildInputs(w, seed, nBatches)
		var err error
		if bin, err = buildMDL(runDir, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		tr.Record(tr.NewTrace(), 0, "setup", start, time.Now(), nil)
		sp.sample()
		setupFactors = append(setupFactors, sp.factor())
	}
	setupS, dropped := calibrate(setupS, setupFactors, calibrated)
	p.Metrics["setup_s"] = median(setupS)
	p.Samples["setup_s"] = len(setupS)

	serveDir := filepath.Join(runDir, "serve")
	os.RemoveAll(serveDir)
	srv, err := newChild(bin, serveDir, in.serveSrc)
	if err != nil {
		return nil, err
	}
	// The serve side sends a fixed number of batches; the cap only keeps
	// a badly regressed build from running away.
	session, err := openSession(srv, in, time.Duration((3*serveSeconds+seconds)*float64(time.Second))+5*time.Second, tr)
	if err != nil {
		return nil, err
	}
	defer srv.kill() // finish stops the child; this covers every other way out
	tl := &tally{}
	sv := &solver{in: in, tr: tr, tl: tl}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solveSlice := time.Duration(seconds * w.solveShare / slices * float64(time.Second))
	// mark is where each sample list stood when a slice began.
	type mark struct {
		ops, asserts, queries, scans int
		wall                         time.Duration
	}
	res := session.res
	here := func() mark {
		return mark{len(sv.ops), len(res.assertMS), len(res.queryMS), len(res.scanMS), res.assertWall}
	}
	var marks []mark
	var sliceFactors []float64
	for i := 0; i < slices; i++ {
		marks = append(marks, here())
		sp := &speed{tr: tr}
		sp.sample()
		sv.slice(solveSlice)
		sp.sample()
		session.slice(nBatches*i/slices, nBatches*(i+1)/slices)
		sp.sample()
		sliceFactors = append(sliceFactors, sp.factor())
	}
	marks = append(marks, here())
	runtime.ReadMemStats(&after)
	gc := gcStats{cycles: after.NumGC - before.NumGC, pauseNS: after.PauseTotalNs - before.PauseTotalNs, ops: sv.next}
	sres, err := session.finish(tl, seconds)
	if err != nil {
		return nil, err
	}

	// Calibrate slice by slice and leave out the disturbed ones.
	var ops []solveOp
	if calibrated {
		keep := quiet(sliceFactors)
		var asserts, queries, scans []float64
		var wall time.Duration
		for i, f := range sliceFactors {
			if !keep[i] {
				dropped++
				continue
			}
			a, b := marks[i], marks[i+1]
			for _, op := range sv.ops[a.ops:b.ops] {
				op.wallMS /= f
				ops = append(ops, op)
			}
			asserts = append(asserts, scaled(res.assertMS[a.asserts:b.asserts], f)...)
			queries = append(queries, scaled(res.queryMS[a.queries:b.queries], f)...)
			scans = append(scans, scaled(res.scanMS[a.scans:b.scans], f)...)
			wall += time.Duration(float64(b.wall-a.wall) / f)
		}
		res.assertMS, res.queryMS, res.scanMS, res.assertWall = asserts, queries, scans, wall
	} else {
		ops = sv.ops
	}
	var d int
	sres.recoveryS, d = calibrate(sres.recoveryS, sres.recoveryFactors, calibrated)
	dropped += d
	factors := append(append(setupFactors, sliceFactors...), sres.recoveryFactors...)
	p.Metrics["calib.factor"] = mean(factors)
	p.Metrics["calib.dropped_stretches"] = float64(dropped)
	p.Env["speed_factors"] = fmt.Sprintf("%.2f", factors)
	p.Env["dropped_stretches"] = dropped

	p.solveMetrics(ops)
	p.serveMetrics(sres)
	if traced {
		layers := map[string]float64{}
		if err := measureModelLayers(in, tr, layers); err != nil {
			return nil, err
		}
		if sres.acked > 0 {
			if err := measureWriteLayers(in, sres.acked, serveDir, tr, layers); err != nil {
				return nil, err
			}
		}
		p.spans = tr.Spans()
		p.layerMetrics(ops, gc, sres, layers)
	}
	p.Env["pass_wall_s"] = time.Since(passStart).Seconds()
	p.Attempted, p.Failed, p.FirstFailure = tl.attempted, tl.failed, tl.firstFailure
	p.Metrics["failed_share"] = float64(tl.failed) / float64(max(1, tl.attempted))
	return p, nil
}

// tail reports a named percentile and notes when the sample is too
// small for it under the reporting rule (at least ten samples beyond).
func (p *pass) tail(name string, ms []float64, pct float64) {
	asc := sorted(ms)
	p.Metrics[name] = percentile(asc, pct)
	p.Samples[name] = len(asc)
	if samplesBeyond(len(asc), pct) < 10 {
		p.Notes = append(p.Notes, fmt.Sprintf("%s: only %d of %d samples lie beyond p%g (the sample supports p%g)", name, samplesBeyond(len(asc), pct), len(asc), pct, supportedTail(len(asc))))
	}
}

// solveMetrics derives the end-to-end solve metrics from the untraced
// ops of the solve phase. The ops rotate through solveInstances inputs
// whose solve times differ, so the median is taken per instance and the
// instances are averaged: solve_p50_ms is the mean of the per-instance
// medians. The tail is taken over every op relative to its own
// instance's median — how far ops stray from their typical time, not
// how far the slowest instance is from the fastest — and scaled back to
// milliseconds by solve_p50_ms.
func (p *pass) solveMetrics(ops []solveOp) {
	byInstance := make([][]float64, solveInstances)
	facts, alloc, wallSum, n := 0.0, 0.0, 0.0, 0
	for _, op := range ops {
		if op.traced {
			continue
		}
		byInstance[op.instance] = append(byInstance[op.instance], op.wallMS)
		wallSum += op.wallMS
		facts += float64(op.facts)
		alloc += float64(op.alloc)
		n++
	}
	// An instance has no samples only when disturbed slices were left
	// out of a very short pass; it then stays out of the average.
	medians := make([]float64, solveInstances)
	var measured []float64
	for i, ms := range byInstance {
		medians[i] = median(ms)
		if len(ms) > 0 {
			measured = append(measured, medians[i])
		}
	}
	p50 := mean(measured)
	var ratios []float64
	for _, op := range ops {
		if !op.traced {
			ratios = append(ratios, op.wallMS/medians[op.instance])
		}
	}
	p.Metrics["solve_p50_ms"] = p50
	p.Samples["solve_p50_ms"] = n
	p.tail("solve_p90_ms", ratios, 90)
	p.Metrics["solve_p90_ms"] *= p50
	// Mean-based on purpose: a garbage-collection stall lowers it.
	p.Metrics["model_facts_per_s"] = facts / (wallSum / 1e3)
	p.Metrics["alloc_mb_per_op"] = alloc / float64(n) / 1e6

	// The engine's counts, summed over one rotation. Every op on an
	// instance must report the same ones.
	first := map[int]solveCounts{}
	for _, op := range ops {
		c, seen := first[op.instance]
		if !seen {
			first[op.instance] = op.stats
			p.Counts.add(op.stats)
		} else if c.exact() != op.stats.exact() {
			p.Notes = append(p.Notes, "engine counts differ between ops on one input")
			break
		}
	}
}

// serveMetrics derives the end-to-end serve metrics.
func (p *pass) serveMetrics(s *serveResult) {
	p.Metrics["query_p50_ms"] = median(s.queryMS)
	p.Samples["query_p50_ms"] = len(s.queryMS)
	p.tail("query_p95_ms", s.queryMS, 95)
	p.Metrics["assert_p50_ms"] = median(s.assertMS)
	p.Samples["assert_p50_ms"] = len(s.assertMS)
	p.tail("assert_p95_ms", s.assertMS, 95)
	p.Metrics["queries_per_s"] = float64(len(s.queryMS)) / s.assertWall.Seconds()
	p.Metrics["recovery_s"] = median(s.recoveryS)
	p.Samples["recovery_s"] = len(s.recoveryS)
}

// perTraceMS sums the durations of the spans with a name within each
// operation and returns one value per operation, in milliseconds.
func perTraceMS(spans []Span, name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += float64(s.Dur()) / 1e6
	}
	out := make([]float64, len(order))
	for i, t := range order {
		out[i] = sums[t]
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced pass from the
// spans, the engine's counters, the child's /metrics and the in-process
// layer measurements.
func (p *pass) layerMetrics(ops []solveOp, gc gcStats, s *serveResult, layers map[string]float64) {
	m := p.Metrics
	med := func(name string) float64 { return median(perTraceMS(p.spans, name)) }

	// Front end and fixpoint, per traced op.
	m["op.traced_ms"] = med("op")
	m["parser.parse_ms"] = med("parser.parse")
	parsed := 0.0 // bytes, over the whole pass
	for _, sp := range p.spans {
		if sp.Name == "parser.parse" {
			parsed += sp.Counts["bytes"]
		}
	}
	perOp := parsed / float64(len(perTraceMS(p.spans, "parser.parse")))
	m["parser.mb_per_s"] = perOp / 1e6 / (m["parser.parse_ms"] / 1e3)
	m["safety.check_ms"] = med("safety.check")
	m["consistency.check_ms"] = med("consistency.check")
	m["monotone.check_ms"] = med("monotone.check")
	m["deps.scc_ms"] = med("deps.scc")
	m["core.new_ms"] = med("core.new")
	checks := m["safety.check_ms"] + m["consistency.check_ms"] + m["monotone.check_ms"] + m["deps.scc_ms"]
	m["core.compile_self_ms"] = m["core.new_ms"] - checks
	m["snapshot.fingerprint_ms"] = med("snapshot.fingerprint")
	m["datalog.load_ms"] = med("datalog.load")
	m["datalog.load_share"] = m["datalog.load_ms"] / m["op.traced_ms"]
	m["core.solve_ms"] = med("core.solve")
	p.Samples["op.traced_ms"] = len(perTraceMS(p.spans, "op"))

	// The longest round of each op.
	roundMax := map[int]float64{}
	for _, sp := range p.spans {
		if sp.Name == "core.round" {
			roundMax[sp.Trace] = math.Max(roundMax[sp.Trace], float64(sp.Dur())/1e6)
		}
	}
	var maxes []float64
	for _, v := range roundMax {
		maxes = append(maxes, v)
	}
	m["core.round_max_ms"] = median(maxes)

	// Per op: the rotation's totals divided by its length.
	c := p.Counts
	m["core.rounds"] = float64(c.Rounds) / solveInstances
	m["core.firings"] = float64(c.Firings) / solveInstances
	m["core.derived"] = float64(c.Derived) / solveInstances
	m["core.probes"] = float64(c.Probes) / solveInstances
	m["core.components"] = float64(c.Components) / solveInstances
	m["core.derived_per_firing"] = float64(c.Derived) / float64(c.Firings)
	m["core.probes_per_derived"] = float64(c.Probes) / float64(c.Derived)

	var ruleMS, tracedWall, plainWall []float64
	allocs := 0.0
	for _, op := range ops {
		if op.traced {
			ruleMS = append(ruleMS, float64(op.stats.RuleNS)/1e6)
			tracedWall = append(tracedWall, op.wallMS)
			continue
		}
		plainWall = append(plainWall, op.wallMS)
		allocs += float64(op.mallocs)
	}
	m["core.rule_eval_ms"] = median(ruleMS)
	m["core.rule_cpu_over_wall"] = m["core.rule_eval_ms"] / m["core.solve_ms"]
	n := float64(max(1, len(plainWall)))
	m["proc.allocs_per_op"] = allocs / n
	m["proc.gc_cycles_per_op"] = float64(gc.cycles) / float64(gc.ops)
	m["proc.gc_pause_ms_per_op"] = float64(gc.pauseNS) / 1e6 / float64(gc.ops)
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["trace.overhead_share"] = (median(tracedWall) - median(plainWall)) / median(plainWall)
	m["trace.spans"] = float64(len(p.spans))

	for k, v := range layers {
		m[k] = v
	}
	m["core.derived_per_fact"] = m["core.derived"] / m["relation.rows"]
	m["relation.insert_share"] = m["relation.insert_ms"] / m["core.solve_ms"]
	delete(m, "relation.insert_ms")
	m["baseline.engine_over_direct"] = m["op.traced_ms"] / m["baseline.direct_ms"]

	// Per-program medians inside an op (small_mix has five).
	for _, sp := range p.spans {
		if strings.HasPrefix(sp.Name, "family.") {
			if _, ok := m[sp.Name+"_ms"]; !ok {
				m[sp.Name+"_ms"] = med(sp.Name)
			}
		}
	}

	// Serve tier: the client's view, the child's own counters, and the
	// in-process handler.
	qa, aa := sorted(s.queryMS), sorted(s.assertMS)
	m["server.query_p99_ms"] = percentile(qa, 99)
	m["server.query_max_ms"] = percentile(qa, 100)
	m["server.assert_p99_ms"] = percentile(aa, 99)
	m["server.assert_max_ms"] = percentile(aa, 100)
	m["server.scan_p50_ms"] = median(s.scanMS)
	p.Samples["server.scan_p50_ms"] = len(s.scanMS)
	m["server.shed_count"] = float64(s.shed)
	m["server.error_count"] = float64(s.errors)
	m["server.warmup_ready_s"] = s.readyS
	if sum, ok := promGet(s.metrics, "mdl_commit_batch_size_sum"); ok {
		count, _ := promGet(s.metrics, "mdl_commit_batch_size_count")
		m["server.commit_batch_mean"] = sum / count
	}
	m["server.model_size"], _ = promGet(s.metrics, "mdl_program_model_size")
	m["server.model_version"], _ = promGet(s.metrics, "mdl_program_model_version")
	m["wal.fsync_count"], _ = promGet(s.metrics, "mdl_wal_fsync_seconds_count")
	fsyncSum, _ := promGet(s.metrics, "mdl_wal_fsync_seconds_sum")
	m["wal.fsync_mean_ms"] = fsyncSum / m["wal.fsync_count"] * 1e3
	m["wal.bytes_total"], _ = promGet(s.metrics, "mdl_wal_bytes_total")
	m["wal.bytes_per_fact"] = m["wal.bytes_total"] / float64(2*s.acked)
	m["wal.segments"], _ = promGet(s.metrics, "mdl_wal_segments")
	m["wal.replayed_batches"] = s.replayed
	m["wal.replay_s"] = m["recovery_s"] - m["server.warmup_ready_s"]
	m["server.http_overhead_ms"] = m["query_p50_ms"] - m["server.handler_query_ms"]
	m["server.assert_self_ms"] = m["server.handler_assert_ms"] - m["core.solve_more_ms"] - m["wal.append_sync_ms"]

	// Budget identities. The layers of a cold solve must add up to the
	// traced op, and the in-process handler plus the socket to the
	// client's median.
	sum := m["parser.parse_ms"] + checks + m["core.compile_self_ms"] + m["snapshot.fingerprint_ms"] + m["core.solve_ms"]
	m["budget.solve_gap_share"] = math.Abs(sum-m["op.traced_ms"]) / m["op.traced_ms"]
	m["budget.query_gap_share"] = math.Abs(m["server.http_overhead_ms"]+m["server.handler_query_ms"]-m["query_p50_ms"]) / m["query_p50_ms"]
	if m["budget.solve_gap_share"] > 0.05 || m["budget.query_gap_share"] > 0.05 || m["server.http_overhead_ms"] < 0 {
		p.Notes = append(p.Notes, "budget_mismatch")
	}
}

// print writes every metric by name with its unit.
func (p *pass) print(w io.Writer) {
	kind := "timed pass (tracing off): end-to-end metrics"
	if p.Traced {
		kind = "traced pass: per-layer metrics"
	}
	fmt.Fprintf(w, "\n== %s — %s ==\n", p.Workload, kind)
	for _, k := range sortedKeys(p.Env) {
		fmt.Fprintf(w, "  env %-15s %v\n", k, p.Env[k])
	}
	for _, k := range sortedKeys(p.Metrics) {
		if p.Traced && isEndToEnd(k) {
			continue
		}
		n := ""
		if c, ok := p.Samples[k]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-8s%s\n", k, p.Metrics[k], unitOf(k), n)
	}
	fmt.Fprintf(w, "  counts that repeat exactly for a seed: %+v\n", p.Counts.exact())
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", p.Attempted, p.Failed)
	if p.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", p.FirstFailure)
	}
	for _, n := range p.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if p.Traced {
		fmt.Fprintf(w, "  budget: solve layers vs traced op gap %.2f%%, query layers vs client median gap %.2f%% (limit 5%%)\n",
			100*p.Metrics["budget.solve_gap_share"], 100*p.Metrics["budget.query_gap_share"])
	}
}

// save writes the pass as JSON, and the spans of a traced pass, under
// benchmark/out/.
func (p *pass) save() error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "timed"
	if p.Traced {
		kind = "traced"
		err := writeTrace(filepath.Join(dir, "trace-"+p.Workload+".json"), traceFile{
			Workload: p.Workload, Seed: p.seed, Env: p.Env,
			Note: "times are nanoseconds since the pass began; a span's self time is its duration minus what its children cover",
		}, p.spans)
		if err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+p.Workload+"-"+kind+".json"), data, 0o644)
}
