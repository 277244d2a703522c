package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loadConfig parameterizes one open-loop phase.
type loadConfig struct {
	BaseURL    string
	Program    string
	Duration   time.Duration
	Rate       float64 // arrivals per second
	AssertFrac float64
	Timeout    time.Duration
	Label      string
}

// classStats summarizes one request class (queries or asserts).
type classStats struct {
	Count  int     `json:"count"`
	OK     int     `json:"ok"`
	Shed   int     `json:"shed"`   // 429/503 with Retry-After: load shedding, not failure
	Errors int     `json:"errors"` // transport errors and unexpected statuses
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// loadReport is one phase's record, merged under the "loadgen" key of
// BENCH_<date>.json. WALFsync and GoMaxProcs pin down the durability
// and CPU configuration the numbers were measured under — an fsync per
// drain is a real cost, so reports without it aren't comparable.
type loadReport struct {
	Label           string     `json:"label"`
	URL             string     `json:"url"`
	Program         string     `json:"program,omitempty"`
	WALFsync        string     `json:"wal_fsync"`
	GoMaxProcs      int        `json:"gomaxprocs"`
	DurationSec     float64    `json:"duration_sec"`
	TargetRate      float64    `json:"target_rate"`
	AchievedRate    float64    `json:"achieved_rate"`
	Sent            int        `json:"sent"`
	Query           classStats `json:"query"`
	Assert          classStats `json:"assert"`
	CommitBatchMean float64    `json:"commit_batch_mean,omitempty"`
	CommitBatchMax  float64    `json:"commit_batch_max_bucket,omitempty"`
}

// sample is one completed request's outcome.
type sample struct {
	assert bool
	ms     float64
	status int // 0 = transport error
}

// runLoad drives the configured phase and aggregates the samples.
func runLoad(cfg loadConfig) (*loadReport, error) {
	client := &http.Client{Timeout: cfg.Timeout}
	if err := waitReady(client, cfg.BaseURL); err != nil {
		return nil, err
	}

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	// Deterministic request mix: every k-th arrival is an assert.
	assertEvery := 0
	if cfg.AssertFrac > 0 {
		assertEvery = int(1 / cfg.AssertFrac)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	sent := 0
	for now := start; now.Before(deadline); now = <-tick.C {
		seq := sent
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if assertEvery > 0 && seq%assertEvery == assertEvery-1 {
				record(doAssert(client, cfg, seq))
			} else {
				record(doQuery(client, cfg, seq))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &loadReport{
		Label:        cfg.Label,
		URL:          cfg.BaseURL,
		Program:      cfg.Program,
		WALFsync:     scrapeWALFsync(client, cfg.BaseURL, cfg.Program),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		DurationSec:  elapsed.Seconds(),
		TargetRate:   cfg.Rate,
		AchievedRate: float64(sent) / elapsed.Seconds(),
		Sent:         sent,
	}
	var qms, ams []float64
	for _, s := range samples {
		cs, lat := &rep.Query, &qms
		if s.assert {
			cs, lat = &rep.Assert, &ams
		}
		cs.Count++
		switch {
		case s.status == http.StatusOK:
			cs.OK++
			*lat = append(*lat, s.ms)
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			cs.Shed++
		default:
			cs.Errors++
		}
	}
	fillQuantiles(&rep.Query, qms)
	fillQuantiles(&rep.Assert, ams)
	rep.CommitBatchMean, rep.CommitBatchMax = scrapeCommitBatch(client, cfg.BaseURL, cfg.Program)
	return rep, nil
}

// waitReady polls /readyz briefly so a just-started server doesn't
// count startup as errors.
func waitReady(client *http.Client, base string) error {
	var last error
	for i := 0; i < 50; i++ {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
		} else {
			last = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server not ready: %w", last)
}

func doQuery(client *http.Client, cfg loadConfig, seq int) sample {
	// Rotate through the read ops the serve tier offers so the
	// generator exercises point lookups and scans alike.
	var body string
	switch seq % 3 {
	case 0:
		body = `{"op":"cost","pred":"s","args":["a","d"]}`
	case 1:
		body = `{"op":"has","pred":"s","args":["a","d"]}`
	default:
		body = `{"op":"facts","pred":"arc"}`
	}
	return post(client, cfg, "/v1/query", body, false)
}

func doAssert(client *http.Client, cfg loadConfig, seq int) sample {
	// Unique monotone facts: each assert extends the graph with a fresh
	// edge, so every batch changes the model and commits do real work.
	body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["ld%d","ld%d",1]}]}`, seq, seq+1)
	return post(client, cfg, "/v1/assert", body, true)
}

func post(client *http.Client, cfg loadConfig, path, body string, assert bool) sample {
	if cfg.Program != "" {
		body = `{"program":"` + cfg.Program + `",` + body[1:]
	}
	start := time.Now()
	resp, err := client.Post(cfg.BaseURL+path, "application/json", strings.NewReader(body))
	s := sample{assert: assert, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	if err != nil {
		return s
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	return s
}

// fillQuantiles computes latency quantiles over the OK samples.
func fillQuantiles(cs *classStats, ms []float64) {
	if len(ms) == 0 {
		return
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	cs.P50Ms, cs.P90Ms, cs.P99Ms = at(0.50), at(0.90), at(0.99)
	cs.MaxMs = ms[len(ms)-1]
}

// scrapeCommitBatch reads the server's Prometheus exposition and
// returns the mean commit batch size plus the largest non-empty
// histogram bucket — direct evidence of group commit under load.
func scrapeCommitBatch(client *http.Client, base, program string) (mean, maxBucket float64) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var sum, count float64
	var prevCum float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mdl_commit_batch_size") {
			continue
		}
		if program != "" && !strings.Contains(line, `program="`+program+`"`) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "mdl_commit_batch_size_sum"):
			sum += v
		case strings.HasPrefix(line, "mdl_commit_batch_size_count"):
			count += v
		case strings.HasPrefix(line, "mdl_commit_batch_size_bucket"):
			if le := leBound(line); le > 0 && v > prevCum {
				maxBucket = le
			}
			prevCum = v
		}
	}
	if count > 0 {
		mean = sum / count
	}
	return mean, maxBucket
}

// scrapeWALFsync asks /v1/program which durability mode the target is
// running: the configured fsync policy when a write-ahead log is open,
// "off" when acks are memory-only.
func scrapeWALFsync(client *http.Client, base, program string) string {
	url := base + "/v1/program"
	if program != "" {
		url += "?name=" + program
	}
	resp, err := client.Get(url)
	if err != nil {
		return "off"
	}
	defer resp.Body.Close()
	var doc struct {
		Programs []struct {
			WAL *struct {
				Fsync string `json:"fsync"`
			} `json:"wal"`
		} `json:"programs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "off"
	}
	for _, p := range doc.Programs {
		if p.WAL != nil {
			return p.WAL.Fsync
		}
	}
	return "off"
}

// leBound extracts the le="..." bound from a histogram bucket line.
func leBound(line string) float64 {
	i := strings.Index(line, `le="`)
	if i < 0 {
		return 0
	}
	rest := line[i+4:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0
	}
	v, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		return 0 // +Inf bucket
	}
	return v
}

// emitReport prints the report and, when out is set, merges it into the
// BENCH json (appending to any "loadgen" list already there, preserving
// the file's other keys).
func emitReport(rep *loadReport, out string, stdout io.Writer) error {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if out == "" {
		return nil
	}
	doc := map[string]any{}
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("merging into %s: %w", out, err)
		}
	} else {
		doc["date"] = time.Now().UTC().Format(time.RFC3339)
		doc["go"] = runtime.Version()
		doc["gomaxprocs"] = runtime.GOMAXPROCS(0)
	}
	runs, _ := doc["loadgen"].([]any)
	doc["loadgen"] = append(runs, rep)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
