package server

import (
	"runtime"
	"strconv"
	"time"

	"repro/datalog"
	"repro/internal/obs"
)

// latencyBuckets are the fixed histogram upper bounds (seconds) for
// request latencies: sub-millisecond point reads through multi-second
// assert solves.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metricEndpoints is the known endpoint set, pre-registered so every
// latency series appears (at zero) from the first scrape. Requests
// outside this set — unknown paths, bad methods — are recorded under
// "other" rather than silently dropped.
var metricEndpoints = map[string]bool{
	"/healthz": true, "/metrics": true, "/readyz": true,
	"/v1/assert": true, "/v1/explain": true, "/v1/explain/plan": true,
	"/v1/program": true, "/v1/query": true, "/v1/stats": true,
}

// commitBatchBuckets are the histogram upper bounds for batches per
// group-commit drain: 1 means no coalescing; anything above it is the
// write path absorbing concurrency.
var commitBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// fsyncBuckets are the histogram upper bounds (seconds) for WAL fsync
// latency: a healthy local disk sits well under a millisecond; the top
// buckets catch stalling devices.
var fsyncBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// otherEndpoint aggregates traffic on unknown paths (404s and method
// mismatches), so scans and misconfigured clients stay visible.
const otherEndpoint = "other"

// metrics is the server's instrumentation: an obs.Registry rendered in
// the Prometheus text format at /metrics. All updates are atomic; the
// hot path never takes a lock after construction.
type metrics struct {
	reg *obs.Registry

	// httpRequests counts requests by endpoint and status code;
	// httpDuration is the per-endpoint latency histogram.
	httpRequests *obs.CounterVec
	httpDuration *obs.HistogramVec
	// assertOutcomes counts /v1/assert results by program and outcome
	// ("ok" or the structured error code: parse, budget, diverged, …).
	assertOutcomes *obs.CounterVec
	// shed counts admission-control rejections by endpoint and reason
	// (queue_full, draining, overloaded) — load the server refused
	// rather than queued.
	shed *obs.CounterVec
	// queueDepth is the current commit-queue depth by program;
	// commitBatch the batches-per-drain histogram (values above 1 are
	// group commit absorbing concurrent writers); commitIsolated counts
	// batches re-committed alone after a failed merged solve.
	queueDepth     *obs.GaugeVec
	commitBatch    *obs.HistogramVec
	commitIsolated *obs.CounterVec
	// commitSeq is the last committed batch's sequence number by
	// program — the durable ack watermark clients reconcile against.
	commitSeq *obs.GaugeVec
	// WAL instrumentation: fsync latency, bytes appended, on-disk
	// segment count, and batches replayed during warm starts.
	walFsync    *obs.HistogramVec
	walBytes    *obs.CounterVec
	walSegments *obs.GaugeVec
	walReplayed *obs.CounterVec
	// Per-program model gauges, updated when a new model generation is
	// published (materialize or a successful assert).
	modelSize    *obs.GaugeVec
	modelVersion *obs.GaugeVec
	// Per-program engine gauges, read from the published model's
	// Stats: cumulative rounds/firings/derived of the model chain.
	engineRounds  *obs.GaugeVec
	engineFirings *obs.GaugeVec
	engineDerived *obs.GaugeVec
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		httpRequests: reg.NewCounterVec("mdl_http_requests_total",
			"Requests served, by endpoint and HTTP status code.", "endpoint", "code"),
		httpDuration: reg.NewHistogramVec("mdl_http_request_duration_seconds",
			"Request latency in seconds, by endpoint.", latencyBuckets, "endpoint"),
		assertOutcomes: reg.NewCounterVec("mdl_assert_outcomes_total",
			"Assert batches, by program and outcome (ok or error kind).", "program", "outcome"),
		shed: reg.NewCounterVec("mdl_shed_total",
			"Requests rejected by admission control, by endpoint and reason.", "endpoint", "reason"),
		queueDepth: reg.NewGaugeVec("mdl_assert_queue_depth",
			"Assert batches currently queued for group commit, by program.", "program"),
		commitBatch: reg.NewHistogramVec("mdl_commit_batch_size",
			"Assert batches coalesced per group-commit drain, by program.", commitBatchBuckets, "program"),
		commitIsolated: reg.NewCounterVec("mdl_commit_isolated_total",
			"Batches re-committed alone after a failed merged solve, by program.", "program"),
		commitSeq: reg.NewGaugeVec("mdl_commit_seq",
			"Sequence number of the last committed assert batch, by program.", "program"),
		walFsync: reg.NewHistogramVec("mdl_wal_fsync_seconds",
			"Write-ahead log fsync latency in seconds, by program.", fsyncBuckets, "program"),
		walBytes: reg.NewCounterVec("mdl_wal_bytes_total",
			"Bytes appended to the write-ahead log, by program.", "program"),
		walSegments: reg.NewGaugeVec("mdl_wal_segments",
			"On-disk write-ahead log segment files, by program.", "program"),
		walReplayed: reg.NewCounterVec("mdl_wal_replayed_batches_total",
			"Assert batches replayed from the write-ahead log at warm start, by program.", "program"),
		modelSize: reg.NewGaugeVec("mdl_program_model_size",
			"Stored tuples in the published model, by program.", "program"),
		modelVersion: reg.NewGaugeVec("mdl_program_model_version",
			"Published model generation (1 = initial materialization), by program.", "program"),
		engineRounds: reg.NewGaugeVec("mdl_engine_rounds",
			"Cumulative fixpoint rounds behind the published model, by program.", "program"),
		engineFirings: reg.NewGaugeVec("mdl_engine_firings",
			"Cumulative rule firings behind the published model, by program.", "program"),
		engineDerived: reg.NewGaugeVec("mdl_engine_derived",
			"Cumulative derivations behind the published model, by program.", "program"),
	}
	reg.NewGaugeVec("mdl_build_info",
		"Build information; the value is always 1.", "go_version").
		With(runtime.Version()).Set(1)
	for e := range metricEndpoints {
		m.httpDuration.With(e)
	}
	m.httpDuration.With(otherEndpoint)
	return m
}

// endpointLabel normalizes a request path to a known endpoint label,
// mapping everything else to "other".
func endpointLabel(path string) string {
	if metricEndpoints[path] {
		return path
	}
	return otherEndpoint
}

// observe records one request under its endpointLabel.
func (m *metrics) observe(endpoint string, status int, elapsed time.Duration) {
	m.httpRequests.With(endpoint, strconv.Itoa(status)).Inc()
	m.httpDuration.With(endpoint).Observe(elapsed.Seconds())
}

// assertOutcome records one /v1/assert result ("ok" or the structured
// error code).
func (m *metrics) assertOutcome(program, outcome string) {
	if program == "" {
		program = "unknown"
	}
	m.assertOutcomes.With(program, outcome).Inc()
}

// publishModel sets the per-program model gauges from a newly
// published generation: its size, version and the cumulative work its
// Stats carry (seeded across warm starts and assert chains), so the
// engine gauges report what /v1/stats does and never a rejected solve.
func (m *metrics) publishModel(program string, version uint64, model *datalog.Model) {
	st := model.Stats()
	m.modelSize.With(program).Set(float64(model.Size()))
	m.modelVersion.With(program).Set(float64(version))
	m.engineRounds.With(program).Set(float64(st.Rounds))
	m.engineFirings.With(program).Set(float64(st.Firings))
	m.engineDerived.With(program).Set(float64(st.Derived))
}
