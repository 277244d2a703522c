package server

import (
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/datalog"
	"repro/internal/obs"
)

// latencyBuckets are the fixed histogram upper bounds (seconds) for
// request latencies: sub-millisecond point reads through multi-second
// assert solves.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metricEndpoints is the known endpoint set, pre-registered so every
// series appears (at zero) from the first scrape. Requests outside this
// set — unknown paths, bad methods — are recorded under "other" rather
// than silently dropped.
var metricEndpoints = []string{
	"/debug/traces", "/healthz", "/metrics", "/readyz",
	"/v1/assert", "/v1/explain", "/v1/explain/plan", "/v1/program", "/v1/query", "/v1/stats",
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
// the Prometheus text format at /metrics, plus a parallel per-endpoint
// JSON view (the pre-registry wire shape, kept for Accept:
// application/json clients). All updates are atomic; the hot path never
// takes a lock after construction.
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
	// Per-program engine gauges, fed from the engine's event stream:
	// cumulative rounds/firings/derived of the published model chain,
	// plus the component walk's live worker count (0 between solves).
	engineRounds  *obs.GaugeVec
	engineFirings *obs.GaugeVec
	engineDerived *obs.GaugeVec
	engineWorkers *obs.GaugeVec

	// endpoints is the JSON view; fixed at construction (known set plus
	// "other"), so observe reads it without locking.
	endpoints map[string]*endpointStats
}

// endpointStats aggregates one endpoint's traffic for the JSON view
// (plain atomics kept out of the registry: avg/max have no Prometheus
// type — the histograms cover them there).
type endpointStats struct {
	count    atomic.Int64
	errors   atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
	// lastTrace is the most recent request's trace id — the exemplar
	// linking the latency numbers to a flight-recorder trace. (The text
	// exposition format stays exemplar-free: obs.Registry renders plain
	// 0.0.4 text, so the exemplar lives in the JSON view and on
	// slow-request log lines instead.)
	lastTrace atomic.Value // string
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
		engineWorkers: reg.NewGaugeVec("mdl_engine_active_workers",
			"Components being evaluated concurrently right now, by program (0 when idle; a one-worker solve reads 1).", "program"),
		endpoints: map[string]*endpointStats{},
	}
	reg.NewGaugeVec("mdl_build_info",
		"Build information; the value is always 1.", "go_version").
		With(runtime.Version()).Set(1)
	for _, e := range append(append([]string(nil), metricEndpoints...), otherEndpoint) {
		m.endpoints[e] = &endpointStats{}
		m.httpDuration.With(e)
	}
	return m
}

// endpointLabel normalizes a request path to a known endpoint label,
// mapping everything else to "other".
func (m *metrics) endpointLabel(path string) string {
	if _, ok := m.endpoints[path]; ok && path != otherEndpoint {
		return path
	}
	return otherEndpoint
}

// observe records one request. endpoint must come from endpointLabel;
// traceID (empty when untraced) becomes the endpoint's latency
// exemplar.
func (m *metrics) observe(endpoint string, status int, elapsed time.Duration, traceID string) {
	m.httpRequests.With(endpoint, strconv.Itoa(status)).Inc()
	m.httpDuration.With(endpoint).Observe(elapsed.Seconds())

	es := m.endpoints[endpoint]
	if traceID != "" {
		es.lastTrace.Store(traceID)
	}
	es.count.Add(1)
	if status >= http.StatusBadRequest {
		es.errors.Add(1)
	}
	n := elapsed.Nanoseconds()
	es.sumNanos.Add(n)
	for {
		old := es.maxNanos.Load()
		if n <= old || es.maxNanos.CompareAndSwap(old, n) {
			return
		}
	}
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

// programSink returns the event sink that feeds one program's live
// worker gauge. It is chained in front of any user-configured sink at
// load time, and runs on the solving goroutine (the single-writer
// path), so gauge stores are the only synchronization needed.
func (m *metrics) programSink(program string) datalog.EventSink {
	workers := m.engineWorkers.With(program)
	return datalog.SinkFunc(func(e datalog.Event) {
		switch e.Kind {
		case datalog.EventComponentBegin, datalog.EventComponentEnd:
			// Component events carry the walk's live worker count. The
			// engine serializes sink calls, so Set sees a consistent
			// gauge.
			workers.Set(float64(e.Workers))
		case datalog.EventSolveEnd:
			workers.Set(0)
		}
	})
}

// endpointMetrics is the rendered JSON form of one endpoint's stats.
type endpointMetrics struct {
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	AvgMillis float64 `json:"avg_ms"`
	MaxMillis float64 `json:"max_ms"`
	// LastTraceID is the latency exemplar: the trace id of the most
	// recent request, resolvable against /debug/traces.
	LastTraceID string `json:"last_trace_id,omitempty"`
}

func (m *metrics) snapshot() map[string]endpointMetrics {
	out := make(map[string]endpointMetrics, len(m.endpoints))
	for name, es := range m.endpoints {
		count := es.count.Load()
		em := endpointMetrics{
			Count:     count,
			Errors:    es.errors.Load(),
			MaxMillis: float64(es.maxNanos.Load()) / 1e6,
		}
		if tid, ok := es.lastTrace.Load().(string); ok {
			em.LastTraceID = tid
		}
		if count > 0 {
			em.AvgMillis = float64(es.sumNanos.Load()) / float64(count) / 1e6
		}
		out[name] = em
	}
	return out
}
