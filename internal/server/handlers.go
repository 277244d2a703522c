package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/datalog"
)

// maxBodyBytes bounds request bodies; assert batches beyond this are
// split by the client.
const maxBodyBytes = 8 << 20

// Handler returns the HTTP API:
//
//	GET  /healthz          liveness and uptime (200 as long as the process serves)
//	GET  /readyz           readiness: 503 while materializing or draining
//	GET  /metrics          Prometheus text exposition
//	GET  /v1/program       classification, declarations and model info
//	GET  /v1/stats         per-rule and per-component evaluation breakdowns
//	GET  /v1/explain/plan  compiled operator trees; ?analyze=1 adds measured counters
//	POST /v1/query         point lookups (has/cost) and wildcard scans (facts)
//	POST /v1/assert        batch EDB insertion through the group-commit queue
//	POST /v1/explain       derivation trees, re-derived from the model
//
// Every request — including unknown paths — passes through the
// instrumentation middleware: latency/error accounting (unknowns are
// recorded under the "other" endpoint), an X-Request-Id echo, and
// structured request logs when Config.Logger is set.
//
// Call Materialize first; the handler answers 503 for query endpoints
// until every program has a published model.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/program", s.handleProgram)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/explain/plan", s.handleExplainPlan)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/assert", s.handleAssert)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	return s.instrument(mux)
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// requestID returns the request's identifier: the inbound X-Request-Id
// when it is 1–64 bytes of [A-Za-z0-9._:-], so a client value cannot
// put control characters or a megabyte of text into response headers
// and log lines, and a fresh one otherwise.
func requestID(inbound string) string {
	if len(inbound) == 0 || len(inbound) > 64 {
		return newRequestID()
	}
	for i := 0; i < len(inbound); i++ {
		switch c := inbound[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return newRequestID()
		}
	}
	return inbound
}

// newRequestID returns a 16-hex-char random request identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// instrument wraps the whole mux: every request (known endpoint or not)
// is timed, counted under its normalized endpoint label, tagged with a
// request id (a well-formed inbound X-Request-Id is honored, otherwise
// one is generated; either way it is echoed on the response), and
// logged when a structured logger is configured.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := requestID(r.Header.Get("X-Request-Id"))
		w.Header().Set("X-Request-Id", reqID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(sw, r.Body, maxBodyBytes)
		h.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		endpoint := endpointLabel(r.URL.Path)
		s.metrics.observe(endpoint, sw.status, elapsed)
		if lg := s.cfg.Logger; lg != nil {
			// The response is complete (writeJSON sets its length): send
			// it before formatting and writing the log line, which is then
			// not part of the latency the client sees.
			if f, ok := w.(http.Flusher); ok && w.Header().Get("Content-Length") != "" {
				f.Flush()
			}
			lg.Info("request",
				"request_id", reqID,
				"method", r.Method,
				"path", r.URL.Path,
				"endpoint", endpoint,
				"status", sw.status,
				"duration_ms", float64(elapsed.Nanoseconds())/1e6,
				"remote", r.RemoteAddr)
			if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
				lg.Warn("slow request",
					"request_id", reqID,
					"method", r.Method,
					"path", r.URL.Path,
					"status", sw.status,
					"duration_ms", float64(elapsed.Nanoseconds())/1e6,
					"threshold_ms", float64(s.cfg.SlowRequest.Nanoseconds())/1e6)
			}
		}
	})
}

// writeJSON sends v as the whole response, with its Content-Length set
// so the response is complete once written.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(b.Bytes())
}

func writeErr(w http.ResponseWriter, e *apiError) {
	// Every backpressure-class response (429/503) carries a Retry-After
	// hint; 1s is the floor when the producer had nothing better.
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		if e.RetryAfter <= 0 {
			e.RetryAfter = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.status, map[string]*apiError{"error": e})
}

// statsJSON is the wire form of evaluation statistics.
type statsJSON struct {
	Components int   `json:"components"`
	Rounds     int   `json:"rounds"`
	Firings    int64 `json:"firings"`
	Derived    int64 `json:"derived"`
	Probes     int64 `json:"probes"`
}

func toStatsJSON(st datalog.Stats) statsJSON {
	return statsJSON{Components: st.Components, Rounds: st.Rounds, Firings: st.Firings, Derived: st.Derived, Probes: st.Probes}
}

// readyState classifies the server's readiness: "ok" when every model
// is published and the server is accepting work, otherwise the reason
// it is not ("draining", "wal_failed", "replaying", "materializing").
func (s *Server) readyState() string {
	if s.Draining() {
		return "draining"
	}
	for _, name := range s.names {
		svc := s.svcs[name]
		if svc.walBroken.Load() {
			return "wal_failed"
		}
		if svc.replaying.Load() {
			return "replaying"
		}
		if svc.current() == nil {
			return "materializing"
		}
	}
	return "ok"
}

// handleHealthz is liveness: 200 as long as the process is serving,
// whatever the materialization or drain state — restarting a process
// that is busy materializing only makes overload worse. The body still
// carries the state for humans; machines gate on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"state":          s.readyState(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"programs":       s.names,
	})
}

// handleReadyz is readiness: 503 while any program is still
// materializing and while the server drains, so load balancers stop
// routing before shutdown completes and never route to a cold start.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.readyState()
	status := http.StatusOK
	if state != "ok" {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	body := map[string]any{
		"status":   state,
		"programs": s.names,
	}
	if state == "replaying" {
		// Replay progress by program, so operators can see how far a
		// warm start has gotten through the write-ahead log.
		progress := map[string]any{}
		for _, name := range s.names {
			svc := s.svcs[name]
			if svc.replaying.Load() {
				progress[name] = map[string]uint64{
					"replayed": svc.replayDone.Load(),
					"total":    svc.replayTotal.Load(),
				}
			}
		}
		body["replay"] = progress
	}
	writeJSON(w, status, body)
}

// handleMetrics renders the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.reg.WritePrometheus(w)
}

// ruleStatsJSON is the wire form of one rule's breakdown.
type ruleStatsJSON struct {
	Index     int     `json:"index"`
	Rule      string  `json:"rule"`
	Component int     `json:"component"`
	Rounds    int     `json:"rounds"`
	Firings   int64   `json:"firings"`
	Derived   int64   `json:"derived"`
	Probes    int64   `json:"probes"`
	Seconds   float64 `json:"seconds"`
}

// componentStatsJSON is the wire form of one component's breakdown.
type componentStatsJSON struct {
	Index      int     `json:"index"`
	Preds      string  `json:"preds"`
	WFS        bool    `json:"wfs"`
	Admissible bool    `json:"admissible"`
	Rounds     int     `json:"rounds"`
	Firings    int64   `json:"firings"`
	Derived    int64   `json:"derived"`
	Probes     int64   `json:"probes"`
	Seconds    float64 `json:"seconds"`
}

// handleStats serves the per-rule/per-component evaluation breakdowns
// of the published models, rules sorted hottest-first by cumulative
// evaluation time. ?name= restricts to one program.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	names := s.names
	if want := r.URL.Query().Get("name"); want != "" {
		if _, ok := s.svcs[want]; !ok {
			writeErr(w, errNotFound(fmt.Sprintf("unknown program %q", want)))
			return
		}
		names = []string{want}
	}
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		svc := s.svcs[name]
		st := svc.current()
		if st == nil {
			out = append(out, map[string]any{"name": name, "materialized": false})
			continue
		}
		stats := st.model.Stats()
		rules := make([]ruleStatsJSON, len(stats.Rules))
		for i, rs := range stats.Rules {
			rules[i] = ruleStatsJSON{
				Index: rs.Index, Rule: rs.Rule, Component: rs.Component,
				Rounds: rs.Rounds, Firings: rs.Firings, Derived: rs.Derived,
				Probes: rs.Probes, Seconds: float64(rs.Nanos) / 1e9,
			}
		}
		sort.SliceStable(rules, func(i, j int) bool { return rules[i].Seconds > rules[j].Seconds })
		comps := make([]componentStatsJSON, len(stats.Comps))
		for i, cs := range stats.Comps {
			comps[i] = componentStatsJSON{
				Index: cs.Index, Preds: cs.Preds, WFS: cs.WFS, Admissible: cs.Admissible,
				Rounds: cs.Rounds, Firings: cs.Firings, Derived: cs.Derived,
				Probes: cs.Probes, Seconds: float64(cs.Nanos) / 1e9,
			}
		}
		// operators carries the rule pipelines' per-operator counters
		// from the same ledger, and rounds the RoundLog of the solve
		// that published the model.
		prof := svc.prog.Profile(stats)
		out = append(out, map[string]any{
			"name":       name,
			"version":    st.version,
			"size":       st.model.Size(),
			"stats":      toStatsJSON(stats),
			"rules":      rules,
			"components": comps,
			"operators":  prof.Rules,
			"rounds":     append([]datalog.RoundStats{}, stats.RoundLog...),
		})
	}
	writeJSONCtx(ctx, w, http.StatusOK, map[string]any{"programs": out})
}

// predDeclJSON is the wire form of one predicate declaration.
type predDeclJSON struct {
	Name       string `json:"name"`
	Arity      int    `json:"arity"`
	HasCost    bool   `json:"has_cost"`
	Lattice    string `json:"lattice,omitempty"`
	HasDefault bool   `json:"has_default,omitempty"`
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	names := s.names
	if want := r.URL.Query().Get("name"); want != "" {
		if _, ok := s.svcs[want]; !ok {
			writeErr(w, errNotFound(fmt.Sprintf("unknown program %q", want)))
			return
		}
		names = []string{want}
	}
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		svc := s.svcs[name]
		cl := svc.prog.Classify()
		decls := svc.prog.Predicates()
		preds := make([]predDeclJSON, len(decls))
		for i, d := range decls {
			preds[i] = predDeclJSON{Name: d.Name, Arity: d.Arity, HasCost: d.HasCost, Lattice: d.Lattice, HasDefault: d.HasDefault}
		}
		info := map[string]any{
			"name": name,
			"classification": map[string]any{
				"admissible":           cl.Admissible,
				"reason":               cl.Reason,
				"r_monotonic":          cl.RMonotonic,
				"aggregate_stratified": cl.AggregateStratified,
				"negation_stratified":  cl.NegationStratified,
			},
			"predicates": preds,
		}
		if svc.spec.Checkpoint != "" {
			info["checkpoint"] = svc.spec.Checkpoint
		}
		if svc.wal != nil {
			info["wal"] = map[string]any{
				"dir":      svc.wal.Dir(),
				"fsync":    string(s.cfg.WALFsync),
				"segments": svc.wal.Segments(),
				"broken":   svc.walBroken.Load(),
			}
		}
		if st := svc.current(); st != nil {
			info["version"] = st.version
			info["size"] = st.model.Size()
			info["warm_started"] = st.warm
			info["seq"] = svc.seq.Load()
			info["stats"] = toStatsJSON(st.model.Stats())
		}
		out = append(out, info)
	}
	writeJSONCtx(ctx, w, http.StatusOK, map[string]any{"programs": out})
}

// queryRequest is the /v1/query body.
type queryRequest struct {
	Program string            `json:"program"`
	Op      string            `json:"op"`
	Pred    string            `json:"pred"`
	Args    []json.RawMessage `json:"args"`
}

// resolve parses the common program/predicate/model triple of the read
// and explain endpoints; n is the number of lookup arguments, which
// picks the predicate among the arities of its name.
func (s *Server) resolve(w http.ResponseWriter, program, pred string, n int) (*service, *modelState, datalog.PredDecl, bool) {
	svc, err := s.lookup(program)
	if err != nil {
		writeErr(w, errNotFound(err.Error()))
		return nil, nil, datalog.PredDecl{}, false
	}
	st := svc.current()
	if st == nil {
		writeErr(w, errMaterializing())
		return nil, nil, datalog.PredDecl{}, false
	}
	if pred == "" {
		writeErr(w, errUsage("missing \"pred\""))
		return nil, nil, datalog.PredDecl{}, false
	}
	decl, ok := svc.decl(pred, n, nonCostArity)
	if !ok {
		writeErr(w, errNotFound(fmt.Sprintf("program %s has no predicate %q", svc.name, pred)))
		return nil, nil, datalog.PredDecl{}, false
	}
	return svc, st, decl, true
}

// nonCostArity is the number of lookup arguments of a predicate (the
// cost argument is computed, not addressed).
func nonCostArity(d datalog.PredDecl) int {
	if d.HasCost {
		return d.Arity - 1
	}
	return d.Arity
}

// decl returns the declaration of the predicate named name that takes n
// arguments as arity counts them, the first of name's declarations when
// none does (the caller words the mismatch), and false when the program
// declares no predicate of that name. Two declarations of a name take n
// lookup arguments when one is p/n and the other the cost predicate
// p/n+1; the cost predicate is returned then, so a cost lookup finds it.
func (svc *service) decl(name string, n int, arity func(datalog.PredDecl) int) (datalog.PredDecl, bool) {
	ds := svc.decls[name]
	if len(ds) == 0 {
		return datalog.PredDecl{}, false
	}
	d := ds[0]
	for _, c := range ds {
		if arity(c) == n && (arity(d) != n || c.HasCost) {
			d = c
		}
	}
	return d, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errUsage("bad request body: "+err.Error()))
		return
	}
	svc, st, decl, ok := s.resolve(w, req.Program, req.Pred, len(req.Args))
	if !ok {
		return
	}
	if !s.acquireRead(svc, "/v1/query") {
		writeErr(w, errOverloaded(1))
		return
	}
	defer s.releaseRead(svc)
	wildOK := req.Op == "facts"
	args, err := decodeArgs(req.Args, wildOK)
	if err != nil {
		writeErr(w, errUsage(err.Error()))
		return
	}
	want := nonCostArity(decl)
	switch req.Op {
	case "has", "cost":
		if len(args) != want {
			writeErr(w, errUsage(fmt.Sprintf("%s takes %d lookup arguments, got %d", req.Pred, want, len(args))))
			return
		}
		if req.Op == "cost" && !decl.HasCost {
			writeErr(w, errUsage(fmt.Sprintf("%s is not a cost predicate", req.Pred)))
			return
		}
		reply := pointReply{Op: req.Op, Pred: req.Pred, Program: svc.name, Version: st.version}
		if req.Op == "has" {
			reply.Found = st.model.Has(req.Pred, args...)
		} else {
			var cost datalog.Value
			if cost, reply.Found = st.model.Cost(req.Pred, args...); reply.Found {
				reply.Cost = &jsonValue{cost}
			}
		}
		writeJSONCtx(ctx, w, http.StatusOK, reply)
		return
	}
	resp := map[string]any{"program": svc.name, "op": req.Op, "pred": req.Pred, "version": st.version}
	switch req.Op {
	case "facts", "":
		resp["op"] = "facts"
		var rows [][]datalog.Value
		if len(args) == 0 {
			rows = st.model.Facts(req.Pred)
		} else if len(args) != want {
			writeErr(w, errUsage(fmt.Sprintf("%s takes %d lookup arguments, got %d", req.Pred, want, len(args))))
			return
		} else {
			rows = st.model.Match(req.Pred, args...)
		}
		resp["rows"] = jsonRows(rows)
		resp["count"] = len(rows)
	default:
		writeErr(w, errUsage(fmt.Sprintf("unknown op %q (want \"has\", \"cost\" or \"facts\")", req.Op)))
		return
	}
	writeJSONCtx(ctx, w, http.StatusOK, resp)
}

// pointReply is the /v1/query answer to a has or cost lookup: the fields
// of the map the other ops answer with, in the same (sorted) order, as a
// struct so the hot read path encodes without a map.
type pointReply struct {
	Cost    *jsonValue `json:"cost,omitempty"`
	Found   bool       `json:"found"`
	Op      string     `json:"op"`
	Pred    string     `json:"pred"`
	Program string     `json:"program"`
	Version uint64     `json:"version"`
}

// assertRequest is the /v1/assert body: one batch of EDB facts.
type assertRequest struct {
	Program string     `json:"program"`
	Facts   []wireFact `json:"facts"`
}

// factError is a decoded fact the program's declarations refuse.
type factError struct {
	// unknownPred marks a predicate the program does not declare (404
	// on the API); any other refusal is a parse error.
	unknownPred bool
	msg         string
}

func (e *factError) Error() string { return e.msg }

// checkFacts holds a JSON fact array to the load-time declarations and
// decodes it, fact by fact: predicate declared, arity (cost argument
// included), arguments constants. /v1/assert and JSON WAL records both
// admit facts through it, so a replayed record meets the contract its
// request met. The engine's schema table is shared with concurrent
// readers and must not grow at runtime, which is why unknown predicates
// stop here.
func (svc *service) checkFacts(fs []wireFact) ([]datalog.Fact, *factError) {
	facts := make([]datalog.Fact, len(fs))
	for i, f := range fs {
		decl, ok := svc.decl(f.Pred, len(f.Args), func(d datalog.PredDecl) int { return d.Arity })
		if !ok {
			return nil, &factError{unknownPred: true, msg: fmt.Sprintf("program %s has no predicate %q", svc.name, f.Pred)}
		}
		if len(f.Args) != decl.Arity {
			return nil, &factError{msg: fmt.Sprintf("facts[%d]: %s takes %d arguments (cost last for cost predicates), got %d", i, f.Pred, decl.Arity, len(f.Args))}
		}
		args, err := decodeArgs(f.Args, false)
		if err != nil {
			return nil, &factError{msg: fmt.Sprintf("facts[%d]: %v", i, err)}
		}
		facts[i] = datalog.NewFact(f.Pred, args...)
	}
	return facts, nil
}

func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) {
	var req assertRequest
	// Every exit path records its outcome code (satisfying the
	// mdl_assert_outcomes_total contract: ok or the error kind), under
	// the resolved program name once lookup has succeeded.
	outcome := "ok"
	program := ""
	defer func() { s.metrics.assertOutcome(program, outcome) }()
	fail := func(e *apiError) {
		outcome = e.Code
		writeErr(w, e)
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(errUsage("bad request body: " + err.Error()))
		return
	}
	program = req.Program
	svc, err := s.lookup(req.Program)
	if err != nil {
		fail(errNotFound(err.Error()))
		return
	}
	program = svc.name
	if svc.current() == nil {
		fail(errMaterializing())
		return
	}
	if len(req.Facts) == 0 {
		fail(errUsage("empty fact batch"))
		return
	}
	facts, ferr := svc.checkFacts(req.Facts)
	if ferr != nil {
		if ferr.unknownPred {
			fail(errNotFound(ferr.msg))
		} else {
			fail(&apiError{Code: "parse", Message: ferr.msg, ExitCode: 2, status: http.StatusBadRequest})
		}
		return
	}
	// Validation done (parse errors stayed per-batch, above); from here
	// the batch enters the group-commit path. Admission first: a
	// draining server or a full queue sheds immediately with a backoff
	// hint — the queue bound, not the client count, caps commit latency.
	if s.Draining() {
		s.metrics.shed.With("/v1/assert", "draining").Inc()
		fail(errDrainingShed())
		return
	}
	// The request id instrument set on the response travels with the
	// batch into committer log lines (empty outside the instrumented
	// handler chain).
	cr := &commitReq{facts: facts, done: make(chan commitResult, 1), reqID: w.Header().Get("X-Request-Id")}
	if err := svc.enqueue(cr); err != nil {
		if err == errDraining {
			s.metrics.shed.With("/v1/assert", "draining").Inc()
			fail(errDrainingShed())
		} else {
			s.metrics.shed.With("/v1/assert", "queue_full").Inc()
			fail(errQueueFullShed(svc.retryAfter()))
		}
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	select {
	case res := <-cr.done:
		if res.err != nil {
			fail(classifySolveError(res.err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"program": svc.name,
			"version": res.state.version,
			"size":    res.state.model.Size(),
			// seq is this batch's commit sequence number: monotonic per
			// program, durable when a WAL is configured, and comparable
			// against the "seq" of /v1/program after a restart to resolve
			// the ack-ambiguity window.
			"seq":       res.seq,
			"asserted":  len(facts),
			"coalesced": res.coalesced,
			"stats":     toStatsJSON(res.stats),
		})
	case <-ctx.Done():
		// The batch stays owned by the committer and will still be
		// committed or rejected; only this wait gave up. Clients see the
		// group-commit ambiguity window documented in docs/SERVER.md and
		// should reconcile via the model version on retry.
		fail(&apiError{
			Code: "canceled", Message: "request deadline exceeded while awaiting commit; the batch may still commit",
			ExitCode: 4, RetryAfter: svc.retryAfter(), status: http.StatusServiceUnavailable,
		})
	}
}

// explainRequest is the /v1/explain body.
type explainRequest struct {
	Program string            `json:"program"`
	Pred    string            `json:"pred"`
	Args    []json.RawMessage `json:"args"`
	Depth   int               `json:"depth"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errUsage("bad request body: "+err.Error()))
		return
	}
	svc, st, decl, ok := s.resolve(w, req.Program, req.Pred, len(req.Args))
	if !ok {
		return
	}
	if !s.acquireRead(svc, "/v1/explain") {
		writeErr(w, errOverloaded(1))
		return
	}
	defer s.releaseRead(svc)
	args, err := decodeArgs(req.Args, false)
	if err != nil {
		writeErr(w, errUsage(err.Error()))
		return
	}
	if len(args) != nonCostArity(decl) {
		writeErr(w, errUsage(fmt.Sprintf("%s takes %d lookup arguments, got %d", req.Pred, nonCostArity(decl), len(args))))
		return
	}
	depth := req.Depth
	if depth <= 0 {
		depth = 10
	}
	// The loaded generation answers alone: immutable, it needs no lock,
	// matches the version reported and caches the root for the tree.
	rule, supports, found := st.model.Explain(req.Pred, args...)
	resp := map[string]any{
		"program": svc.name,
		"pred":    req.Pred,
		"version": st.version,
		"found":   found,
	}
	if found {
		resp["rule"] = rule
		resp["supports"] = supports
		resp["tree"] = st.model.ExplainTree(req.Pred, depth, args...)
	} else if st.model.Has(req.Pred, args...) {
		// Present but underived: an EDB fact is its own explanation.
		resp["found"] = true
		resp["rule"] = "[fact]"
		resp["supports"] = []string{}
		resp["tree"] = ""
	}
	writeJSONCtx(ctx, w, http.StatusOK, resp)
}

// handleExplainPlan serves the compiled operator tree of a program's
// rules — EXPLAIN — and, with ?analyze=1, annotates it with the
// published model's per-operator counters and per-rule timings —
// EXPLAIN ANALYZE. JSON by default (the
// machine-readable form); ?format=text renders the human tree.
func (s *Server) handleExplainPlan(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	svc, err := s.lookup(r.URL.Query().Get("name"))
	if err != nil {
		writeErr(w, errNotFound(err.Error()))
		return
	}
	st := svc.current()
	if st == nil {
		writeErr(w, errMaterializing())
		return
	}
	// Plain EXPLAIN is the structure of a zero ledger.
	var ledger datalog.Stats
	analyze := r.URL.Query().Get("analyze") == "1"
	if analyze {
		ledger = st.model.Stats()
	}
	prof := svc.prog.Profile(ledger)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		prof.Render(w)
		return
	}
	writeJSONCtx(ctx, w, http.StatusOK, map[string]any{
		"program": svc.name,
		"version": st.version,
		"analyze": analyze,
		"profile": prof,
	})
}
