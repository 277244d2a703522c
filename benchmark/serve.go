package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/datalog"
	"repro/internal/baseline"
)

// fsyncPolicy is passed explicitly so both sides of a comparison flush
// the same way even if the default changes.
const fsyncPolicy = "batch"

// scanEvery makes every scanEvery-th read a pattern scan
// (s(u, _)) instead of a point lookup; scans are reported separately.
const scanEvery = 16

// The SIGKILL/restart cycles that end a pass: a cycle is one short,
// single measurement, so there are as many as fit — at most
// maxRecoveries, at least minRecoveries, and no new one once the cycles
// have taken recoveryShare of --seconds.
const (
	maxRecoveries = 7
	minRecoveries = 3
	recoveryShare = 0.3
)

// child is one `mdl serve` child process.
type child struct {
	bin, progPath, walDir, logPath string
	addr                           string
	cmd                            *exec.Cmd
	exited                         chan struct{} // closed once cmd has been waited for
	waitErr                        error
	log                            *os.File
}

// newChild prepares a run directory holding the program text, the WAL
// directory and the child's log; nothing is started yet.
func newChild(bin, dir, src string) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &child{bin: bin, progPath: filepath.Join(dir, "served.mdl"), walDir: filepath.Join(dir, "wal"), logPath: filepath.Join(dir, "serve.log")}
	if err := os.WriteFile(s.progPath, []byte(src), 0o644); err != nil {
		return nil, err
	}
	// Ask the kernel for a free port, then hand it to the child.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	ln.Close()
	return s, nil
}

// start launches the child with default flags except the listen
// address (a deployment setting) and the WAL, and waits until /readyz
// answers 200. It returns the time from launch to ready.
func (s *child) start() (time.Duration, error) {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	s.log = logf
	s.cmd = exec.Command(s.bin, "serve", "-addr", s.addr, "-wal", s.walDir, "-wal-fsync", fsyncPolicy, s.progPath)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	begin := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		s.cmd = nil
		return 0, err
	}
	s.exited = make(chan struct{})
	go func(cmd *exec.Cmd, exited chan struct{}) {
		s.waitErr = cmd.Wait()
		close(exited)
	}(s.cmd, s.exited)
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for time.Since(begin) < 60*time.Second {
		select {
		case <-s.exited:
			logf.Close()
			s.cmd = nil
			return 0, fmt.Errorf("mdl serve exited before it was ready: %v (see %s)", s.waitErr, s.logPath)
		default:
		}
		resp, err := client.Get("http://" + s.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(begin), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return 0, fmt.Errorf("mdl serve not ready after 60s (see %s)", s.logPath)
}

// kill sends SIGKILL and waits until the child has ended.
func (s *child) kill() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
	s.cmd = nil
}

// conn is one client connection: a transport of its own, so that the
// number of goroutines using conns is the number of TCP connections.
type conn struct {
	base   string
	client *http.Client
}

func (s *child) dial() *conn {
	return &conn{base: "http://" + s.addr, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one JSON request and returns the status, the body and the
// time from send to the last byte of the reply.
func (c *conn) post(path string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

func (c *conn) get(path string) (int, []byte, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// Request bodies, rendered once per run so that building them is not
// part of any latency.

func assertBody(batch []arc) []byte {
	return append(append([]byte(`{"facts":`), walPayload(batch)...), '}')
}

// walPayload is the record the server logs for a batch (the facts in
// the server's JSON value encoding), used to size direct WAL appends.
func walPayload(batch []arc) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, a := range batch {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"pred":"arc","args":[%q,%q,%s]}`, a.From, a.To, strconv.FormatFloat(a.W, 'g', -1, 64))
	}
	b.WriteByte(']')
	return b.Bytes()
}

func costBody(u, v int) []byte {
	return []byte(fmt.Sprintf(`{"op":"cost","pred":"s","args":["v%d","v%d"]}`, u, v))
}

func scanBody(u int) []byte {
	return []byte(fmt.Sprintf(`{"op":"facts","pred":"s","args":["v%d",null]}`, u))
}

// costReply and factsReply are the parts of /v1/query answers the
// checks need.
type costReply struct {
	Found bool     `json:"found"`
	Cost  *float64 `json:"cost"`
}

type factsReply struct {
	Rows  [][]json.RawMessage `json:"rows"`
	Count int                 `json:"count"`
}

// decodeRow turns one s/3 row of a facts reply into symbols and cost.
func decodeRow(raw []json.RawMessage) (from, to string, cost float64, ok bool) {
	if len(raw) != 3 {
		return "", "", 0, false
	}
	if json.Unmarshal(raw[0], &from) != nil || json.Unmarshal(raw[1], &to) != nil || json.Unmarshal(raw[2], &cost) != nil {
		return "", "", 0, false
	}
	return from, to, cost, true
}

// answer is one read reply (or one row of a scan reply), kept for
// checking once the final oracle is known; v is -1 for a malformed row.
type answer struct {
	u, v  int
	cost  float64
	found bool
}

// clientStats is what one client goroutine saw; each goroutine owns its
// own, so nothing is shared while requests are in flight.
type clientStats struct {
	tally
	shed, errors int
}

// refuse classifies a failed request: a 429/503 is the server shedding
// load, anything else an error. Both count as failed operations.
func (c *clientStats) refuse(status int, err error, what string, i int) {
	if err == nil && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		c.shed++
	} else {
		c.errors++
	}
	c.note(false, "%s %d: status %d, error %v", what, i, status, err)
}

// serveResult is what the serve phase measured.
type serveResult struct {
	readyS     float64 // cold start: launch → /readyz 200
	assertMS   []float64
	queryMS    []float64
	scanMS     []float64
	assertWall time.Duration // wall of the assert phase
	acked      int           // assert batches acknowledged
	shed       int           // 429/503 replies
	errors     int           // transport errors and other non-200 replies
	metrics    []promSample  // /metrics after the assert phase
	recoveryS  []float64     // SIGKILL → /readyz 200, per recovery
	replayed   float64       // batches the last restart replayed from the WAL
	// recoveryFactors are the machine-speed factors measured around each
	// recovery (see calib.go).
	recoveryFactors []float64
}

// serveSession is the serve side of one pass: the child, the two client
// connections and what they have seen so far. The pass alternates
// slices of cold solves with slices of serving, so that every metric
// samples the whole run and not one stretch of it: on this machine the
// speed of identical work drifts by a tenth over tens of seconds.
type serveSession struct {
	srv  *child
	in   *inputs
	tr   *Tracer
	res  *serveResult
	stop time.Time // time cap of the whole session

	writerConn, readerConn *conn
	writer, reader         clientStats
	bodies, costBodies     [][]byte
	answers                []answer
	reads                  int // requests the reader has sent, across slices
	writerFailed           bool
}

// openSession starts the child and the connections. Request bodies are
// rendered here, once, so that building them is in no latency.
func openSession(srv *child, in *inputs, cap time.Duration, tr *Tracer) (*serveSession, error) {
	ready, err := srv.start()
	if err != nil {
		return nil, err
	}
	s := &serveSession{srv: srv, in: in, tr: tr, res: &serveResult{readyS: ready.Seconds()}, stop: time.Now().Add(cap)}
	s.writerConn, s.readerConn = srv.dial(), srv.dial()
	for _, b := range in.batches {
		s.bodies = append(s.bodies, assertBody(b))
	}
	for _, p := range in.pairs {
		s.costBodies = append(s.costBodies, costBody(p[0], p[1]))
	}
	return s, nil
}

// slice sends batches [lo, hi) from the writer while the reader runs
// beside it, and returns when the writer is done.
func (s *serveSession) slice(lo, hi int) {
	if s.writerFailed {
		return
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	// Writer: assert batches back to back, each sent when the previous
	// one is acknowledged as durable. It stops for good at the first
	// failure so that the acknowledged batches stay a prefix, which the
	// recovery check relies on.
	go func() {
		defer wg.Done()
		defer close(done)
		for i := lo; i < hi; i++ {
			if time.Now().After(s.stop) {
				s.writerFailed = true
				return
			}
			sent := time.Now()
			status, _, d, err := s.writerConn.post("/v1/assert", s.bodies[i])
			if err != nil || status != http.StatusOK {
				s.writer.refuse(status, err, "assert", i)
				s.writerFailed = true
				return
			}
			s.writer.note(true, "")
			s.res.acked++
			s.res.assertMS = append(s.res.assertMS, float64(d.Nanoseconds())/1e6)
			s.tr.Record(s.tr.NewTrace(), 0, "client.assert", sent, sent.Add(d), nil)
		}
	}()
	// Reader: point lookups (and every scanEvery-th a scan) until the
	// writer is done.
	go func() {
		defer wg.Done()
		for ; ; s.reads++ {
			select {
			case <-done:
				return
			default:
			}
			s.read(s.reads)
		}
	}()
	wg.Wait()
	s.res.assertWall += time.Since(start)
}

// read issues the reader's i-th request and keeps the answer for the
// check against the final oracle.
func (s *serveSession) read(i int) {
	in, res := s.in, s.res
	pi := i % len(in.pairs)
	u, v := in.pairs[pi][0], in.pairs[pi][1]
	if i%scanEvery == scanEvery-1 {
		sent := time.Now()
		status, data, d, err := s.readerConn.post("/v1/query", scanBody(u))
		var reply factsReply
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &reply) != nil {
			s.reader.refuse(status, err, "scan", i)
			return
		}
		s.reader.note(true, "")
		res.scanMS = append(res.scanMS, float64(d.Nanoseconds())/1e6)
		s.tr.Record(s.tr.NewTrace(), 0, "client.scan", sent, sent.Add(d), map[string]float64{"rows": float64(reply.Count)})
		for _, raw := range reply.Rows {
			_, to, cost, ok := decodeRow(raw)
			s.answers = append(s.answers, answer{u: u, v: in.vertex(to), cost: cost, found: ok})
		}
		return
	}
	sent := time.Now()
	status, data, d, err := s.readerConn.post("/v1/query", s.costBodies[pi])
	var reply costReply
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &reply) != nil {
		s.reader.refuse(status, err, "query", i)
		return
	}
	s.reader.note(true, "")
	res.queryMS = append(res.queryMS, float64(d.Nanoseconds())/1e6)
	s.tr.Record(s.tr.NewTrace(), 0, "client.query", sent, sent.Add(d), nil)
	a := answer{u: u, v: v, found: reply.Found}
	if reply.Cost != nil {
		a.cost = *reply.Cost
	}
	s.answers = append(s.answers, a)
}

// finish checks every read against the final oracle, scrapes /metrics,
// then kills and restarts the child several times, checking the
// recovered model each time, and leaves the child stopped.
func (s *serveSession) finish(tl *tally, seconds float64) (*serveResult, error) {
	srv, in, tr, res := s.srv, s.in, s.tr, s.res
	defer srv.kill()
	s.writerConn.close()
	s.readerConn.close()
	res.shed = s.writer.shed + s.reader.shed
	res.errors = s.writer.errors + s.reader.errors
	tl.merge(s.writer.tally)
	tl.merge(s.reader.tally)

	// The final oracle: the served graph plus every acknowledged batch.
	// Every answer given while asserts ran must lie between the final
	// and the initial oracle cost. Point lookups use pairs reachable
	// from the start, so they must be found; a scan may also return a
	// target that only an asserted arc made reachable.
	final := in.unionGraph(res.acked)
	badReads := 0
	finalDist := map[int][]float64{}
	for _, a := range s.answers {
		if _, ok := finalDist[a.u]; !ok {
			finalDist[a.u] = baseline.Dijkstra(final, a.u)
		}
		if a.v < 0 || a.v >= in.graph.N || !a.found || a.cost < finalDist[a.u][a.v] || a.cost > in.dist[a.u][a.v] {
			badReads++
		}
	}
	if badReads > 0 {
		// each was counted as attempted when it was answered
		tl.failed += badReads
		if tl.firstFailure == "" {
			tl.firstFailure = fmt.Sprintf("%d read answers outside [final, initial] oracle cost", badReads)
		}
	}

	c := srv.dial()
	defer c.close()
	if status, data, err := c.get("/metrics"); err == nil && status == http.StatusOK {
		res.metrics, _ = parseProm(string(data))
	}

	// Recovery. Only SIGKILL: the operating system's cache survives, so
	// these are the sandbox's timings, not a storage device's.
	var oneShot [][]datalog.Value
	began := time.Now()
	for r := 0; r < maxRecoveries; r++ {
		if r >= minRecoveries && time.Since(began).Seconds() > recoveryShare*seconds {
			break
		}
		c.close()
		sp := &speed{tr: tr}
		sp.sample()
		killed := time.Now()
		srv.kill()
		restart, err := srv.start()
		if err != nil {
			tl.note(false, "recovery %d: %v", r, err)
			return res, err
		}
		recovered := time.Now()
		sp.sample()
		res.recoveryFactors = append(res.recoveryFactors, sp.factor())
		res.recoveryS = append(res.recoveryS, recovered.Sub(killed).Seconds())
		tr.Record(tr.NewTrace(), 0, "recovery", killed, recovered, map[string]float64{"restart_s": restart.Seconds()})

		if status, data, err := c.get("/metrics"); err == nil && status == http.StatusOK {
			ms, _ := parseProm(string(data))
			res.replayed = promSum(ms, "mdl_wal_replayed_batches_total")
		}
		status, data, _, err := c.post("/v1/query", []byte(`{"op":"facts","pred":"s"}`))
		var dump factsReply
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &dump) != nil {
			tl.note(false, "recovery %d: dump failed: status %d, error %v", r, status, err)
			continue
		}
		wrong := checkRecovered(in, res.acked, final, dump)
		// The recovered model must also equal a one-shot solve of the
		// union; the union is the same after every restart, so it is
		// solved once.
		if oneShot == nil {
			p, err := datalog.Load(in.unionSource(res.acked), datalog.Options{})
			if err == nil {
				var m *datalog.Model
				if m, _, err = p.Solve(); err == nil {
					oneShot = m.Facts("s")
				}
			}
			if err != nil {
				tl.note(false, "recovery %d: one-shot solve of the union: %v", r, err)
				continue
			}
		}
		wrong += diffDump(oneShot, dump)
		tl.note(wrong == 0, "recovery %d: %d rows of the recovered model differ from the oracle or the one-shot solve", r, wrong)
	}
	return res, nil
}

// checkRecovered compares the full s/3 dump of a restarted server with
// the oracle on the union graph: exactly the finite pairs at their
// oracle costs, which includes every acknowledged batch's fresh arc.
func checkRecovered(in *inputs, acked int, final *baseline.Graph, dump factsReply) (wrong int) {
	got := make(map[[2]int]float64, len(dump.Rows))
	for _, raw := range dump.Rows {
		from, to, cost, ok := decodeRow(raw)
		if !ok {
			wrong++
			continue
		}
		u, v := in.vertex(from), in.vertex(to)
		if u < 0 || v < 0 {
			wrong++
			continue
		}
		got[[2]int{u, v}] = cost
	}
	finite := 0
	for u := 0; u < final.N; u++ {
		for v, want := range baseline.Dijkstra(final, u) {
			if math.IsInf(want, 1) {
				continue
			}
			finite++
			if c, ok := got[[2]int{u, v}]; !ok || c != want {
				wrong++
			}
		}
	}
	wrong += abs(len(got) - finite)
	// Every acknowledged batch's fresh arc, by name: s(fK, gK) at exactly
	// the arc's weight.
	for _, b := range in.batches[:acked] {
		a := b[0]
		if c, ok := got[[2]int{in.vertex(a.From), in.vertex(a.To)}]; !ok || c != a.W {
			wrong++
		}
	}
	return wrong
}

// diffDump counts rows on which a facts reply and Model.Facts disagree;
// both are in the model's deterministic sorted order.
func diffDump(want [][]datalog.Value, dump factsReply) (wrong int) {
	if len(want) != len(dump.Rows) {
		return abs(len(want)-len(dump.Rows)) + 1
	}
	for i, raw := range dump.Rows {
		from, to, cost, ok := decodeRow(raw)
		wf, _ := want[i][0].Text()
		wt, _ := want[i][1].Text()
		wc, _ := want[i][2].Float()
		if !ok || from != wf || to != wt || cost != wc {
			wrong++
		}
	}
	return wrong
}
