package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/datalog"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
)

// serveOptions are the evaluation options `mdl serve` ends up with under
// default flags (-trace defaults to true and the serve tier always
// profiles), so that in-process measurements of the served program's
// layers do the work the child does.
var serveOptions = datalog.Options{Trace: true, Profile: true}

// layerRepeats is how often a whole-model layer measurement is repeated;
// its median is reported.
const layerRepeats = 5

// timeMedian runs f layerRepeats times and returns the median wall in
// milliseconds, recording each run as a span.
func timeMedian(tr *Tracer, name string, f func()) float64 {
	var ms []float64
	for i := 0; i < layerRepeats; i++ {
		start := time.Now()
		f()
		end := time.Now()
		ms = append(ms, float64(end.Sub(start).Nanoseconds())/1e6)
		tr.Record(tr.NewTrace(), 0, name, start, end, nil)
	}
	return median(ms)
}

// measureModelLayers measures the layers under a finished model from
// outside: relation (rebuild the final model row by row, then look every
// row up), snapshot (encode, decode), the facade's lookups on the served
// program's model, and the direct baseline solvers on the same inputs.
// Whole-model measurements cover every solve instance and are reported
// per op, that is divided by the number of instances.
func measureModelLayers(in *inputs, tr *Tracer, out map[string]float64) error {
	var all []program
	for _, inst := range in.instances {
		all = append(all, inst...)
	}
	perOp := 1 / float64(len(in.instances))

	// relation: the final model of every program.
	type rel struct {
		src  *relation.Relation
		rows []relation.Row
	}
	var rels []rel
	rows := 0
	for _, p := range all {
		prog, err := parser.Parse(p.src)
		if err != nil {
			return err
		}
		en, err := core.New(prog, core.Options{Epsilon: p.opts.Epsilon})
		if err != nil {
			return err
		}
		db, _, err := en.Solve(nil)
		if err != nil {
			return err
		}
		for _, k := range db.Preds() {
			r := db.Rel(k)
			rels = append(rels, rel{src: r, rows: r.Rows()})
			rows += r.Len()
		}
	}
	var rebuilt []*relation.Relation
	insertMS := timeMedian(tr, "relation.insert", func() {
		rebuilt = rebuilt[:0]
		for _, r := range rels {
			fresh := relation.New(r.src.Info)
			for _, row := range r.rows {
				cost := lattice.Elem{}
				if row.HasCost {
					cost = row.Cost
				}
				fresh.InsertJoin(row.Args, cost)
			}
			rebuilt = append(rebuilt, fresh)
		}
	})
	missing := 0
	getMS := timeMedian(tr, "relation.get", func() {
		missing = 0
		for i, r := range rels {
			for _, row := range r.rows {
				if _, ok := rebuilt[i].Get(row.Args); !ok {
					missing++
				}
			}
		}
	})
	if missing > 0 {
		return fmt.Errorf("relation: %d rows missing after rebuild", missing)
	}
	out["relation.rows"] = float64(rows) * perOp
	out["relation.insert_ns_per_row"] = insertMS * 1e6 / float64(rows)
	out["relation.get_ns_per_probe"] = getMS * 1e6 / float64(rows)
	out["relation.insert_ms"] = insertMS * perOp

	// snapshot: encode and decode every program's model.
	type loaded struct {
		prog *datalog.Program
		m    *datalog.Model
	}
	var models []loaded
	for _, p := range all {
		prog, err := datalog.Load(p.src, p.opts)
		if err != nil {
			return err
		}
		m, _, err := prog.Solve()
		if err != nil {
			return err
		}
		models = append(models, loaded{prog, m})
	}
	var blobs [][]byte
	out["snapshot.encode_ms"] = perOp * timeMedian(tr, "snapshot.encode", func() {
		blobs = blobs[:0]
		for _, l := range models {
			blobs = append(blobs, l.m.Snapshot())
		}
	})
	var decodeErr error
	out["snapshot.decode_ms"] = perOp * timeMedian(tr, "snapshot.decode", func() {
		for i, l := range models {
			if _, err := l.prog.Restore(blobs[i]); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("snapshot: %w", decodeErr)
	}
	size := 0
	for _, b := range blobs {
		size += len(b)
	}
	out["snapshot.bytes_per_fact"] = float64(size) / float64(rows)

	// datalog facade: point lookups and pattern scans on the served
	// program's model, the calls behind /v1/query.
	prog, err := datalog.Load(in.serveSrc, serveOptions)
	if err != nil {
		return err
	}
	served, _, err := prog.Solve()
	if err != nil {
		return err
	}
	found := 0
	lookupMS := timeMedian(tr, "datalog.cost_lookup", func() {
		for _, p := range in.pairs {
			if _, ok := served.Cost("s", sym("v", p[0]), sym("v", p[1])); ok {
				found++
			}
		}
	})
	if found != layerRepeats*len(in.pairs) {
		return fmt.Errorf("facade: %d of %d seeded pairs found", found, layerRepeats*len(in.pairs))
	}
	out["datalog.cost_lookup_us"] = lookupMS * 1e3 / float64(len(in.pairs))
	scans := in.pairs[:64]
	scanMS := timeMedian(tr, "datalog.match_scan", func() {
		for _, p := range scans {
			served.Match("s", sym("v", p[0]), datalog.Any())
		}
	})
	out["datalog.match_scan_us"] = scanMS * 1e3 / float64(len(scans))

	// baseline: the direct algorithms on the same inputs.
	out["baseline.direct_ms"] = perOp * timeMedian(tr, "baseline.direct", func() {
		for _, p := range all {
			p.direct()
		}
	})
	return nil
}

// writeLayerBatches bounds how many of the acknowledged batches are
// replayed through each write-path layer in process; all three layers
// replay the same ones, so their difference (server.assert_self_ms) is
// taken over identical work.
const writeLayerBatches = 60

func batchFacts(batch []arc) []datalog.Fact {
	facts := make([]datalog.Fact, len(batch))
	for i, a := range batch {
		facts[i] = datalog.NewFact("arc", datalog.Sym(a.From), datalog.Sym(a.To), datalog.Num(a.W))
	}
	return facts
}

// measureWriteLayers replays the assert batches the child acknowledged
// through each layer of the write path on its own, in this process:
// Program.SolveMore (the incremental solve), wal.Append+Sync (the
// durable log, same payloads, a directory beside the child's), and the
// server's Handler() through a recorder (everything but the socket).
func measureWriteLayers(in *inputs, acked int, dir string, tr *Tracer, out map[string]float64) error {
	batches := in.batches[:min(acked, writeLayerBatches)]

	// core (incremental)
	prog, err := datalog.Load(in.serveSrc, serveOptions)
	if err != nil {
		return err
	}
	m, _, err := prog.Solve()
	if err != nil {
		return err
	}
	var moreMS []float64
	derived := int64(0)
	for _, b := range batches {
		facts := batchFacts(b)
		before := m.Stats().Derived
		start := time.Now()
		next, st, err := prog.SolveMore(m, facts...)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("solve_more: %w", err)
		}
		moreMS = append(moreMS, float64(end.Sub(start).Nanoseconds())/1e6)
		tr.Record(tr.NewTrace(), 0, "core.solve_more", start, end, map[string]float64{"derived": float64(st.Derived - before)})
		derived += st.Derived - before
		m = next
	}
	out["core.solve_more_ms"] = median(moreMS)
	out["core.solve_more_derived_per_batch"] = float64(derived) / float64(len(batches))

	// wal
	walDir := filepath.Join(dir, "wal-direct")
	defer os.RemoveAll(walDir)
	log, err := wal.Open(wal.Options{Dir: walDir, Fingerprint: prog.Fingerprint()})
	if err != nil {
		return err
	}
	var walMS []float64
	for i, b := range batches {
		payload := walPayload(b)
		start := time.Now()
		_, err := log.Append(uint64(i+1), payload)
		if err == nil {
			err = log.Sync()
		}
		end := time.Now()
		if err != nil {
			log.Close()
			return fmt.Errorf("wal: %w", err)
		}
		walMS = append(walMS, float64(end.Sub(start).Nanoseconds())/1e6)
		tr.Record(tr.NewTrace(), 0, "wal.append_sync", start, end, map[string]float64{"bytes": float64(len(payload))})
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	out["wal.append_sync_ms"] = median(walMS)

	// server, in process
	handlerWAL := filepath.Join(dir, "wal-handler")
	defer os.RemoveAll(handlerWAL)
	srv, err := server.New(
		[]server.ProgramSpec{{Name: "served", Source: in.serveSrc, Options: serveOptions}},
		server.Config{WALDir: handlerWAL, WALFsync: fsyncPolicy, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Materialize(context.Background()); err != nil {
		return err
	}
	h := srv.Handler()
	call := func(name, path string, body []byte) (float64, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		tr.Record(tr.NewTrace(), 0, name, start, end, nil)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		return float64(end.Sub(start).Nanoseconds()) / 1e6, nil
	}
	var assertMS, queryMS []float64
	for i, b := range batches {
		ms, err := call("server.handler_assert", "/v1/assert", assertBody(b))
		if err != nil {
			return err
		}
		assertMS = append(assertMS, ms)
		// A few point lookups between asserts, as the reader's are.
		for q := 0; q < 4; q++ {
			p := in.pairs[(i*4+q)%len(in.pairs)]
			ms, err := call("server.handler_query", "/v1/query", costBody(p[0], p[1]))
			if err != nil {
				return err
			}
			queryMS = append(queryMS, ms)
		}
	}
	out["server.handler_assert_ms"] = median(assertMS)
	out["server.handler_query_ms"] = median(queryMS)
	return nil
}
