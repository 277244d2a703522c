package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/datalog"
	"repro/internal/wal"
)

// encodeWALPayload is the JSON record encoder of servers built before
// binary records: the batch as the /v1/assert fact array. Nothing writes
// JSON records now; the tests keep it to write the logs such servers
// left behind, and compat_test.go pins its bytes.
func encodeWALPayload(facts []datalog.Fact) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, f := range facts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"pred":`)
		name, _ := json.Marshal(f.Pred)
		b.Write(name)
		b.WriteString(`,"args":[`)
		for j, a := range f.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			encodeValue(&b, a)
		}
		b.WriteString(`]}`)
	}
	b.WriteByte(']')
	return b.Bytes()
}

// binaryRecord is the payload walAppend writes for facts.
func binaryRecord(facts []datalog.Fact) []byte {
	return datalog.AppendFacts([]byte{walRows}, facts)
}

// replayed solves svc's program over the facts of one record payload.
func replayed(svc *service, payload []byte) (*datalog.Model, error) {
	b := svc.prog.NewBatch()
	if err := svc.replayRecord(b, 1, payload); err != nil {
		return nil, err
	}
	m, _, err := svc.prog.Resume(context.Background(), nil, b)
	return m, err
}

// recordSrc declares predicates for every kind of value a record can
// carry: plain arguments (p/1, q/2), a numeric cost (c/2) and a set cost
// (u/2).
const recordSrc = `
.cost c/2 : maxreal.
.cost u/2 : setunion.
p(a). q(a, b). c(a, 1). u(a, {}).
`

// recordTexts are the texts of generated symbols and strings: quotes,
// accents, NUL, the separators of display keys, and the empty text.
var recordTexts = []string{"a", `q"uote\`, "é", "nul\x00x", "semi;colon", "a;q:b", "", "x y", "{a}"}

// recordNums are the generated numbers: both zeros, both infinities,
// the least and greatest subnormals, ordinary ones, and NaN, which every
// route must refuse.
var recordNums = []float64{0, math.Copysign(0, -1), 1.5, -2, math.Inf(1), math.Inf(-1),
	5e-324, 2.2250738585072009e-308, 1e308, math.NaN()}

// recordGen generates facts from fuzz bytes, one decision per byte
// (zero once the bytes run out). nan records whether it generated a NaN.
type recordGen struct {
	data []byte
	nan  bool
}

func (g *recordGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

func (g *recordGen) value(depth int) datalog.Value {
	switch g.next() % 6 {
	case 0:
		return datalog.Sym(recordTexts[g.next()%len(recordTexts)])
	case 1:
		// A string may share its text with a symbol.
		return datalog.Str(recordTexts[g.next()%len(recordTexts)])
	case 2:
		n := recordNums[g.next()%len(recordNums)]
		g.nan = g.nan || math.IsNaN(n)
		return datalog.Num(n)
	case 3:
		return datalog.Bool(g.next()%2 == 1)
	}
	if depth >= 3 {
		return datalog.Sym("leaf")
	}
	elems := make([]datalog.Value, g.next()%4)
	for i := range elems {
		elems[i] = g.value(depth + 1)
	}
	return datalog.SetOf(elems...)
}

// batch generates up to eight facts. Most fit recordSrc; some name an
// unknown predicate, take a wrong arity, carry a cost outside the
// lattice or hold a NaN, which Add and replay must refuse alike.
func (g *recordGen) batch() []datalog.Fact {
	facts := make([]datalog.Fact, 1+g.next()%8)
	for i := range facts {
		preds := []struct {
			name  string
			arity int
		}{{"p", 1}, {"q", 2}, {"c", 2}, {"u", 2}, {"nosuch", 1}, {"q", 3}}
		pr := preds[g.next()%len(preds)]
		args := make([]datalog.Value, pr.arity)
		for j := range args {
			args[j] = g.value(0)
		}
		facts[i] = datalog.NewFact(pr.name, args...)
	}
	return facts
}

// FuzzWALRecord: replay reads record payloads from disk, so arbitrary
// bytes must never panic it — they either decode or fail with
// wal.ErrCorrupt. The same bytes also drive a generator of batches:
// a generated batch written as a binary record replays to exactly the
// rows Add stores for it (snapshot bytes compared), or both refuse it,
// as both must when it holds a NaN.
func FuzzWALRecord(f *testing.F) {
	s, err := New([]ProgramSpec{{Name: "r", Source: recordSrc}}, Config{})
	if err != nil {
		f.Fatal(err)
	}
	svc := s.svcs["r"]
	seeds := [][]datalog.Fact{
		{datalog.NewFact("q", datalog.Sym(`q"\`), datalog.Str(`q"\`))},
		{datalog.NewFact("c", datalog.Sym("é"), datalog.Num(math.Inf(1))),
			datalog.NewFact("u", datalog.SetOf(datalog.Str("x"), datalog.SetOf(), datalog.Num(-0.25)), datalog.SetOf(datalog.Sym("a;q:b")))},
		{datalog.NewFact("p", datalog.Num(math.Copysign(0, -1))), datalog.NewFact("p", datalog.Num(5e-324))},
		{datalog.NewFact("c", datalog.Sym("a"), datalog.Num(math.NaN()))},
		{datalog.NewFact("q", datalog.Sym("a"), datalog.SetOf(datalog.SetOf(datalog.Num(math.NaN()))))},
	}
	for _, fs := range seeds {
		f.Add(binaryRecord(fs))
		f.Add(encodeWALPayload(fs))
	}
	f.Add([]byte{})
	f.Add([]byte{walRows})
	f.Add([]byte{walRows, 1, 1, 'p', 1, byte(0x02)})
	f.Add([]byte{0x7f, 0, 1})
	f.Add([]byte{0, 0, 2, 9}) // generates p(NaN)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := svc.prog.NewBatch()
		if err := svc.replayRecord(b, 1, data); err != nil && !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("replay(%q): %v is not wal.ErrCorrupt", data, err)
		}

		g := &recordGen{data: data}
		facts := g.batch()
		want := svc.prog.NewBatch()
		addErr := want.Add(facts...)
		got := svc.prog.NewBatch()
		replayErr := svc.replayRecord(got, 1, binaryRecord(facts))
		if (addErr == nil) != (replayErr == nil) || g.nan && addErr == nil {
			t.Fatalf("facts %v: Add error %v, replay error %v", facts, addErr, replayErr)
		}
		if addErr != nil {
			return
		}
		wm, _, err := svc.prog.Resume(context.Background(), nil, want)
		if err != nil {
			t.Fatal(err)
		}
		gm, _, err := svc.prog.Resume(context.Background(), nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gm.Snapshot(), wm.Snapshot()) {
			t.Fatalf("facts %v replay to\n%s\nwant\n%s", facts, gm, wm)
		}
	})
}

// TestMixedLogReplay: a log whose first records are JSON, written as a
// server built before binary records wrote them, and whose later records
// are binary replays to the least model of the base EDB ∪ every batch.
// Cold, the recovery is one solve with the one-shot solve's rounds,
// firings and derivations; warm, from a checkpoint taken between the two
// parts, the model is the same.
func TestMixedLogReplay(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			src, batches := recoveryWorkload(seed)
			split := len(batches) / 2
			p, err := datalog.Load(src, datalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var acked, before []datalog.Fact
			for i, b := range batches {
				acked = append(acked, b...)
				if i < split {
					before = append(before, b...)
				}
			}
			want, wantStats, err := p.Solve(acked...)
			if err != nil {
				t.Fatal(err)
			}

			// The JSON part, and a checkpoint at its end.
			cfg := Config{WALDir: t.TempDir()}
			log, err := wal.Open(wal.Options{Dir: filepath.Join(cfg.WALDir, "sp"), Fingerprint: p.Fingerprint()})
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches[:split] {
				if _, err := log.Append(uint64(i+1), encodeWALPayload(b)); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "sp.snap")
			mid, _, err := p.Solve(before...)
			if err != nil {
				t.Fatal(err)
			}
			if err := mid.WriteSnapshot(ckpt, uint64(split)); err != nil {
				t.Fatal(err)
			}

			// The binary part, asserted through a server that recovered
			// the JSON part.
			s1 := newWALServer(t, src, cfg)
			ts := httptest.NewServer(s1.Handler())
			for i, b := range batches[split:] {
				body := fmt.Sprintf(`{"facts":%s}`, encodeWALPayload(b))
				if code, resp := post(t, ts.URL+"/v1/assert", body); code != 200 {
					t.Fatalf("batch %d: %d %v", split+i, code, resp)
				}
			}
			ts.Close()
			s1.Close()
			if kinds := recordKinds(t, cfg.WALDir, p.Fingerprint()); kinds != fmt.Sprintf("%d json, %d binary", split, len(batches)-split) {
				t.Fatalf("log holds %s records", kinds)
			}

			cold := newWALServer(t, src, cfg)
			got := cold.svcs["sp"].current().model
			cold.Close()
			if got.String() != want.String() {
				t.Fatalf("cold recovery:\n%s\nwant the one-shot solve:\n%s", got, want)
			}
			if st := got.Stats(); st.Rounds != wantStats.Rounds || st.Firings != wantStats.Firings || st.Derived != wantStats.Derived {
				t.Fatalf("cold recovery took rounds=%d firings=%d derived=%d, the one-shot solve rounds=%d firings=%d derived=%d",
					st.Rounds, st.Firings, st.Derived, wantStats.Rounds, wantStats.Firings, wantStats.Derived)
			}

			warm, err := New([]ProgramSpec{{Name: "sp", Source: src, Resume: ckpt}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.Materialize(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			st := warm.svcs["sp"].current()
			if !st.warm {
				t.Fatal("restart with a checkpoint was not warm")
			}
			if st.model.String() != want.String() {
				t.Fatalf("warm recovery:\n%s\nwant the one-shot solve:\n%s", st.model, want)
			}
		})
	}
}

// recordKinds counts the JSON and binary records of the log under dir.
func recordKinds(t *testing.T, dir string, fp [32]byte) string {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "sp"), Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var jsonN, binN int
	if err := log.Replay(func(_ uint64, payload []byte) error {
		switch payload[0] {
		case '[':
			jsonN++
		case walRows:
			binN++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d json, %d binary", jsonN, binN)
}

// TestReplayLogOfJSONServer: testdata/compat/wal-json holds a log that a
// server built before binary records wrote — examples/programs/
// shortestpath.mdl (copied as sp.mdl) served by `mdl serve -wal`, twelve
// batches of two arcs asserted over HTTP, then SIGKILL. It replays to the
// one-shot solve of the program with those arcs, in one solve.
func TestReplayLogOfJSONServer(t *testing.T) {
	fixture := filepath.Join("testdata", "compat", "wal-json")
	src, err := os.ReadFile(filepath.Join(fixture, "sp.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WALDir: t.TempDir()}
	segs, err := filepath.Glob(filepath.Join(fixture, "sp", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("fixture segments %v, %v", segs, err)
	}
	if err := os.Mkdir(filepath.Join(cfg.WALDir, "sp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.WALDir, "sp", filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var acked []datalog.Fact
	for k := 0; k < 12; k++ {
		mid := datalog.Sym(fmt.Sprintf("q\"u é;%d", k))
		acked = append(acked,
			datalog.NewFact("arc", datalog.Sym(fmt.Sprintf("w%d", k)), mid, datalog.Num(float64(k%4+1))),
			datalog.NewFact("arc", mid, datalog.Sym("a"), datalog.Num(float64(k%3)+0.5)))
	}
	p, err := datalog.Load(string(src), datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := p.Solve(acked...)
	if err != nil {
		t.Fatal(err)
	}
	if kinds := recordKinds(t, cfg.WALDir, p.Fingerprint()); kinds != "12 json, 0 binary" {
		t.Fatalf("fixture holds %s records", kinds)
	}
	s := newWALServer(t, string(src), cfg)
	defer s.Close()
	got := s.svcs["sp"].current().model
	if got.String() != want.String() {
		t.Fatalf("recovered\n%s\nwant the one-shot solve\n%s", got, want)
	}
	if st := got.Stats(); st.Rounds != wantStats.Rounds || st.Firings != wantStats.Firings || st.Derived != wantStats.Derived {
		t.Fatalf("recovery took rounds=%d firings=%d derived=%d, the one-shot solve rounds=%d firings=%d derived=%d",
			st.Rounds, st.Firings, st.Derived, wantStats.Rounds, wantStats.Firings, wantStats.Derived)
	}
}
