package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/datalog"
	"repro/internal/faults"
	"repro/internal/wal"
)

// newWALServer builds and materializes a one-program server with the
// write-ahead log rooted at dir. The caller owns shutdown.
func newWALServer(t testing.TB, src string, cfg Config) *Server {
	t.Helper()
	s, err := New([]ProgramSpec{{Name: "sp", Source: src}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertBatch posts one arc fact and returns the response map.
func assertBatch(t testing.TB, url string, i int) map[string]any {
	t.Helper()
	body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["w%d","w%d",1]}]}`, i, i+1)
	code, resp := post(t, url+"/v1/assert", body)
	if code != http.StatusOK {
		t.Fatalf("assert %d: %d %v", i, code, resp)
	}
	return resp
}

// TestChaosWALReplayRestoresAckedBatches is the core durability
// contract without any checkpoint: every acked batch must be rebuilt
// from the log alone on restart, and the recovered model must equal a
// one-shot solve over the same EDB.
func TestChaosWALReplayRestoresAckedBatches(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	dir := t.TempDir()
	cfg := Config{WALDir: dir, WALFsync: FsyncBatch}

	s1 := newWALServer(t, src, cfg)
	ts := httptest.NewServer(s1.Handler())
	const batches = 8
	var facts []datalog.Fact
	for i := 0; i < batches; i++ {
		resp := assertBatch(t, ts.URL, i)
		if got := uint64(resp["seq"].(float64)); got != uint64(i)+1 {
			t.Fatalf("batch %d acked with seq %v, want %d", i, resp["seq"], i+1)
		}
		facts = append(facts, datalog.NewFact("arc",
			datalog.Sym(fmt.Sprintf("w%d", i)), datalog.Sym(fmt.Sprintf("w%d", i+1)), datalog.Num(1)))
	}
	ts.Close()
	s1.Close()

	// Restart: no checkpoint, so everything must come from the log.
	s2 := newWALServer(t, src, cfg)
	defer s2.Close()
	svc := s2.svcs["sp"]
	if got := svc.seq.Load(); got != batches {
		t.Fatalf("recovered seq %d, want %d", got, batches)
	}
	st := svc.current()
	for i := 0; i < batches; i++ {
		if !st.model.Has("arc", datalog.Sym(fmt.Sprintf("w%d", i)), datalog.Sym(fmt.Sprintf("w%d", i+1))) {
			t.Fatalf("acked batch %d missing after restart", i)
		}
	}
	// Warm-restart equality: the recovered model is exactly the least
	// model of the seed program plus every acked batch.
	prog, err := datalog.Load(src, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneShot, _, err := prog.Solve(facts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.model.String(), oneShot.String(); got != want {
		t.Fatalf("recovered model differs from one-shot solve:\n%s\nwant:\n%s", got, want)
	}
}

// TestChaosWALCheckpointWatermarkAndCompaction exercises the
// checkpoint–log handshake: a flush stamps the watermark and compacts
// the log; a restart replays only records past the watermark.
func TestChaosWALCheckpointWatermarkAndCompaction(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sp.snap")
	// Tiny segments force rotation so compaction has something to drop.
	cfg := Config{WALDir: dir, WALSegmentBytes: 256}
	mk := func() *Server {
		s, err := New([]ProgramSpec{{Name: "sp", Source: src, Checkpoint: ckpt}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Materialize(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := mk()
	ts := httptest.NewServer(s1.Handler())
	for i := 0; i < 6; i++ {
		assertBatch(t, ts.URL, i)
	}
	before := s1.svcs["sp"].wal.Segments()
	if err := s1.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if after := s1.svcs["sp"].wal.Segments(); after >= before {
		t.Fatalf("flush did not compact: %d segments before, %d after", before, after)
	}
	// More batches after the flush: only these need replay.
	for i := 6; i < 9; i++ {
		assertBatch(t, ts.URL, i)
	}
	ts.Close()
	s1.Close()

	s2 := mk()
	defer s2.Close()
	svc := s2.svcs["sp"]
	if got := svc.seq.Load(); got != 9 {
		t.Fatalf("recovered seq %d, want 9", got)
	}
	if replayed := s2.metrics.walReplayed.With("sp").Value(); replayed != 3 {
		t.Fatalf("replayed %d batches, want 3 (watermark should cover the first 6)", replayed)
	}
	st := svc.current()
	for i := 0; i < 9; i++ {
		if !st.model.Has("arc", datalog.Sym(fmt.Sprintf("w%d", i)), datalog.Sym(fmt.Sprintf("w%d", i+1))) {
			t.Fatalf("batch %d missing after checkpoint+replay restart", i)
		}
	}
}

// TestChaosWALAppendFailure: a failed append answers 500 "wal", leaves
// the published model untouched, trips /readyz to wal_failed, and
// fails later writes fast while reads keep serving.
func TestChaosWALAppendFailure(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	cfg := Config{WALDir: t.TempDir()}
	s := newWALServer(t, src, cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	assertBatch(t, ts.URL, 0)
	verBefore := s.svcs["sp"].current().version

	faults.Arm(faults.Fault{Point: faults.WALAppendWrite, Sticky: true})
	code, resp := post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["x","y",1]}]}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("assert during append failure: %d %v", code, resp)
	}
	errBody := resp["error"].(map[string]any)
	if errBody["code"] != "wal" || errBody["exit_code"] != 6.0 {
		t.Fatalf("error %v, want code wal exit 6", errBody)
	}
	if got := s.svcs["sp"].current().version; got != verBefore {
		t.Fatalf("failed WAL write published generation %d (was %d)", got, verBefore)
	}
	if code, resp := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || resp["status"] != "wal_failed" {
		t.Fatalf("readyz after WAL failure: %d %v, want 503 wal_failed", code, resp)
	}
	// Broken stays broken: even with the fault disarmed the write path
	// refuses (the segment tail state is unknown).
	faults.Reset()
	code, resp = post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["x","y",1]}]}`)
	if code != http.StatusInternalServerError || resp["error"].(map[string]any)["code"] != "wal" {
		t.Fatalf("assert after disarm: %d %v, want sticky wal failure", code, resp)
	}
	// Reads still serve the last good fixpoint.
	if code, resp := post(t, ts.URL+"/v1/query", `{"op":"has","pred":"arc","args":["w0","w1"]}`); code != http.StatusOK || resp["found"] != true {
		t.Fatalf("read during wal_failed: %d %v", code, resp)
	}
}

// TestChaosWALFsyncFailure: the group-commit fsync failing is as fatal
// as the append failing — no ack may outrun durability. The fault point
// fires on every WAL fsync.
func TestChaosWALFsyncFailure(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	s := newWALServer(t, src, Config{WALDir: t.TempDir(), WALFsync: FsyncBatch})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.Arm(faults.Fault{Point: faults.WALFsync, Sticky: true})
	code, resp := post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["x","y",1]}]}`)
	if code != http.StatusInternalServerError || resp["error"].(map[string]any)["code"] != "wal" {
		t.Fatalf("assert during fsync failure: %d %v", code, resp)
	}
	if state := s.readyState(); state != "wal_failed" {
		t.Fatalf("readyState %q, want wal_failed", state)
	}
}

// TestChaosWALTornTailRecovery tears the final record on disk (a crash
// mid-write) and restarts: the log truncates the torn tail, the server
// comes up ready, and the surviving batches are intact.
func TestChaosWALTornTailRecovery(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	dir := t.TempDir()
	cfg := Config{WALDir: dir}

	s1 := newWALServer(t, src, cfg)
	ts := httptest.NewServer(s1.Handler())
	const batches = 5
	for i := 0; i < batches; i++ {
		assertBatch(t, ts.URL, i)
	}
	ts.Close()
	s1.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "sp", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2 := newWALServer(t, src, cfg)
	defer s2.Close()
	svc := s2.svcs["sp"]
	if svc.wal.Repaired() == nil {
		t.Fatal("torn tail was not repaired")
	}
	if got := svc.seq.Load(); got != batches-1 {
		t.Fatalf("recovered seq %d, want %d (last record torn away)", got, batches-1)
	}
	st := svc.current()
	for i := 0; i < batches-1; i++ {
		if !st.model.Has("arc", datalog.Sym(fmt.Sprintf("w%d", i)), datalog.Sym(fmt.Sprintf("w%d", i+1))) {
			t.Fatalf("surviving batch %d missing after torn-tail recovery", i)
		}
	}
	// The repaired log accepts new appends.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if resp := assertBatch(t, ts2.URL, 100); uint64(resp["seq"].(float64)) != batches {
		t.Fatalf("post-repair assert seq %v, want %d", resp["seq"], batches)
	}
}

// TestChaosWALMidLogCorruptionRefused: bit rot before the tail is not
// repairable — Materialize must refuse with the structured corruption
// error rather than silently dropping acked history.
func TestChaosWALMidLogCorruptionRefused(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	dir := t.TempDir()
	cfg := Config{WALDir: dir}

	s1 := newWALServer(t, src, cfg)
	ts := httptest.NewServer(s1.Handler())
	for i := 0; i < 4; i++ {
		assertBatch(t, ts.URL, i)
	}
	ts.Close()
	s1.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "sp", "wal-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // damage an early record, data follows it
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New([]ProgramSpec{{Name: "sp", Source: src}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s2.Materialize(context.Background())
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("materialize over rotted log: err = %v, want ErrCorrupt", err)
	}
}

// TestChaosWALReplayProgressReadyz holds replay open with an injected
// per-record delay and watches /readyz report the replaying state with
// progress counters.
func TestChaosWALReplayProgressReadyz(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	dir := t.TempDir()
	cfg := Config{WALDir: dir}

	s1 := newWALServer(t, src, cfg)
	ts := httptest.NewServer(s1.Handler())
	for i := 0; i < 4; i++ {
		assertBatch(t, ts.URL, i)
	}
	ts.Close()
	s1.Close()

	faults.Arm(faults.Fault{Point: faults.ServerWALReplay, Sticky: true, Delay: 80 * time.Millisecond})
	s2, err := New([]ProgramSpec{{Name: "sp", Source: src}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	done := make(chan error, 1)
	go func() { done <- s2.Materialize(context.Background()) }()

	sawReplaying := false
	deadline := time.Now().Add(5 * time.Second)
	for !sawReplaying && time.Now().Before(deadline) {
		code, resp := get(t, ts2.URL+"/readyz")
		if resp["status"] == "replaying" {
			if code != http.StatusServiceUnavailable {
				t.Fatalf("replaying readyz status %d, want 503", code)
			}
			prog := resp["replay"].(map[string]any)["sp"].(map[string]any)
			if prog["total"].(float64) != 4 {
				t.Fatalf("replay progress %v, want total 4", prog)
			}
			sawReplaying = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawReplaying {
		t.Fatal("never observed the replaying readiness state")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if code, resp := get(t, ts2.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after replay: %d %v", code, resp)
	}
}

// TestAssertSeqMonotonic (no WAL): commit sequence numbers are still
// assigned — contiguous from 1, echoed on acks, visible in /v1/program
// and the mdl_commit_seq gauge.
func TestAssertSeqMonotonic(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	src := loadExample(t, "shortestpath.mdl")
	s, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})

	for i := 0; i < 5; i++ {
		resp := assertBatch(t, ts.URL, i)
		if got := uint64(resp["seq"].(float64)); got != uint64(i)+1 {
			t.Fatalf("batch %d seq %v, want %d", i, resp["seq"], i+1)
		}
	}
	_, resp := get(t, ts.URL+"/v1/program?name=sp")
	info := resp["programs"].([]any)[0].(map[string]any)
	if info["seq"] != 5.0 {
		t.Fatalf("/v1/program seq %v, want 5", info["seq"])
	}
	if v := promValue(t, promText(t, ts.URL), "mdl_commit_seq", `program="sp"`); v != 5 {
		t.Fatalf("mdl_commit_seq %v, want 5", v)
	}
	_ = s
}

// TestParseFsyncPolicy pins the policy strings the CLI accepts.
func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"": FsyncBatch, "batch": FsyncBatch, "none": FsyncNone,
	} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"everysooften", "always"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Errorf("bad policy %q accepted", bad)
		}
	}
}

// TestNewRefusesUnknownFsync: a library caller's fsync policy passes
// the CLI's check in New, so a misspelt one cannot turn fsync off while
// batches are acked as durable; "" still selects batch.
func TestNewRefusesUnknownFsync(t *testing.T) {
	specs := []ProgramSpec{{Name: "ar", Source: arityProgram}}
	for _, bad := range []FsyncPolicy{"Batch", "always", "none "} {
		if _, err := New(specs, Config{WALDir: t.TempDir(), WALFsync: bad}); err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
			t.Errorf("New with WALFsync %q: %v, want the unknown-policy refusal", bad, err)
		}
	}
	s, err := New(specs, Config{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.WALFsync != FsyncBatch {
		t.Errorf("WALFsync \"\" resolved to %q, want batch", s.cfg.WALFsync)
	}
}

// TestWALPayloadRoundTrip pins the record payload codec against the
// assert validation path: a binary record and a JSON record of the same
// facts replay to the rows those facts solve to, and both kinds refuse
// an unknown predicate and a bad arity, naming the record.
func TestWALPayloadRoundTrip(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	s, err := New([]ProgramSpec{{Name: "sp", Source: src}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc := s.svcs["sp"]
	facts := []datalog.Fact{
		datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("b c"), datalog.Num(1.5)),
		datalog.NewFact("arc", datalog.Sym("x"), datalog.Sym("y"), datalog.Num(2)),
	}
	want, _, err := svc.prog.Solve(facts...)
	if err != nil {
		t.Fatal(err)
	}
	for kind, payload := range map[string][]byte{"binary": binaryRecord(facts), "json": encodeWALPayload(facts)} {
		got, err := replayed(svc, payload)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s record replays to\n%s\nwant\n%s", kind, got, want)
		}
	}
	nosuch := []datalog.Fact{datalog.NewFact("nosuch", datalog.Num(1))}
	short := []datalog.Fact{datalog.NewFact("arc", datalog.Num(1))}
	for _, c := range []struct {
		payload []byte
		want    string
	}{
		{binaryRecord(nosuch), `no predicate "nosuch"`},
		{encodeWALPayload(nosuch), `no predicate "nosuch"`},
		{binaryRecord(short), "arc takes 3 arguments (cost last for cost predicates), got 1"},
		{encodeWALPayload(short), "arc takes 3 arguments (cost last for cost predicates), got 1"},
	} {
		err := svc.replayRecord(svc.prog.NewBatch(), 7, c.payload)
		if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "record 7") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("replay of %q: err = %v, want wal.ErrCorrupt naming record 7 and %q", c.payload, err, c.want)
		}
	}
}
