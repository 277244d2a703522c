package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
)

// TestWarmStartRoundTrip runs the full server lifecycle against a
// checkpoint: cold start, assert, flush on shutdown, then a second
// server over the same path warm-starts with the asserted facts intact.
func TestWarmStartRoundTrip(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	ckpt := filepath.Join(t.TempDir(), "sp.ckpt")
	spec := ProgramSpec{Name: "sp", Source: src, Checkpoint: ckpt}

	// Generation 1: the checkpoint file does not exist yet, so the solve
	// is cold; the path is opportunistic, not required.
	s1, ts1 := startServer(t, []ProgramSpec{spec}, Config{})
	code, resp := post(t, ts1.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["d","e",1]}]}`)
	if code != http.StatusOK {
		t.Fatalf("assert: %d %v", code, resp)
	}
	if err := s1.FlushCheckpoints(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Generation 2: a new server over the same spec warm-starts from the
	// snapshot and still knows the asserted edge.
	s2, ts2 := startServer(t, []ProgramSpec{spec}, Config{})
	svc := s2.svcs["sp"]
	if !svc.current().warm {
		t.Fatal("second start must warm-start from the checkpoint")
	}
	code, resp = post(t, ts2.URL+"/v1/query", `{"op":"cost","pred":"s","args":["a","e"]}`)
	if code != http.StatusOK || resp["cost"] != 5.0 {
		t.Fatalf("warm-started model must keep s(a, e) = 5: %d %v", code, resp)
	}
	// A restored model explains derived tuples by their rules.
	code, resp = post(t, ts2.URL+"/v1/explain", `{"pred":"s","args":["a","e"]}`)
	if rule, _ := resp["rule"].(string); code != http.StatusOK || !strings.Contains(rule, "min") {
		t.Fatalf("warm-started explain of s(a, e): %d %v", code, resp)
	}

	// Explicit Resume refuses a missing snapshot instead of falling back
	// to a cold solve.
	missing := filepath.Join(t.TempDir(), "nope.ckpt")
	s3, err := New([]ProgramSpec{{Name: "sp", Source: src, Resume: missing}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Materialize(context.Background()); err == nil {
		t.Fatal("-resume with a missing snapshot must fail materialization")
	}

	// A checkpoint written by a different program is rejected by the
	// fingerprint check, never silently reused.
	s4, err := New([]ProgramSpec{{Name: "other", Source: ".cost w/2 : minreal.\n", Resume: ckpt}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = s4.Materialize(context.Background())
	if !errors.Is(err, datalog.ErrFingerprintMismatch) {
		t.Fatalf("foreign checkpoint must fail the fingerprint check, got %v", err)
	}
}

// TestWarmStartAfterRefusedNaN: an assert carrying a NaN argument is
// refused, so neither the WAL nor the checkpoint holds it, and a restart
// over both warm-starts with the batches that were accepted.
func TestWarmStartAfterRefusedNaN(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	dir := t.TempDir()
	spec := ProgramSpec{Name: "sp", Source: src, Checkpoint: filepath.Join(dir, "sp.ckpt")}
	cfg := Config{WALDir: dir}

	s1, ts1 := startServer(t, []ProgramSpec{spec}, cfg)
	if code, resp := post(t, ts1.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["d",{"num":"NaN"},1]}]}`); code == http.StatusOK {
		t.Errorf("NaN argument accepted: %d %v", code, resp)
	}
	if code, resp := post(t, ts1.URL+"/v1/assert", `{"facts":[{"pred":"arc","args":["d","e",1]}]}`); code != http.StatusOK {
		t.Fatalf("assert: %d %v", code, resp)
	}
	if err := s1.FlushCheckpoints(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := startServer(t, []ProgramSpec{spec}, cfg)
	if !s2.svcs["sp"].current().warm {
		t.Fatal("restart must warm-start from the checkpoint")
	}
	if code, resp := post(t, ts2.URL+"/v1/query", `{"op":"cost","pred":"s","args":["a","e"]}`); code != http.StatusOK || resp["cost"] != 5.0 {
		t.Fatalf("warm-started model must keep s(a, e) = 5: %d %v", code, resp)
	}
}
