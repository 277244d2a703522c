package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/programs"
)

// syncBuffer is a strings.Builder safe for the concurrent writes the
// server's request log makes from handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// runServeAsync starts runServe in a goroutine against a random port
// and returns the base URL once it is accepting connections, plus a
// shutdown function that cancels the context and returns the exit code.
func runServeAsync(t *testing.T, args ...string) (string, func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	serveListening = func(a net.Addr) { addrc <- a }
	t.Cleanup(func() { serveListening = nil })

	var errb syncBuffer
	codec := make(chan int, 1)
	go func() {
		var out syncBuffer
		codec <- runServe(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errb)
	}()
	select {
	case a := <-addrc:
		return "http://" + a.String(), func() (int, string) {
			cancel()
			select {
			case code := <-codec:
				return code, errb.String()
			case <-time.After(10 * time.Second):
				t.Fatal("server did not shut down")
				return -1, ""
			}
		}
	case code := <-codec:
		cancel()
		t.Fatalf("server exited immediately with code %d: %s", code, errb.String())
		return "", nil
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server did not start listening")
		return "", nil
	}
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestServeUsageErrors(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	g := writeProgram(t, "other.mdl", ".cost w/2 : minreal.\n")
	cases := []struct {
		name string
		args []string
	}{
		{"no files", nil},
		{"name without join", []string{"-name", "x", f}},
		{"negative eps", []string{"-eps", "-1", f}},
		{"infinite eps", []string{"-eps", "+Inf", f}},
		{"NaN eps", []string{"-eps", "NaN", f}},
		{"negative max-rounds", []string{"-max-rounds", "-1", f}},
		{"negative max-facts", []string{"-max-facts", "-1", f}},
		{"negative timeout", []string{"-timeout", "-1s", f}},
		{"negative assert-queue", []string{"-assert-queue", "-1", f}},
		{"negative max-inflight", []string{"-max-inflight", "-1", f}},
		{"negative drain-timeout", []string{"-drain-timeout", "-1s", f}},
		{"checkpoint with several programs", []string{"-checkpoint", "c.ckpt", f, g}},
		{"resume with several programs", []string{"-resume", "c.ckpt", f, g}},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.mdl")}},
		{"duplicate program names", []string{f, f}},
		{"wal-fsync without wal", []string{"-wal-fsync", "batch", f}},
		{"wal-segment without wal", []string{"-wal-segment", "1024", f}},
		{"bad wal-fsync policy", []string{"-wal", t.TempDir(), "-wal-fsync", "sometimes", f}},
		{"wal-fsync always", []string{"-wal", t.TempDir(), "-wal-fsync", "always", f}},
		{"undefined trace-dir", []string{"-trace-dir", t.TempDir(), f}},
		{"undefined trace-buffer", []string{"-trace-buffer", "8", f}},
		{"negative wal-segment", []string{"-wal", t.TempDir(), "-wal-segment", "-1", f}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := runServe(context.Background(), tc.args, &out, &errb)
			if code != exitUsage {
				t.Fatalf("exit %d, want %d (usage); stderr: %s", code, exitUsage, errb.String())
			}
		})
	}
}

func TestServeStartupErrorCodes(t *testing.T) {
	bad := writeProgram(t, "bad.mdl", "p(X :- q(X).\n")
	var out, errb strings.Builder
	if code := runServe(context.Background(), []string{bad}, &out, &errb); code != exitParse {
		t.Fatalf("parse error: exit %d, stderr %s", code, errb.String())
	}

	// Aggregation through negation without -wfs-fallback fails the
	// static checks.
	game := writeProgram(t, "game.mdl", `
.cost wins/1 : countnat.
win(X)  :- move(X, Y), not win(Y).
wins(N) :- N = count : win(X).
move(p1, p2).
`)
	errb.Reset()
	if code := runServe(context.Background(), []string{game}, &out, &errb); code != exitStatic {
		t.Fatalf("static error: exit %d, stderr %s", code, errb.String())
	}

	// -resume with a missing snapshot is a checkpoint failure.
	f := writeProgram(t, "sp.mdl", shortestPath)
	errb.Reset()
	code := runServe(context.Background(), []string{"-resume", filepath.Join(t.TempDir(), "nope.ckpt"), f}, &out, &errb)
	if code != exitCheckpoint {
		t.Fatalf("missing resume snapshot: exit %d, stderr %s", code, errb.String())
	}

	// An unreadable write-ahead log gets its own exit code so operators
	// can tell "restore the log" from "restore the checkpoint".
	walRoot := t.TempDir()
	if err := os.MkdirAll(filepath.Join(walRoot, "sp"), 0o755); err != nil {
		t.Fatal(err)
	}
	rot := filepath.Join(walRoot, "sp", "wal-00000000000000000001.seg")
	if err := os.WriteFile(rot, []byte(strings.Repeat("x", 100)), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	code = runServe(context.Background(), []string{"-wal", walRoot, f}, &out, &errb)
	if code != exitWAL {
		t.Fatalf("corrupt wal: exit %d, want %d; stderr %s", code, exitWAL, errb.String())
	}
}

// TestServeLifecycle runs the binary-level happy path: start, serve
// queries and asserts over HTTP, shut down gracefully on context
// cancellation with a flushed checkpoint, then restart warm.
func TestServeLifecycle(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	ckpt := filepath.Join(t.TempDir(), "sp.ckpt")

	url, shutdown := runServeAsync(t, "-checkpoint", ckpt, f)

	// The program is named after its file.
	code, resp := postJSON(t, url+"/v1/query", `{"program":"sp","op":"cost","pred":"s","args":["a","c"]}`)
	if code != http.StatusOK || resp["cost"] != 3.0 {
		t.Fatalf("query: %d %v", code, resp)
	}
	code, resp = postJSON(t, url+"/v1/assert", `{"facts":[{"pred":"arc","args":["c","d",1]}]}`)
	if code != http.StatusOK {
		t.Fatalf("assert: %d %v", code, resp)
	}
	code, resp = postJSON(t, url+"/v1/query", `{"op":"cost","pred":"s","args":["a","d"]}`)
	if code != http.StatusOK || resp["cost"] != 4.0 {
		t.Fatalf("query after assert: %d %v", code, resp)
	}

	exit, stderr := shutdown()
	if exit != exitOK {
		t.Fatalf("shutdown exit %d: %s", exit, stderr)
	}
	if !strings.Contains(stderr, "checkpoint flushed") || !strings.Contains(stderr, "shut down cleanly") {
		t.Fatalf("shutdown log: %s", stderr)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after shutdown: %v", err)
	}

	// Restart over the same checkpoint: warm start, asserted edge intact.
	url2, shutdown2 := runServeAsync(t, "-checkpoint", ckpt, f)
	code, resp = postJSON(t, url2+"/v1/query", `{"op":"cost","pred":"s","args":["a","d"]}`)
	if code != http.StatusOK || resp["cost"] != 4.0 {
		t.Fatalf("warm restart lost the asserted edge: %d %v", code, resp)
	}
	if exit, stderr := shutdown2(); exit != exitOK {
		t.Fatalf("second shutdown exit %d: %s", exit, stderr)
	}
}

// TestServeJoin serves two files as one joined program under an
// explicit name.
func TestServeJoin(t *testing.T) {
	rules := writeProgram(t, "rules.mdl", programs.ShortestPath)
	facts := writeProgram(t, "facts.mdl", "arc(a, b, 1).\narc(b, c, 2).\n")

	url, shutdown := runServeAsync(t, "-join", "-name", "graph", rules, facts)
	code, resp := postJSON(t, url+"/v1/query", `{"program":"graph","op":"cost","pred":"s","args":["a","c"]}`)
	if code != http.StatusOK || resp["cost"] != 3.0 {
		t.Fatalf("joined query: %d %v", code, resp)
	}
	if exit, stderr := shutdown(); exit != exitOK {
		t.Fatalf("shutdown exit %d: %s", exit, stderr)
	}
}

// TestServeMultiProgramRouting serves two files as two programs and
// routes requests by name.
func TestServeMultiProgramRouting(t *testing.T) {
	sp := writeProgram(t, "sp.mdl", shortestPath)
	w := writeProgram(t, "weights.mdl", ".cost w/2 : minreal.\nw(a, 1).\n")

	url, shutdown := runServeAsync(t, sp, w)
	code, resp := postJSON(t, url+"/v1/query", `{"program":"weights","op":"cost","pred":"w","args":["a"]}`)
	if code != http.StatusOK || resp["cost"] != 1.0 {
		t.Fatalf("weights query: %d %v", code, resp)
	}
	code, resp = postJSON(t, url+"/v1/query", `{"program":"sp","op":"has","pred":"s","args":["a","c"]}`)
	if code != http.StatusOK || resp["found"] != true {
		t.Fatalf("sp query: %d %v", code, resp)
	}
	// Unnamed requests are ambiguous with two programs.
	code, _ = postJSON(t, url+"/v1/query", `{"op":"has","pred":"s","args":["a","c"]}`)
	if code != http.StatusNotFound {
		t.Fatalf("ambiguous request: %d", code)
	}
	if exit, stderr := shutdown(); exit != exitOK {
		t.Fatalf("shutdown exit %d: %s", exit, stderr)
	}
}
