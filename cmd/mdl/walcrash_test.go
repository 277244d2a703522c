package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/datalog"
)

// Binary-level crash tests for the write-ahead log: build the real mdl
// binary, run `mdl serve -wal ... -wal-fsync batch`, SIGKILL it in the
// middle of a mixed read/write load, and check the durability contract
// the ack promises — every 200-acked batch is present after restart and
// the recovered model is the least model a one-shot solve over the same
// EDB produces. Follow-up phases damage the log deliberately: a torn
// tail must repair on startup, mid-log corruption must refuse with
// exit code 6.

// buildMDL compiles the mdl binary into a per-test temp dir.
func buildMDL(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mdl")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// mdlProc is one running mdl serve subprocess.
type mdlProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *syncBuffer
}

// startMDL launches `bin serve -addr 127.0.0.1:0 args...` and waits for
// the "serving on" line to learn the bound address.
func startMDL(t *testing.T, bin string, args ...string) *mdlProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	var buf syncBuffer
	pr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlc := make(chan string, 1)
	go func() {
		b := make([]byte, 4096)
		for {
			n, err := pr.Read(b)
			if n > 0 {
				buf.Write(b[:n])
				if s := buf.String(); strings.Contains(s, "serving on http://") {
					rest := s[strings.Index(s, "serving on http://")+len("serving on "):]
					if i := strings.IndexAny(rest, " \n"); i > 0 {
						select {
						case urlc <- rest[:i]:
						default:
						}
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case u := <-urlc:
		return &mdlProc{cmd: cmd, url: u, stderr: &buf}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("server did not start; stderr:\n%s", buf.String())
		return nil
	}
}

// kill SIGKILLs the subprocess and reaps it.
func (p *mdlProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// jsonArg renders a datalog value as a /v1/query JSON argument.
func jsonArg(v datalog.Value) string {
	if v.Kind() == datalog.NumValue {
		n, _ := v.Float()
		return strconv.FormatFloat(n, 'g', -1, 64)
	}
	s, _ := v.Text()
	b, _ := json.Marshal(s)
	return string(b)
}

// queryJSON posts to /v1/query and decodes the response.
func queryJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestChaosWALSigkillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-loops the real binary")
	}
	bin := buildMDL(t)
	f := writeProgram(t, "sp.mdl", shortestPath)
	walDir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "sp.ckpt")
	args := []string{"-wal", walDir, "-wal-fsync", "batch", "-checkpoint", ckpt, f}

	// Phase 1: mixed load, then SIGKILL mid-traffic. Writers record
	// every batch the server acked with 200; readers run alongside so
	// the kill lands on a busy process, not a quiet one.
	p := startMDL(t, bin, args...)
	var (
		mu      sync.Mutex
		acked   []int
		nextID  atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		client  = &http.Client{Timeout: 5 * time.Second}
		enough  = make(chan struct{})
		closeMu sync.Once
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := nextID.Add(1)
				body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["k%d","l%d",1]}]}`, i, i)
				resp, err := client.Post(p.url+"/v1/assert", "application/json", strings.NewReader(body))
				if err != nil {
					return // the kill landed
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					mu.Lock()
					acked = append(acked, int(i))
					n := len(acked)
					mu.Unlock()
					if n >= 30 {
						closeMu.Do(func() { close(enough) })
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(p.url+"/v1/query", "application/json",
					strings.NewReader(`{"op":"cost","pred":"s","args":["a","c"]}`))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	select {
	case <-enough:
	case <-time.After(60 * time.Second):
		t.Fatal("load never reached 30 acked batches")
	}
	p.kill() // SIGKILL, mid-traffic
	close(stop)
	wg.Wait()

	mu.Lock()
	ackedIDs := append([]int(nil), acked...)
	mu.Unlock()
	t.Logf("killed server with %d acked batches", len(ackedIDs))

	// Phase 2: restart over the same log. No checkpoint was ever
	// flushed (the crash skipped shutdown), so recovery is pure replay.
	// Every acked batch must be present, and the recovered model must
	// equal the one-shot least model over the same EDB.
	p2 := startMDL(t, bin, args...)
	for _, i := range ackedIDs {
		code, resp := queryJSON(t, p2.url,
			fmt.Sprintf(`{"op":"has","pred":"arc","args":["k%d","l%d"]}`, i, i))
		if code != http.StatusOK || resp["found"] != true {
			t.Fatalf("acked batch %d lost across SIGKILL: %d %v", i, code, resp)
		}
	}

	oneShot, err := datalog.Load(shortestPath, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var facts []datalog.Fact
	for _, i := range ackedIDs {
		facts = append(facts, datalog.NewFact("arc",
			datalog.Sym(fmt.Sprintf("k%d", i)), datalog.Sym(fmt.Sprintf("l%d", i)), datalog.Num(1)))
	}
	// The server may have durably logged batches whose ack the kill cut
	// off (the documented at-least-once window). Fold those into the
	// one-shot EDB so both sides are built from the same batches.
	maxID := int(nextID.Load())
	for i := 1; i <= maxID; i++ {
		code, resp := queryJSON(t, p2.url, fmt.Sprintf(`{"op":"has","pred":"arc","args":["k%d","l%d"]}`, i, i))
		if code == http.StatusOK && resp["found"] == true {
			facts = append(facts, datalog.NewFact("arc",
				datalog.Sym(fmt.Sprintf("k%d", i)), datalog.Sym(fmt.Sprintf("l%d", i)), datalog.Num(1)))
		}
	}
	want, _, err := oneShot.Solve(dedupFacts(facts)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"arc", "path", "s"} {
		code, resp := queryJSON(t, p2.url, fmt.Sprintf(`{"op":"facts","pred":%q}`, pred))
		if code != http.StatusOK {
			t.Fatalf("facts %s: %d %v", pred, code, resp)
		}
		if got, wantN := int(resp["count"].(float64)), len(want.Facts(pred)); got != wantN {
			t.Fatalf("recovered model has %d %s facts, one-shot solve has %d", got, pred, wantN)
		}
	}
	// Exact cost equality on the derived predicate, row by row.
	for _, row := range want.Facts("s") {
		lookup := row[:len(row)-1]
		args := make([]string, len(lookup))
		for i, v := range lookup {
			args[i] = jsonArg(v)
		}
		code, resp := queryJSON(t, p2.url,
			fmt.Sprintf(`{"op":"cost","pred":"s","args":[%s]}`, strings.Join(args, ",")))
		if code != http.StatusOK || resp["found"] != true {
			t.Fatalf("s(%v) missing from recovered model: %d %v", lookup, code, resp)
		}
		wantCost, _ := row[len(row)-1].Float()
		if got := resp["cost"].(float64); got != wantCost {
			t.Fatalf("s(%v): recovered cost %v, one-shot cost %v", lookup, got, wantCost)
		}
	}

	// Phase 3: torn tail. Kill the recovered server, append a truncated
	// frame (a 4-byte length promising a record the bytes never
	// deliver) to the newest segment — exactly what a crash between
	// write and fsync leaves. Startup must repair it, keeping every
	// complete record.
	p2.kill()
	seg := newestSegment(t, filepath.Join(walDir, "sp"))
	fh, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0, 0, 0, 100, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	p3 := startMDL(t, bin, args...)
	if !strings.Contains(p3.stderr.String(), "repaired torn tail") {
		t.Fatalf("startup did not report tail repair; stderr:\n%s", p3.stderr.String())
	}
	for _, i := range ackedIDs {
		code, resp := queryJSON(t, p3.url,
			fmt.Sprintf(`{"op":"has","pred":"arc","args":["k%d","l%d"]}`, i, i))
		if code != http.StatusOK || resp["found"] != true {
			t.Fatalf("acked batch %d lost to tail repair: %d %v", i, code, resp)
		}
	}

	// Phase 4: mid-log corruption. Flip a byte inside the first
	// record's body; with complete records behind it this is not a torn
	// tail, and startup must refuse with the WAL exit code rather than
	// serve from a log it cannot trust.
	p3.kill()
	first := oldestSegment(t, filepath.Join(walDir, "sp"))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[50] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != exitWAL {
		t.Fatalf("corrupt log: exit %d, want %d; output:\n%s", code, exitWAL, out)
	}
	if !strings.Contains(string(out), "corrupt") {
		t.Fatalf("corrupt log refusal is not a structured corruption error:\n%s", out)
	}
}

// dedupFacts drops duplicate facts (an acked batch may also appear in
// the durable-but-unacked sweep); insertion is idempotent either way,
// this just keeps the one-shot EDB tidy.
func dedupFacts(facts []datalog.Fact) []datalog.Fact {
	seen := make(map[string]bool, len(facts))
	out := facts[:0]
	for _, f := range facts {
		k := f.Pred
		for _, a := range f.Args {
			k += "\x00" + a.String()
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	return segs[len(segs)-1]
}

func oldestSegment(t *testing.T, dir string) string {
	t.Helper()
	return segments(t, dir)[0]
}

func segments(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no wal segments in %s (%v)", dir, err)
	}
	return matches // glob sorts; names are fixed-width, so order = seq order
}
