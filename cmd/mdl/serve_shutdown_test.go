package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestServeShutdownRacingAsserts is the shutdown-race regression test:
// assert traffic keeps landing while SIGTERM (context cancellation)
// arrives mid-drain. Every batch must get a definite outcome — an ack,
// a shed, or a closed connection — never a hang; the final checkpoint
// must be flushed; and a warm restart must serve a model containing
// exactly the seed facts plus every acked batch, i.e. the model a
// one-shot solve over those facts would produce.
func TestServeShutdownRacingAsserts(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	f := writeProgram(t, "sp.mdl", shortestPath)
	ckpt := filepath.Join(t.TempDir(), "sp.ckpt")
	url, shutdown := runServeAsync(t, "-checkpoint", ckpt, "-assert-queue", "8", "-drain-timeout", "10s", f)

	// Slow each commit drain a little so the queue is non-empty when
	// the shutdown lands.
	faults.Arm(faults.Fault{Point: faults.ServerCommitStall, Delay: 15 * time.Millisecond, Sticky: true})

	const writers, batches = 6, 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := map[string]bool{}
	rejected, failed := 0, 0
	client := &http.Client{Timeout: 15 * time.Second}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < batches; j++ {
				key := fmt.Sprintf("r%d_%d", i, j)
				body := fmt.Sprintf(`{"facts":[{"pred":"arc","args":["%s","t",1]}]}`, key)
				resp, err := client.Post(url+"/v1/assert", "application/json", strings.NewReader(body))
				mu.Lock()
				if err != nil {
					// Listener closed under the request: a definite
					// rejection, the fact was never accepted.
					failed++
					mu.Unlock()
					return
				}
				var out map[string]any
				_ = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					acked[key] = true
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					rejected++
				default:
					t.Errorf("assert %s: status %d: %v", key, resp.StatusCode, out)
				}
				mu.Unlock()
			}
		}(i)
	}

	// Let some batches commit, then pull the plug mid-traffic. Until
	// then the server stays ready: the assert burst is backpressure,
	// never a failure state.
	time.Sleep(150 * time.Millisecond)
	if resp, err := client.Get(url + "/readyz"); err != nil {
		t.Errorf("readyz after the assert burst: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("readyz after the assert burst: %d, want 200", resp.StatusCode)
		}
	}
	exit, stderr := shutdown()
	wg.Wait()
	if exit != exitOK {
		t.Fatalf("shutdown exit %d: %s", exit, stderr)
	}
	if !strings.Contains(stderr, "checkpoint flushed") {
		t.Fatalf("no final checkpoint flush in shutdown log: %s", stderr)
	}
	mu.Lock()
	nAcked := len(acked)
	t.Logf("shutdown race: %d acked, %d shed, %d conn-closed", nAcked, rejected, failed)
	if nAcked == 0 {
		t.Fatal("no assert was acked before shutdown; the race window was empty")
	}
	mu.Unlock()

	// Warm restart: the model is exactly seed + acked facts. The arc
	// count pins the EDB (derived predicates are a function of it), and
	// each acked edge must answer queries.
	faults.Reset()
	url2, shutdown2 := runServeAsync(t, "-checkpoint", ckpt, f)
	code, resp := postJSON(t, url2+"/v1/query", `{"op":"facts","pred":"arc"}`)
	if code != http.StatusOK {
		t.Fatalf("restart query: %d %v", code, resp)
	}
	const seedArcs = 2 // arc(a,b,1), arc(b,c,2) in the shortestPath seed
	if got := resp["count"].(float64); got != float64(seedArcs+nAcked) {
		t.Fatalf("restarted model has %v arcs, want %d seed + %d acked: lost or phantom acks", got, seedArcs, nAcked)
	}
	mu.Lock()
	for key := range acked {
		q := fmt.Sprintf(`{"op":"has","pred":"arc","args":["%s","t"]}`, key)
		if code, resp := postJSON(t, url2+"/v1/query", q); code != http.StatusOK || resp["found"] != true {
			t.Fatalf("acked fact arc(%s, t) lost across restart: %d %v", key, code, resp)
		}
	}
	mu.Unlock()
	if exit, stderr := shutdown2(); exit != exitOK {
		t.Fatalf("second shutdown exit %d: %s", exit, stderr)
	}
}
