// Command benchmark measures the system end to end and layer by layer,
// from outside: it times calls into public functions and reads the
// counters the program already exposes. See README.md for the metric and
// workload definitions.
//
// Driver mode (one pass of one workload; the last line of standard
// output is the result object):
//
//	bash benchmark/run.sh --workload sp_cyclic --seed 1 --seconds 20 --trace 0
//
// Without --workload every workload runs, a timed pass then a traced
// pass each, and every metric is printed by name with its unit. With
// -aa N the same is done N times and the spread of every end-to-end
// metric is compared with its bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "run one pass of this workload and print the result object (default: all workloads, both passes)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measuring time of one pass (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	aa := flag.Int("aa", 0, "A/A self-check: run this many sets on the same build and report spreads against the bounds")
	varySeed := flag.Bool("vary-seed", false, "with -aa: give every set its own seed, as the acceptance check does")
	flag.Parse()

	manifest, err := readManifest("BENCHMARK.json")
	if err != nil {
		fatal("run from the repo root: %v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(manifest.RunSeconds)
	}
	// The serve phase uses two client connections, one writer and one
	// reader; with fewer CPUs than connections the clients would queue
	// behind each other and the server, and the latencies would mean
	// something else.
	if runtime.NumCPU() < clientConnections {
		fatal("%d client connections need at least as many CPUs; this machine has %d", clientConnections, runtime.NumCPU())
	}
	runDir, err := newRunDir()
	if err != nil {
		fatal("%v", err)
	}
	code := 0
	switch {
	case *aa > 0:
		code = runAA(manifest, *workloadName, *seed, *seconds, *aa, *varySeed)
	case *workloadName != "":
		code = runDriver(manifest, *workloadName, *seed, *seconds, *trace == 1, runDir)
	default:
		code = runAll(manifest, *seed, *seconds, runDir)
	}
	os.RemoveAll(runDir)
	os.Exit(code)
}

// clientConnections is the number of TCP connections the serve phase
// opens: one writer and one reader.
const clientConnections = 2

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// newRunDir makes this process's scratch directory for binaries, WAL
// directories and child logs, inside the checkout.
func newRunDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// result is the object the driver reads from the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one pass of one workload and prints the result object
// as the last line of standard output.
func runDriver(mf *manifest, name string, seed int64, seconds float64, traced bool, runDir string) int {
	w, ok := workloadByName(name)
	if !ok {
		fatal("unknown workload %q", name)
	}
	p, err := runPass(w, seed, seconds, traced, runDir)
	if err != nil {
		fatal("%s: %v", name, err)
	}
	p.print(os.Stdout)
	if err := p.save(); err != nil {
		fatal("%v", err)
	}
	wanted := mf.EndToEnd
	if traced {
		wanted = mf.PerLayer
	}
	res := result{Correct: p.Failed == 0, Attempted: p.Attempted, Failed: p.Failed, Metrics: map[string]metricValue{}}
	for _, m := range wanted {
		v, ok := p.Metrics[m.Name]
		if !ok {
			fatal("%s: metric %s of BENCHMARK.json was not measured", name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if p.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload, a timed pass then a traced pass, prints
// every metric and writes benchmark/out/result.json.
func runAll(mf *manifest, seed int64, seconds float64, runDir string) int {
	var passes []*pass
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p, err := runPass(w, seed, seconds, traced, runDir)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			p.print(os.Stdout)
			if err := p.save(); err != nil {
				fatal("%v", err)
			}
			passes = append(passes, p)
			failed += p.Failed
		}
	}
	out := map[string]any{"claim": nil, "passes": passes}
	data, _ := json.MarshalIndent(out, "", " ")
	if err := os.WriteFile(filepath.Join("benchmark", "out", "result.json"), data, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nfailed operations: %d (no performance gain is claimed; these numbers are a baseline)\n", failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runAA is the A/A self-check: n sets on the same build. For every
// end-to-end metric it prints the median, the quartiles, the
// interquartile spread as a share of the median and the largest
// deviation between any two sets, against the metric's bound, and it
// asserts that the engine's own counts repeat exactly when every set
// uses the same seed.
func runAA(mf *manifest, only string, seed int64, seconds float64, n int, varySeed bool) int {
	bad := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		var counts []solveCounts
		for i := 0; i < n; i++ {
			s := seed
			if varySeed {
				s += int64(i)
			}
			// One process per set, as the acceptance check runs them, and
			// timed passes only: they yield every end-to-end metric and
			// the engine's counts.
			p, err := runChildPass(w.name, s, seconds)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			bad += p.Failed
			counts = append(counts, p.Counts)
			for _, m := range mf.EndToEnd {
				values[m.Name] = append(values[m.Name], p.Metrics[m.Name])
			}
			fmt.Fprintf(os.Stderr, "aa: %s set %d/%d done\n", w.name, i+1, n)
		}
		seeds := fmt.Sprintf("seed %d", seed)
		if varySeed {
			seeds = fmt.Sprintf("seeds %d to %d", seed, seed+int64(n)-1)
		}
		fmt.Printf("\n== A/A %s: %d sets, %s, %.0f s ==\n", w.name, n, seeds, seconds)
		fmt.Printf("%-20s %12s %12s %12s %8s %8s %7s\n", "metric", "q1", "median", "q3", "iqr/med", "maxdev", "bound")
		for _, m := range mf.EndToEnd {
			xs := values[m.Name]
			q1, _, q3 := quartiles(xs)
			asc := sorted(xs)
			maxDev := (asc[len(asc)-1] - asc[0]) / median(xs)
			spread := spreadShare(xs)
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound/3 {
				flag = "  spread above a third of the bound"
				if spread > m.Bound {
					flag = "  SPREAD ABOVE THE BOUND"
					bad++
				}
			}
			fmt.Printf("%-20s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %6.0f%%%s\n", m.Name, q1, median(xs), q3, 100*spread, 100*maxDev, 100*m.Bound, flag)
		}
		if !varySeed {
			verdict := fmt.Sprintf("identical across %d sets", len(counts))
			for _, c := range counts[1:] {
				if c.exact() != counts[0].exact() {
					verdict = fmt.Sprintf("DIFFER between sets: another set had %+v", c.exact())
					bad++
					break
				}
			}
			fmt.Printf("counts that must repeat exactly: %+v — %s\n", counts[0].exact(), verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runChildPass runs one timed pass in a process of its own and reads
// back the result it saved.
func runChildPass(workload string, seed int64, seconds float64) (*pass, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass failed: %w", err)
	}
	data, err := os.ReadFile(filepath.Join("benchmark", "out", "result-"+workload+"-timed.json"))
	if err != nil {
		return nil, err
	}
	var p pass
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// exact drops the one field of solveCounts that is a time.
func (c solveCounts) exact() solveCounts {
	c.RuleNS = 0
	return c
}

// environment is recorded with every result, because a number without
// the machine it ran on cannot carry a conclusion.
func environment(seed int64, seconds float64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commitHash(),
		"seed":       seed,
		"seconds":    seconds,
		"wal_fsync":  fsyncPolicy,
		"crash":      "SIGKILL only: the OS cache survives, so recovery_s and wal.* are this sandbox's timings, not a storage device's",
		"clients":    "closed loops, in alternating slices: 1 solver; 1 writer + 1 reader on 2 connections",
	}
}

// procField returns what follows the first line of a /proc file that
// starts with prefix, or "" when there is none.
func procField(path, prefix string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// commitHash reads the checkout's HEAD without running git; a checkout
// that is not a repository (the driver's) reports "unknown".
func commitHash() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// peakRSSMB is the process's high-water resident set (VmHWM, in kB).
func peakRSSMB() float64 {
	var kb float64
	fmt.Sscanf(procField("/proc/self/status", "VmHWM"), "%f", &kb)
	return kb / 1024
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
