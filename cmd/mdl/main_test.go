package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/programs"
)

func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const shortestPath = programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
`

// halfsum is Example 5.1, whose least fixpoint lies at ω; float64
// saturation makes it converge after ~55 rounds without Epsilon, so the
// -eps test uses it while the divergence tests use the unbounded
// variant below.
const halfsum = `
.cost p/2 : sumreal.
p(b, 1).
p(a, C) :- C ?= halfsum D : p(X, D).
`

// divergent is the ω-limit family of Example 5.1 with an unbounded
// limit: p(a) grows forever, so no finite fixpoint exists at all.
const divergent = `
.cost p/2 : sumreal.
p(b, 1).
p(a, C) :- C ?= sum D : p(X, D).
`

// withProcs sets GOMAXPROCS — and with it the component walk's worker
// count — to n for the rest of the test, restoring it when the test ends.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func runMdl(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestSolveAndPrint(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	out, errOut, code := runMdl(t, f)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "s(a, c, 3).") {
		t.Fatalf("missing s(a,c,3) in output:\n%s", out)
	}
}

func TestQueryFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	out, _, code := runMdl(t, "-query", "s", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "path(") {
		t.Fatalf("-query s must not print path atoms:\n%s", out)
	}
	if !strings.Contains(out, "s(a, b, 1).") {
		t.Fatalf("missing s tuple:\n%s", out)
	}
}

func TestCheckFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	out, _, code := runMdl(t, "-check", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "admissible (monotonic):      true") {
		t.Fatalf("check output:\n%s", out)
	}
	bad := writeProgram(t, "bad.mdl", `
p(b).
q(b).
p(a) :- N ?= count : q(X), N = 1.
q(a) :- N ?= count : p(X), N = 1.
`)
	out, _, code = runMdl(t, "-check", bad)
	if code != exitStatic {
		t.Fatalf("non-admissible check must exit %d, got %d\n%s", exitStatic, code, out)
	}
	if !strings.Contains(out, "reason:") {
		t.Fatalf("missing reason:\n%s", out)
	}
}

func TestStatsFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	_, errOut, code := runMdl(t, "-stats", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "rounds=") {
		t.Fatalf("stats missing: %s", errOut)
	}
}

func TestEpsilonFlag(t *testing.T) {
	f := writeProgram(t, "halfsum.mdl", halfsum)
	out, _, code := runMdl(t, "-eps", "1e-9", "-query", "p", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "p(a, 0.99999999") {
		t.Fatalf("halfsum output:\n%s", out)
	}
}

// TestTimeoutDivergence is the acceptance scenario: a deliberately
// non-convergent ω-limit program run under -timeout 1s must exit
// gracefully (code 4) with partial results and a divergence diagnosis
// naming the predicate and group, instead of spinning until MaxRounds.
func TestTimeoutDivergence(t *testing.T) {
	f := writeProgram(t, "divergent.mdl", divergent)
	out, errOut, code := runMdl(t, "-timeout", "1s", f)
	if code != exitEval {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitEval, errOut)
	}
	if out != "" {
		t.Fatalf("no model on stdout for a failed solve, got:\n%s", out)
	}
	for _, want := range []string{"diverge", "p(a)", "Epsilon", "partial results", "p(b, 1).", "rounds="} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("stderr missing %q:\n%s", want, errOut)
		}
	}
}

func TestMaxFactsFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	_, errOut, code := runMdl(t, "-max-facts", "1", f)
	if code != exitEval {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitEval, errOut)
	}
	if !strings.Contains(errOut, "budget") {
		t.Fatalf("stderr missing budget diagnosis:\n%s", errOut)
	}
}

// TestCanceledContext simulates a SIGINT delivered before evaluation:
// the solve stops with partial results and stats on stderr.
func TestCanceledContext(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	code := run(ctx, []string{f}, &out, &errb)
	if code != exitEval {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitEval, errb.String())
	}
	for _, want := range []string{"canceled", "rounds="} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}

// TestExitCodes pins the exit-code contract: 1 usage, 2 parse, 3 static
// check, 4 evaluation.
func TestExitCodes(t *testing.T) {
	good := writeProgram(t, "sp.mdl", shortestPath)
	broken := writeProgram(t, "broken.mdl", "p(X :- q(X).")
	negRec := writeProgram(t, "game.mdl", "win(X) :- move(X, Y), not win(Y).\nmove(a, b).\n")
	diverging := writeProgram(t, "divergent.mdl", divergent)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"ok", []string{good}, exitOK},
		{"no args", nil, exitUsage},
		{"unknown flag", []string{"-no-such-flag", good}, exitUsage},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.mdl")}, exitUsage},
		{"negative eps", []string{"-eps", "-1", good}, exitUsage},
		{"infinite eps", []string{"-eps", "Inf", good}, exitUsage},
		{"NaN eps", []string{"-eps", "NaN", good}, exitUsage},
		{"negative max-rounds", []string{"-max-rounds", "-1", good}, exitUsage},
		{"negative max-facts", []string{"-max-facts", "-1", good}, exitUsage},
		{"zero timeout", []string{"-timeout", "0s", good}, exitUsage},
		{"negative timeout", []string{"-timeout", "-1s", good}, exitUsage},
		{"parse error", []string{broken}, exitParse},
		{"static failure", []string{negRec}, exitStatic},
		{"eval divergence", []string{diverging}, exitEval},
		{"eval budget", []string{"-max-facts", "1", good}, exitEval},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, code := runMdl(t, tc.args...)
			if code != tc.want {
				t.Fatalf("args %v: exit %d, want %d\nstderr: %s", tc.args, code, tc.want, errOut)
			}
		})
	}
}

func TestWFSFallbackFlag(t *testing.T) {
	f := writeProgram(t, "game.mdl", `
win(X) :- move(X, Y), not win(Y).
move(a, b).
`)
	// Rejected without the flag (a failed static check), solved with it.
	_, _, code := runMdl(t, f)
	if code != exitStatic {
		t.Fatalf("negation recursion must fail with exit %d without -wfs-fallback, got %d", exitStatic, code)
	}
	out, _, code := runMdl(t, "-wfs-fallback", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "win(a).") || strings.Contains(out, "win(b).") {
		t.Fatalf("game output:\n%s", out)
	}
}

func TestMultipleFilesAndErrors(t *testing.T) {
	rules := writeProgram(t, "rules.mdl", programs.ShortestPath)
	facts := writeProgram(t, "facts.mdl", "arc(x, y, 4).\n")
	out, _, code := runMdl(t, "-query", "s", rules, facts)
	if code != exitOK || !strings.Contains(out, "s(x, y, 4).") {
		t.Fatalf("multi-file run: exit %d\n%s", code, out)
	}
}

func TestExplainFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	out, _, code := runMdl(t, "-explain", "s(a, c)", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"s(a, c, 3)", "min", "[fact]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if _, _, code := runMdl(t, "-explain", "s(a, c", f); code != exitUsage {
		t.Fatal("malformed atom must exit 1")
	}
}

func TestNaiveFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	outN, _, code := runMdl(t, "-naive", f)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	outS, _, _ := runMdl(t, f)
	if outN != outS {
		t.Fatalf("strategies disagree:\n%s\nvs\n%s", outN, outS)
	}
}

// TestFactFilesEqualProgramText: `mdl rules.mdl facts.mdl` is the same
// solve as one file holding both — same model, same -stats report (rule
// work only: three hot-spot rows, none per fact), same final checkpoint
// bytes — at every worker count. Together with the datalog package's
// TestFactsInTextEqualFactsAsArguments this ties fact files, program
// text and Solve arguments to one ingest path.
func TestFactFilesEqualProgramText(t *testing.T) {
	rulesSrc := programs.ShortestPath
	factsSrc := gen.GraphFacts(gen.Graph(gen.CycleGraph, 12, 20, 9, 1))
	rules := writeProgram(t, "rules.mdl", rulesSrc)
	facts := writeProgram(t, "facts.mdl", factsSrc)
	one := writeProgram(t, "one.mdl", rulesSrc+"\n"+factsSrc)

	// The wall-clock fields, and the order they sort the hot-spot rows
	// into, are the only legitimate differences between two runs.
	clock := regexp.MustCompile(`time=\S+|^ +[0-9.]+(µs|ms|s) `)
	report := func(stderr string) string {
		lines := strings.Split(stderr, "\n")
		for i, l := range lines {
			lines[i] = clock.ReplaceAllString(l, "")
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	var seqOut, seqReport string
	var seqSnap []byte
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		run := func(files ...string) (string, string, []byte) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			args := append([]string{"-stats", "-checkpoint", ckpt}, files...)
			out, errOut, code := runMdl(t, args...)
			if code != exitOK {
				t.Fatalf("mdl %v: exit %d\n%s", args, code, errOut)
			}
			snap, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			return out, report(errOut), snap
		}
		out2, rep2, snap2 := run(rules, facts)
		out1, rep1, snap1 := run(one)
		if out2 != out1 {
			t.Fatalf("GOMAXPROCS %d: model from two files differs:\n%s\nwant:\n%s", procs, out2, out1)
		}
		if rep2 != rep1 {
			t.Fatalf("GOMAXPROCS %d: -stats from two files differs:\n%s\nwant:\n%s", procs, rep2, rep1)
		}
		if !bytes.Equal(snap2, snap1) {
			t.Fatalf("GOMAXPROCS %d: final checkpoint from two files differs", procs)
		}
		if n := strings.Count(rep2, "comp=1"); n != 3 {
			t.Fatalf("GOMAXPROCS %d: %d rule rows in the hot-spot table, want 3 (none per fact):\n%s", procs, n, rep2)
		}
		if procs == 1 {
			seqOut, seqReport, seqSnap = out2, rep2, snap2
		} else if out2 != seqOut || rep2 != seqReport || !bytes.Equal(snap2, seqSnap) {
			t.Fatalf("GOMAXPROCS %d differs from GOMAXPROCS 1:\n%s\nwant:\n%s", procs, rep2, seqReport)
		}
	}
}

// TestNegativeZeroIsZero: 0 and -0 are one number, so one tuple. Either
// fact order prints the single r(0). fact, and a rule joining the two
// positions of p(0, -0) sees equal values stored as equal values.
func TestNegativeZeroIsZero(t *testing.T) {
	for _, src := range []string{"r(0). r(-0).\n", "r(-0). r(0).\n"} {
		out, errOut, code := runMdl(t, writeProgram(t, "z.mdl", src))
		if code != exitOK {
			t.Fatalf("%q: exit %d, stderr: %s", src, code, errOut)
		}
		if out != "r(0).\n" {
			t.Fatalf("%q printed %q, want one r(0).", src, out)
		}
	}
	out, errOut, code := runMdl(t, writeProgram(t, "p.mdl", "p(0, -0). d(X) :- p(X, X).\n"))
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != "d(0).\np(0, 0).\n" {
		t.Fatalf("printed %q, want d(0). and p(0, 0).", out)
	}
}
