package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/programs"
)

// Flag-combination contract of the batch CLI: only genuinely
// conflicting combinations are usage errors. -check never evaluates, so
// it rejects the evaluation-only checkpoint flags; -resume with
// positional fact files is accepted and arbitrated by the checkpoint's
// program fingerprint at restore time.

func TestConflictingFlagCombinations(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	cases := []struct {
		name string
		args []string
	}{
		{"check with resume", []string{"-check", "-resume", "x.ckpt", f}},
		{"check with checkpoint", []string{"-check", "-checkpoint", "x.ckpt", f}},
		{"check with stats", []string{"-check", "-stats", f}},
		{"check with pprof", []string{"-check", "-pprof-addr", "127.0.0.1:0", f}},
		{"check with profile", []string{"-check", "-profile", f}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, code := runMdl(t, tc.args...)
			if code != exitUsage {
				t.Fatalf("exit %d, want %d (usage)", code, exitUsage)
			}
			if !strings.Contains(errOut, "-check does not evaluate") {
				t.Fatalf("stderr must explain the conflict:\n%s", errOut)
			}
		})
	}
}

// TestAcceptedFlagCombinations pins the combinations that must keep
// working: resuming is orthogonal to querying, statistics, further
// checkpointing, and to how many files the program is split across.
func TestAcceptedFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.mdl")
	facts := filepath.Join(dir, "facts.mdl")
	writeFileOrFatal(t, rules, programs.ShortestPath)
	writeFileOrFatal(t, facts, "arc(a, b, 1).\narc(b, c, 2).\n")
	ckpt := filepath.Join(dir, "sp.ckpt")

	// Seed the checkpoint from the multi-file program.
	if _, errOut, code := runMdl(t, "-checkpoint", ckpt, rules, facts); code != exitOK {
		t.Fatalf("seed run exited %d\n%s", code, errOut)
	}

	// -resume with the same positional rule+fact files: accepted, the
	// fingerprint matches.
	out, errOut, code := runMdl(t, "-resume", ckpt, rules, facts)
	if code != exitOK {
		t.Fatalf("-resume with positional files exited %d\n%s", code, errOut)
	}
	if !strings.Contains(out, "s(a, c, 3)") {
		t.Fatalf("resumed model:\n%s", out)
	}

	// -resume composes with -query.
	out, _, code = runMdl(t, "-resume", ckpt, "-query", "s", rules, facts)
	if code != exitOK || !strings.Contains(out, "s(a, c, 3).") {
		t.Fatalf("-resume -query: exit %d\n%s", code, out)
	}

	// -resume composes with -stats.
	_, errOut, code = runMdl(t, "-resume", ckpt, "-stats", rules, facts)
	if code != exitOK || !strings.Contains(errOut, "rounds=") {
		t.Fatalf("-resume -stats: exit %d\n%s", code, errOut)
	}

	// -resume composes with -checkpoint (continue and re-checkpoint).
	ckpt2 := filepath.Join(dir, "sp2.ckpt")
	if _, errOut, code = runMdl(t, "-resume", ckpt, "-checkpoint", ckpt2, rules, facts); code != exitOK {
		t.Fatalf("-resume -checkpoint: exit %d\n%s", code, errOut)
	}
	if out2, errOut, code := runMdl(t, "-resume", ckpt2, rules, facts); code != exitOK || !strings.Contains(out2, "s(a, c, 3)") {
		t.Fatalf("re-checkpointed model: exit %d\n%s\n%s", code, out2, errOut)
	}

	// A genuinely different program is still rejected at restore time
	// with the checkpoint exit code — the protection -resume relies on.
	extra := filepath.Join(dir, "extra.mdl")
	writeFileOrFatal(t, extra, "arc(x, y, 5).\n")
	if _, _, code := runMdl(t, "-resume", ckpt, rules, facts, extra); code != exitCheckpoint {
		t.Fatalf("changed program must exit %d, got %d", exitCheckpoint, code)
	}
}

func writeFileOrFatal(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStatsFlagOutput pins the -stats report: scalar totals plus the
// per-component and per-rule hot-spot tables on stderr.
func TestStatsFlagOutput(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	_, errOut, code := runMdl(t, "-stats", f)
	if code != exitOK {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	for _, want := range []string{
		"components=", "rounds=", "firings=", "derived=", "probes=",
		"rule hot spots (by cumulative time):",
		"s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).",
		"comp=",
	} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("missing %q in -stats output:\n%s", want, errOut)
		}
	}
}

// TestPprofFlag: -pprof-addr starts a live pprof listener for the
// duration of the run.
func TestPprofFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	_, errOut, code := runMdl(t, "-pprof-addr", "127.0.0.1:0", f)
	if code != exitOK {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "pprof listening on http://") {
		t.Fatalf("no pprof listener announcement:\n%s", errOut)
	}
	// A bad address is a usage error.
	if _, _, code := runMdl(t, "-pprof-addr", "256.0.0.1:bogus", f); code != exitUsage {
		t.Fatalf("bad pprof address must be a usage error, got exit %d", code)
	}
}

// TestParallelFlag: there is no worker-count flag — the component walk
// uses GOMAXPROCS workers — so -parallel is undefined on mdl and mdl
// serve alike (usage exit 1).
func TestParallelFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	if _, errOut, code := runMdl(t, "-parallel", "2", f); code != exitUsage ||
		!strings.Contains(errOut, "flag provided but not defined: -parallel") {
		t.Fatalf("mdl -parallel: exit %d, want %d (usage)\n%s", code, exitUsage, errOut)
	}
	var out, errb strings.Builder
	if code := runServe(context.Background(), []string{"-parallel", "2", f}, &out, &errb); code != exitUsage ||
		!strings.Contains(errb.String(), "flag provided but not defined: -parallel") {
		t.Fatalf("mdl serve -parallel: exit %d, want %d (usage)\n%s", code, exitUsage, errb.String())
	}
}

// TestExecutorFlagGone: there is one executor, so -executor is not a
// flag any more — on the batch CLI and on serve it is rejected like any
// other undefined flag (usage exit, the flag package's message) before
// any work is done.
func TestExecutorFlagGone(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	out, errOut, code := runMdl(t, "-executor=stream", f)
	if code != exitUsage || out != "" {
		t.Fatalf("mdl -executor=stream: exit %d, stdout %q; want %d (usage) and no output", code, out, exitUsage)
	}
	if !strings.Contains(errOut, "flag provided but not defined: -executor") {
		t.Fatalf("stderr must name the undefined flag:\n%s", errOut)
	}
	var sout, serr strings.Builder
	if code := runServe(context.Background(), []string{"-executor=stream", f}, &sout, &serr); code != exitUsage {
		t.Fatalf("mdl serve -executor=stream: exit %d, want %d (usage)", code, exitUsage)
	}
	if !strings.Contains(serr.String(), "flag provided but not defined: -executor") {
		t.Fatalf("serve stderr must name the undefined flag:\n%s", serr.String())
	}
}

// TestPlanFlag: rule bodies compile to one canonical order plus their
// Δ-driver orders at load time, with nothing to choose, so -plan is not
// a flag any more: the batch CLI rejects it like any other undefined
// flag (usage exit, the flag package's message) before doing any work.
// TestServeFlagValidation pins the same for serve.
func TestPlanFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	for _, v := range []string{"cost", "syntactic"} {
		out, errOut, code := runMdl(t, "-plan", v, f)
		if code != exitUsage || out != "" {
			t.Fatalf("mdl -plan %s: exit %d, stdout %q; want %d (usage) and no output", v, code, out, exitUsage)
		}
		if !strings.Contains(errOut, "flag provided but not defined: -plan") {
			t.Fatalf("stderr must name the undefined flag:\n%s", errOut)
		}
	}
}

// TestProfileFlag: -profile needs no other flag and prints the
// annotated operator trees to stderr, leaving the model on stdout.
func TestProfileFlag(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	plain, _, _ := runMdl(t, f)
	out, errOut, code := runMdl(t, "-profile", f)
	if code != exitOK {
		t.Fatalf("-profile: exit %d\n%s", code, errOut)
	}
	if out != plain {
		t.Fatalf("-profile changed the model output:\n%s\nvs\n%s", out, plain)
	}
	if !strings.Contains(errOut, "EXPLAIN ANALYZE\n") || strings.Contains(errOut, "executor=") {
		t.Fatalf("-profile must print the operator profile under a bare header:\n%s", errOut)
	}
}

// TestServeFlagValidation covers the serve-only observability flags and
// the retired -plan flag.
func TestServeFlagValidation(t *testing.T) {
	f := writeProgram(t, "sp.mdl", shortestPath)
	cases := []struct {
		name     string
		args     []string
		wantFrag string
	}{
		{"bad log format", []string{"-log-format", "xml", f}, "-log-format must be text or json"},
		{"negative slow request", []string{"-slow-request", "-1s", f}, "-slow-request must be ≥ 0"},
		{"bad plan", []string{"-plan", "cost", f}, "flag provided but not defined: -plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := runServe(context.Background(), tc.args, &out, &errb)
			if code != exitUsage {
				t.Fatalf("exit %d, want %d (usage)", code, exitUsage)
			}
			if !strings.Contains(errb.String(), tc.wantFrag) {
				t.Fatalf("stderr must explain:\n%s", errb.String())
			}
		})
	}
}
